package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
)

// faultPair wraps two MemNetwork endpoints in one Faults controller.
func faultPair(t *testing.T, f *Faults) (*FaultEndpoint, *FaultEndpoint) {
	t.Helper()
	n := NewMemNetwork()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := f.Wrap(a), f.Wrap(b)
	fa.Register(ident.NodeGroup) // the tests read NodeGroup's Data and Ctl
	fb.Register(ident.NodeGroup)
	t.Cleanup(func() {
		fa.Close()
		fb.Close()
	})
	return fa, fb
}

func expectNone(t *testing.T, in <-chan Envelope, d time.Duration) {
	t.Helper()
	select {
	case e := <-in:
		t.Fatalf("unexpected envelope %+v", e)
	case <-time.After(d):
	}
}

func TestFaultsPartitionAndHeal(t *testing.T) {
	f := NewFaults(1)
	fa, fb := faultPair(t, f)

	f.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, "lost-ab"); err != nil {
		t.Fatal(err)
	}
	if err := fb.Send("a", ident.NodeGroup, Data, "lost-ba"); err != nil {
		t.Fatal(err)
	}
	expectNone(t, fb.Inbox(ident.NodeGroup, Data), 50*time.Millisecond)
	expectNone(t, fa.Inbox(ident.NodeGroup, Data), 50*time.Millisecond)

	f.Heal()
	if err := fa.Send("b", ident.NodeGroup, Data, "after-heal"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, fb.Inbox(ident.NodeGroup, Data)); env.Msg != "after-heal" {
		t.Fatalf("got %+v", env)
	}

	st := f.Stats()
	if st.Partitioned != 2 {
		t.Fatalf("Partitioned = %d, want 2", st.Partitioned)
	}
}

func TestFaultsPartitionOneWayIsAsymmetric(t *testing.T) {
	f := NewFaults(1)
	fa, fb := faultPair(t, f)

	f.PartitionOneWay([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, "cut"); err != nil {
		t.Fatal(err)
	}
	if err := fb.Send("a", ident.NodeGroup, Data, "open"); err != nil {
		t.Fatal(err)
	}
	// b→a still flows; a→b is cut.
	if env := recvOne(t, fa.Inbox(ident.NodeGroup, Data)); env.Msg != "open" {
		t.Fatalf("got %+v", env)
	}
	expectNone(t, fb.Inbox(ident.NodeGroup, Data), 50*time.Millisecond)

	// Healing the one link restores it; the message sent while it was cut
	// stays lost.
	f.HealLink("a", "b")
	if err := fa.Send("b", ident.NodeGroup, Data, "healed"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, fb.Inbox(ident.NodeGroup, Data)); env.Msg != "healed" {
		t.Fatalf("after HealLink got %+v", env)
	}
}

func TestFaultsDropAllAndRemove(t *testing.T) {
	f := NewFaults(7)
	fa, fb := faultPair(t, f)

	f.Drop("a", "b", 1.0)
	for i := 0; i < 10; i++ {
		if err := fa.Send("b", ident.NodeGroup, Data, i); err != nil {
			t.Fatal(err)
		}
	}
	expectNone(t, fb.Inbox(ident.NodeGroup, Data), 50*time.Millisecond)
	if st := f.Stats(); st.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", st.Dropped)
	}

	f.Drop("a", "b", 0) // remove the rule
	if err := fa.Send("b", ident.NodeGroup, Data, "through"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, fb.Inbox(ident.NodeGroup, Data)); env.Msg != "through" {
		t.Fatalf("got %+v", env)
	}
}

func TestFaultsDuplicate(t *testing.T) {
	f := NewFaults(3)
	fa, fb := faultPair(t, f)

	f.Duplicate("a", "b", 1.0)
	if err := fa.Send("b", ident.NodeGroup, Data, "twin"); err != nil {
		t.Fatal(err)
	}
	in := fb.Inbox(ident.NodeGroup, Data)
	for i := 0; i < 2; i++ {
		if env := recvOne(t, in); env.Msg != "twin" {
			t.Fatalf("copy %d: got %+v", i, env)
		}
	}
	if st := f.Stats(); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
}

// TestFaultsDelayDeterministicUnderFakeClock: a delayed message stays in
// flight until the fake clock advances past its delay — the DES hook — and
// the link serialises: the next message starts its delay only once the
// one ahead of it has been delivered.
func TestFaultsDelayDeterministicUnderFakeClock(t *testing.T) {
	clock := obs.NewFake(time.Unix(0, 0))
	f := NewFaults(5)
	f.SetClock(clock)
	fa, fb := faultPair(t, f)

	f.Delay("a", "b", 100*time.Millisecond)
	for _, m := range []string{"slow", "second"} {
		if err := fa.Send("b", ident.NodeGroup, Data, m); err != nil {
			t.Fatal(err)
		}
	}
	in := fb.Inbox(ident.NodeGroup, Data)
	for _, want := range []string{"slow", "second"} {
		// The delay-link goroutine registers the timer of the message at
		// the head of the link with the fake clock; the frozen clock holds
		// it back.
		clock.BlockUntil(1)
		expectNone(t, in, 30*time.Millisecond)
		clock.Advance(100 * time.Millisecond)
		if env := recvOne(t, in); env.Msg != want {
			t.Fatalf("got %+v, want %s", env, want)
		}
	}
	if st := f.Stats(); st.Delayed != 2 {
		t.Fatalf("Delayed = %d, want 2", st.Delayed)
	}
}

// TestFaultsDelayRemovalKeepsFIFO: a run of delayed messages arrives in
// send order, and a message sent after the delay rule is removed must not
// overtake the ones still sitting in the delay queue.
func TestFaultsDelayRemovalKeepsFIFO(t *testing.T) {
	clock := obs.NewFake(time.Unix(0, 0))
	f := NewFaults(5)
	f.SetClock(clock)
	fa, fb := faultPair(t, f)

	const delayed = 20
	f.Delay("a", "b", 200*time.Millisecond)
	for i := 0; i < delayed; i++ {
		if err := fa.Send("b", ident.NodeGroup, Data, i); err != nil {
			t.Fatal(err)
		}
	}
	clock.BlockUntil(1)
	f.Delay("a", "b", 0) // remove the rule while the run is in flight
	if err := fa.Send("b", ident.NodeGroup, Data, "undelayed"); err != nil {
		t.Fatal(err)
	}

	in := fb.Inbox(ident.NodeGroup, Data)
	for i := 0; i < delayed; i++ {
		clock.BlockUntil(1)
		clock.Advance(200 * time.Millisecond)
		if env := recvOne(t, in); env.Msg != i {
			t.Fatalf("reordered: got %+v, want %d", env, i)
		}
	}
	if env := recvOne(t, in); env.Msg != "undelayed" {
		t.Fatalf("got %+v, want undelayed", env)
	}
}

// TestFaultEndpointClose: closing a wrapped endpoint is how a process
// crashes — sends from it fail and sends to it find no peer.
func TestFaultEndpointClose(t *testing.T) {
	f := NewFaults(9)
	fa, fb := faultPair(t, f)

	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	// b's endpoint is gone: sends from b fail, sends to b vanish with it.
	if err := fb.Send("a", ident.NodeGroup, Data, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from closed endpoint: err = %v, want ErrClosed", err)
	}
	if err := fa.Send("b", ident.NodeGroup, Data, "x"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to closed peer: err = %v, want ErrUnknownPeer", err)
	}
}

func TestFaultsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFaults(11)
	fa, _ := faultPair(t, f)

	f.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, "x"); err != nil {
		t.Fatal(err)
	}
	// The registry reads FaultStats: a fault injected before Instrument
	// counts as well as the ones after it.
	f.Instrument(obs.New(nil, reg, nil))
	f.Heal()
	f.Drop("a", "b", 1.0)
	if err := fa.Send("b", ident.NodeGroup, Data, "x"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, want := range []string{
		`transport_faults_total{kind=partition}`,
		`transport_faults_total{kind=drop}`,
	} {
		if v := snap.Counters[want]; v != 1 {
			t.Fatalf("%s = %d, want 1", want, v)
		}
	}
}

// TestFaultsOverTCP: the same controller drives a real TCP transport —
// partition silences the link, heal restores it.
func TestFaultsOverTCP(t *testing.T) {
	a, b := tcpPair(t)
	f := NewFaults(13)
	fa := f.Wrap(a)

	f.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	expectNone(t, b.Inbox(ident.NodeGroup, Data), 50*time.Millisecond)

	f.Heal()
	if err := fa.Send("b", ident.NodeGroup, Data, tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b.Inbox(ident.NodeGroup, Data)); env.Msg.(tcpPayload).N != 2 {
		t.Fatalf("got %+v", env)
	}
}
