package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// backoffRecv waits for one envelope on the contact's control inbox.
func backoffRecv(t *testing.T, in <-chan transport.Envelope) transport.Envelope {
	t.Helper()
	select {
	case env := <-in:
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a join request")
		return transport.Envelope{}
	}
}

// backoffNone asserts no envelope arrives within a short grace period.
func backoffNone(t *testing.T, in <-chan transport.Envelope) {
	t.Helper()
	select {
	case env := <-in:
		t.Fatalf("unexpected envelope before the backoff elapsed: %+v", env)
	case <-time.After(30 * time.Millisecond):
	}
}

// retryBand is the window retransmission n must fall in: ±20 % of
// min(200ms·2ⁿ, 3.2s).
func retryBand(n int) (lo, hi time.Duration) {
	base := min(200*time.Millisecond<<n, 3200*time.Millisecond)
	return base * 8 / 10, base * 12 / 10
}

// TestJoinBackoffScheduleFake pins the retransmission schedule under a
// fake clock: retry n (n = 0..5) goes out retryDelay(n) after the one
// before it, not a tick earlier, and that delay lies inside ±20 % of
// min(200ms·2ⁿ, 3.2s). The jitter is a hash of the joiner, its start and
// n, so across joiners and starts every delay stays inside its band while
// the herd spreads out.
func TestJoinBackoffScheduleFake(t *testing.T) {
	begin := time.Unix(0, 0)
	fake := obs.NewFake(begin)
	net := transport.NewMemNetwork()
	jep, err := net.Endpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	cep, err := net.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	defer cep.Close()
	inbox := cep.Inbox(0, transport.Ctl)

	det := fd.NewManual()
	defer det.Stop()
	eng, err := start(config{
		Self: "j", Endpoint: jep, Detector: det,
		Join: &JoinSpec{Contacts: ident.NewPIDs("c")},
		Obs:  obs.New(fake, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()

	// The initial request is sent as the engine starts, before any timer fires.
	if env := backoffRecv(t, inbox); env.From != "j" {
		t.Fatalf("initial join request from %q, want j", env.From)
	}

	for n := 0; n <= 5; n++ {
		d := retryDelay("j", begin, n)
		if lo, hi := retryBand(n); d < lo || d > hi {
			t.Fatalf("retry %d waits %v, outside [%v, %v]", n, d, lo, hi)
		}
		// The engine re-arms its timer after each retransmission; wait for
		// it to register before advancing, or the tick lands nowhere.
		fake.BlockUntil(1)
		fake.Advance(d - time.Millisecond)
		backoffNone(t, inbox)
		fake.Advance(time.Millisecond)
		if env := backoffRecv(t, inbox); env.From != "j" {
			t.Fatalf("retry %d from %q, want j", n, env.From)
		}
	}

	first := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		self, at := ident.PID(fmt.Sprintf("j%d", i%20)), begin.Add(time.Duration(i/20)*time.Millisecond)
		for n := 0; n <= 5; n++ {
			d := retryDelay(self, at, n)
			if lo, hi := retryBand(n); d < lo || d > hi {
				t.Fatalf("%s starting at %v: retry %d waits %v, outside [%v, %v]", self, at, n, d, lo, hi)
			}
			if n == 0 {
				first[d] = true
			}
		}
	}
	if len(first) < 190 {
		t.Fatalf("200 joiners drew %d distinct first delays: the jitter does not spread them", len(first))
	}
}

// TestJoinGiveUpFake: a joiner whose retry budget (GiveUp) expires fails
// terminally — Deliver and Multicast return ErrJoinTimeout, including
// calls parked before the budget ran out.
func TestJoinGiveUpFake(t *testing.T) {
	fake := obs.NewFake(time.Unix(0, 0))
	net := transport.NewMemNetwork()
	jep, err := net.Endpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	det := fd.NewManual()
	defer det.Stop()
	eng, err := start(config{
		Self: "j", Endpoint: jep, Detector: det,
		Join: &JoinSpec{
			Contacts: ident.NewPIDs("ghost"), // never attached: every send fails
			GiveUp:   200 * time.Millisecond,
		},
		Obs: obs.New(fake, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()

	// Park a Deliver before the budget expires; it must be failed, not
	// stranded.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	delErr := make(chan error, 1)
	go func() {
		_, err := eng.Deliver(ctx)
		delErr <- err
	}()

	// One big advance fires the engine's timer, armed for the give-up at
	// 200ms at the latest; by the time the engine steps the tick the clock
	// reads 400ms, past the budget, so it gives up instead of
	// retransmitting.
	fake.BlockUntil(1)
	fake.Advance(400 * time.Millisecond)

	if err := <-delErr; !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("parked Deliver = %v, want ErrJoinTimeout", err)
	}
	if _, err := eng.Deliver(ctx); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Deliver after give-up = %v, want ErrJoinTimeout", err)
	}
	meta := obsolete.Msg{Sender: "j", Seq: 1}
	if _, err := eng.Multicast(ctx, meta, []byte("x")); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Multicast after give-up = %v, want ErrJoinTimeout", err)
	}
}

// TestJoinGiveUpAtDeadline: the give-up is a deadline the engine's timer
// is armed for, not a test made when a retransmission happens to fire.
// With a 1s budget and the clock advancing in 10ms steps, a parked Deliver
// fails with ErrJoinTimeout by 1.01s, and not before 1s.
func TestJoinGiveUpAtDeadline(t *testing.T) {
	fake := obs.NewFake(time.Unix(0, 0))
	net := transport.NewMemNetwork()
	jep, err := net.Endpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	det := fd.NewManual()
	defer det.Stop()
	eng, err := start(config{
		Self: "j", Endpoint: jep, Detector: det,
		Join: &JoinSpec{Contacts: ident.NewPIDs("ghost"), GiveUp: time.Second},
		Obs:  obs.New(fake, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	delErr := make(chan error, 1)
	go func() {
		_, err := eng.Deliver(ctx)
		delErr <- err
	}()

	for now := 10 * time.Millisecond; ; now += 10 * time.Millisecond {
		// Until the give-up the engine always has its timer armed: the next
		// retransmission or the deadline.
		fake.BlockUntil(1)
		fake.Advance(10 * time.Millisecond)
		wait := time.Millisecond
		if now >= time.Second {
			wait = 5 * time.Second
		}
		select {
		case err := <-delErr:
			if now < time.Second {
				t.Fatalf("gave up at %v, before the 1s budget ran out", now)
			}
			if !errors.Is(err, ErrJoinTimeout) {
				t.Fatalf("parked Deliver = %v, want ErrJoinTimeout", err)
			}
			return
		case <-time.After(wait):
			if now >= 1010*time.Millisecond {
				t.Fatalf("no give-up by %v with a 1s budget", now)
			}
		}
	}
}

// TestJoinDeadContactMem: a contact list with one dead and one live member
// must still admit the joiner — requests to the dead contact fail (counted
// as send errors) while the live one triggers the admitting view change.
func TestJoinDeadContactMem(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1")
	nodes := make(map[ident.PID]*Node)
	for _, p := range pids {
		nodes[p] = joinerNode(t, net, p)
	}
	gc := GroupConfig{Relation: obsolete.Empty{}}
	groups := createEverywhere(t, nodes, pids, 1, gc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range pids {
		g := groups[p]
		go func() {
			for {
				if _, err := g.Deliver(ctx); err != nil {
					return
				}
			}
		}()
	}

	jn := joinerNode(t, net, "j")
	// "dead" was never attached to the network: sends to it return
	// ErrUnknownPeer. The join must ride on the live contact n1.
	jg, err := jn.Join(1, gc, "dead", "n1")
	if err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "joiner admitted despite a dead contact", func() bool {
		v := jg.View()
		return v.ID >= 2 && v.Includes("j")
	})
}

// TestJoinAllDeadContactsTimeout: when every contact is dead, JoinWith a
// GiveUp budget ends in a clean ErrJoinTimeout — and closing the node
// leaks no goroutines.
func TestJoinAllDeadContactsTimeout(t *testing.T) {
	baseline := runtime.NumGoroutine()

	net := transport.NewMemNetwork()
	jn := joinerNode(t, net, "j")
	jg, err := jn.JoinWith(1, GroupConfig{}, JoinSpec{
		Contacts: ident.NewPIDs("d0", "d1"),
		GiveUp:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := jg.Deliver(ctx); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Deliver = %v, want ErrJoinTimeout", err)
	}
	meta := obsolete.Msg{Sender: "j", Seq: 1}
	if _, err := jg.Multicast(ctx, meta, []byte("x")); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Multicast = %v, want ErrJoinTimeout", err)
	}

	jn.Close()
	joinWaitCond(t, "goroutines to settle after Close", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestJoinerDropsCancelledCalls: a joiner parks every Multicast until the
// state transfer installs its first view, and a parked call whose caller
// gave up leaves the queue on the loop's next turn, wherever it stands. A
// hundred Multicasts with 2 ms deadlines to a dead contact, with no
// give-up, leave at most the last one parked.
func TestJoinerDropsCancelledCalls(t *testing.T) {
	jn := joinerNode(t, transport.NewMemNetwork(), "j")
	jg, err := jn.Join(1, GroupConfig{}, "dead")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err := jg.Multicast(ctx, obsolete.Msg{Sender: "j", Seq: ident.Seq(i)}, []byte("x"))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Multicast %d = %v, want its deadline", i, err)
		}
	}
	if n := jg.Stats().Parked; n > 1 {
		t.Fatalf("%d multicasts parked after their callers gave up, want at most the last", n)
	}
}
