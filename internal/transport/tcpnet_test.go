package transport

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
)

// tcpPayload is a test wire type.
type tcpPayload struct {
	N int
	S string
}

func init() {
	codec.Register[tcpPayload](codec.TTestA,
		func(dst []byte, p tcpPayload) []byte {
			dst = codec.AppendVarint(dst, int64(p.N))
			return codec.AppendString(dst, p.S)
		},
		func(r *codec.Reader) (tcpPayload, error) {
			var p tcpPayload
			p.N = int(r.Varint())
			p.S = r.String()
			return p, r.Err()
		})
}

// tcpPairCap is two connected networks a and b whose frames are bounded
// by frameCap.
func tcpPairCap(t *testing.T, frameCap int) (*TCPNetwork, *TCPNetwork) {
	t.Helper()
	a, err := newTCPNetwork("a", "127.0.0.1:0", nil, frameCap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTCPNetwork("b", "127.0.0.1:0", map[ident.PID]string{"a": a.Addr()}, frameCap)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	// Give a the route back to b.
	a.AddPeer("b", b.Addr())
	a.Register(ident.NodeGroup) // the tests read NodeGroup's Data and Ctl
	b.Register(ident.NodeGroup)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func tcpPair(t *testing.T) (*TCPNetwork, *TCPNetwork) {
	t.Helper()
	return tcpPairCap(t, maxFrame)
}

func TestTCPNetworkSendRecv(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: 7, S: "hi"}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b.Inbox(ident.NodeGroup, Data))
	p, ok := env.Msg.(tcpPayload)
	if !ok || p.N != 7 || p.S != "hi" || env.From != "a" || env.Group != ident.NodeGroup {
		t.Fatalf("got %+v", env)
	}
}

func TestTCPNetworkBidirectional(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", ident.NodeGroup, Ctl, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", ident.NodeGroup, Ctl, tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b.Inbox(ident.NodeGroup, Ctl)); env.Msg.(tcpPayload).N != 1 {
		t.Fatalf("b got %+v", env)
	}
	if env := recvOne(t, a.Inbox(ident.NodeGroup, Ctl)); env.Msg.(tcpPayload).N != 2 {
		t.Fatalf("a got %+v", env)
	}
}

func TestTCPNetworkFIFO(t *testing.T) {
	a, b := tcpPair(t)
	const count = 300
	for i := 0; i < count; i++ {
		if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	in := b.Inbox(ident.NodeGroup, Data)
	for i := 0; i < count; i++ {
		env := recvOne(t, in)
		if env.Msg.(tcpPayload).N != i {
			t.Fatalf("out of order: got %v want %d", env.Msg, i)
		}
	}
}

// TestTCPNetworkGroupDemux: one connection pair carries several groups'
// traffic, demultiplexed into independent (group, channel) inboxes, with
// per-group FIFO preserved.
func TestTCPNetworkGroupDemux(t *testing.T) {
	a, b := tcpPair(t)
	groups := []ident.GroupID{1, 2, 7}
	for _, g := range groups {
		b.Register(g)
	}
	const perGroup = 100
	for i := 0; i < perGroup; i++ {
		for _, g := range groups {
			if err := a.Send("b", g, Data, tcpPayload{N: int(g)*1000 + i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, g := range groups {
		in := b.Inbox(g, Data)
		for i := 0; i < perGroup; i++ {
			env := recvOne(t, in)
			if env.Group != g || env.Msg.(tcpPayload).N != int(g)*1000+i {
				t.Fatalf("group %d envelope %d: got %+v", g, i, env)
			}
		}
	}
	if got := a.Conns(); got != 1 {
		t.Fatalf("a holds %d outgoing conns for 3 groups, want 1", got)
	}
}

// TestTCPNetworkDropsUnknownGroup: a well-formed envelope for a group the
// receiver does not host is dropped and counted — never deposited, and
// never fatal to the connection it shares with live groups.
func TestTCPNetworkDropsUnknownGroup(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send("b", 42, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Same connection still serves registered traffic afterwards.
	if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b.Inbox(ident.NodeGroup, Data)); env.Msg.(tcpPayload).N != 2 {
		t.Fatalf("got %+v", env)
	}
	if st := b.Stats(); st.Drops.DroppedUnknownGroup != 1 || st.Drops.DroppedUnknownChannel != 0 {
		t.Fatalf("drops = %+v, want 1 unknown-group", st.Drops)
	}
}

// TestTCPNetworkDropsDeregisteredGroup: after Deregister, stray traffic
// for the departed group is dropped and counted.
func TestTCPNetworkDropsDeregisteredGroup(t *testing.T) {
	a, b := tcpPair(t)
	b.Register(3)
	if err := a.Send("b", 3, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	in := b.Inbox(3, Data)
	recvOne(t, in)
	b.Deregister(3)
	if _, ok := <-in; ok {
		t.Fatal("inbox not closed by Deregister")
	}
	if err := a.Send("b", 3, Data, tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stray envelope dropped", func() bool {
		return b.Stats().Drops.DroppedUnknownGroup == 1
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPNetworkSelfSend(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send("a", ident.NodeGroup, Data, tcpPayload{N: 9}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, a.Inbox(ident.NodeGroup, Data)); env.Msg.(tcpPayload).N != 9 {
		t.Fatalf("got %+v", env)
	}
}

func TestTCPNetworkUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send("ghost", ident.NodeGroup, Data, tcpPayload{}); err == nil {
		t.Fatal("send to unknown peer should fail")
	}
}

// TestTCPNetworkUnregisteredType: the binary codec reports unregistered
// message types synchronously at Send, before anything hits the wire.
func TestTCPNetworkUnregisteredType(t *testing.T) {
	a, _ := tcpPair(t)
	type unregistered struct{ X int }
	if err := a.Send("b", ident.NodeGroup, Data, unregistered{X: 1}); err == nil {
		t.Fatal("send of unregistered type should fail")
	}
	// The connection must survive a rejected send.
	if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPNetworkStats checks the wire counters add up across a burst:
// every envelope is accounted for and frames never exceed envelopes. The
// deterministic coalescing guarantee is covered by
// TestWriteLoopCoalescesBacklog.
func TestTCPNetworkStats(t *testing.T) {
	a, b := tcpPair(t)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	in := b.Inbox(ident.NodeGroup, Data)
	for i := 0; i < count; i++ {
		recvOne(t, in)
	}
	// The writer counts a frame after writing it, so the last receive can
	// beat the last count: wait for it, then the rest is settled.
	waitFor(t, "the writer to count the burst", func() bool {
		return a.Stats().EnvelopesSent >= count
	})
	st := a.Stats()
	if st.EnvelopesSent != count {
		t.Fatalf("EnvelopesSent = %d, want %d", st.EnvelopesSent, count)
	}
	if st.FramesSent == 0 || st.FramesSent > st.EnvelopesSent {
		t.Fatalf("FramesSent = %d out of range (envelopes %d)", st.FramesSent, st.EnvelopesSent)
	}
	rst := b.Stats()
	if rst.EnvelopesRecv != count {
		t.Fatalf("EnvelopesRecv = %d, want %d", rst.EnvelopesRecv, count)
	}
	t.Logf("coalescing: %d envelopes in %d frames", st.EnvelopesSent, st.FramesSent)
}

func TestTCPNetworkCloseUnblocks(t *testing.T) {
	a, err := NewTCPNetwork("x", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	in := a.Inbox(ident.NodeGroup, Data)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range in {
		}
	}()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("inbox reader not released by Close")
	}
	if err := a.Send("anyone", ident.NodeGroup, Data, tcpPayload{}); err == nil {
		t.Fatal("send after close should fail")
	}
}
