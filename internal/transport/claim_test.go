package transport

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/obs"
)

// TestUnclaimedInboxesDropFloods: an endpoint holds only the inboxes a
// reader claimed — none at construction, a group's Data and Ctl after
// Register — since every inbox is an unbounded mailbox a peer could fill.
// A peer sends 10,000 envelopes to each of (NodeGroup, Data),
// (NodeGroup, Ctl) and a hosted group's FailureDetector channel of a node
// whose heartbeat and one group engine claimed their inboxes. No reader
// claimed those three pairs, so every envelope is dropped and counted as an
// unknown channel, in DropStats and in transport_dropped_total; a reader
// that claims a pair afterwards receives the next envelope sent to it
// first, none of the flood; and Deregister closes every inbox of the group,
// the late-claimed one too.
func TestUnclaimedInboxesDropFloods(t *testing.T) {
	const flood = 10_000
	targets := []groupChan{{ident.NodeGroup, Data}, {ident.NodeGroup, Ctl}, {1, FailureDetector}}
	for name, recv := range claimPairs(t) {
		t.Run(name, func(t *testing.T) {
			b := recv()
			if got := inboxKeys(b.boxes); len(got) != 0 {
				t.Fatalf("a new endpoint holds inboxes %v, want none", got)
			}
			reg := obs.NewRegistry()
			b.instrument(obs.New(nil, reg, nil))
			b.Register(1) // a group engine
			if got := inboxKeys(b.boxes); len(got) != 2 || !got[groupChan{1, Data}] || !got[groupChan{1, Ctl}] {
				t.Fatalf("Register(1) left inboxes %v, want (1, Data) and (1, Ctl)", got)
			}
			b.Inbox(ident.NodeGroup, FailureDetector) // a started heartbeat
			a := b.sender
			for _, k := range targets {
				for i := 0; i < flood; i++ {
					if err := a.Send("b", k.g, k.ch, tcpPayload{N: i}); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := uint64(len(targets) * flood)
			waitFor(t, "the flood to be dropped", func() bool { return b.boxes.drops().DroppedUnknownChannel >= want })
			if d := b.boxes.drops(); d.DroppedUnknownChannel != want || d.DroppedUnknownGroup != 0 {
				t.Fatalf("DropStats = %+v, want %d unknown-channel and no unknown-group", d, want)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["transport_dropped_total{reason=unknown_channel}"]; got != want {
				t.Fatalf("transport_dropped_total{reason=unknown_channel} = %d, want %d", got, want)
			}
			if got := snap.Counters["transport_dropped_total{reason=unknown_group}"]; got != 0 {
				t.Fatalf("transport_dropped_total{reason=unknown_group} = %d, want 0", got)
			}

			ins := make([]<-chan Envelope, len(targets))
			for i, k := range targets {
				ins[i] = b.Inbox(k.g, k.ch)
				if err := a.Send("b", k.g, k.ch, tcpPayload{N: -1}); err != nil {
					t.Fatal(err)
				}
			}
			for i, k := range targets {
				if env := recvOne(t, ins[i]); env.Msg.(tcpPayload).N != -1 {
					t.Fatalf("(%d, %d) claimed after the flood first yields %+v, want the envelope sent after the claim", k.g, k.ch, env)
				}
			}

			b.Deregister(1)
			if _, ok := <-ins[2]; ok {
				t.Fatal("(1, FailureDetector) still open after Deregister(1)")
			}
			if got := inboxKeys(b.boxes); len(got) != 3 {
				t.Fatalf("after Deregister(1) the endpoint holds %v, want only NodeGroup's three", got)
			}
		})
	}
}

// claimPairs returns, per transport, a constructor of a fresh endpoint "b"
// with its own sender "a"; both close when the test ends.
func claimPairs(t *testing.T) map[string]func() claimPair {
	return map[string]func() claimPair{
		"mem": func() claimPair {
			n := NewMemNetwork()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close(); b.Close() })
			return claimPair{b, b.boxes, b.Instrument, a}
		},
		"tcp": func() claimPair {
			a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewTCPNetwork("b", "127.0.0.1:0", nil)
			if err != nil {
				a.Close()
				t.Fatal(err)
			}
			a.AddPeer("b", b.Addr())
			t.Cleanup(func() { a.Close(); b.Close() })
			return claimPair{b, b.boxes, b.Instrument, a}
		},
	}
}

// claimPair is the endpoint "b" whose inboxes a claim test inspects, its
// inbox set, how to instrument it, and the endpoint "a" that sends to it.
type claimPair struct {
	Endpoint
	boxes      *inboxSet
	instrument func(*obs.Obs)
	sender     Endpoint
}

// inboxKeys is the set of pairs s holds an inbox for.
func inboxKeys(s *inboxSet) map[groupChan]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make(map[groupChan]bool, len(s.m))
	for k := range s.m {
		keys[k] = true
	}
	return keys
}
