package fd

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// peerSet is a watched set a test changes while a detector reads it.
type peerSet struct {
	mu sync.Mutex
	ps ident.PIDs
}

func watching(ps ...ident.PID) *peerSet { return &peerSet{ps: ident.NewPIDs(ps...)} }

func (s *peerSet) get() ident.PIDs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ps
}

func (s *peerSet) set(ps ...ident.PID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ps = ident.NewPIDs(ps...)
}

func waitSuspected(t *testing.T, d Detector, p ident.PID, want bool) {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for d.Suspected(p) != want {
		select {
		case <-deadline:
			t.Fatalf("Suspected(%s) never became %v", p, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func waitEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case e, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed")
		}
		return e
	case <-time.After(3 * time.Second):
		t.Fatal("timed out waiting for fd event")
		return Event{}
	}
}

func TestManualSuspectRestore(t *testing.T) {
	m := NewManual()
	defer m.Stop()

	if m.Suspected("p") {
		t.Fatal("fresh detector suspects p")
	}
	m.Suspect("p")
	if !m.Suspected("p") {
		t.Fatal("Suspect had no effect")
	}
	if ev := waitEvent(t, m.Events()); ev.P != "p" || !ev.Suspected {
		t.Fatalf("event %+v", ev)
	}
	// Duplicate suspicion emits nothing; restore emits.
	m.Suspect("p")
	m.Restore("p")
	if m.Suspected("p") {
		t.Fatal("Restore had no effect")
	}
	if ev := waitEvent(t, m.Events()); ev.P != "p" || ev.Suspected {
		t.Fatalf("event %+v", ev)
	}
	if got := m.Suspects(); len(got) != 0 {
		t.Fatalf("Suspects = %v", got)
	}
}

func TestManualSuspects(t *testing.T) {
	m := NewManual()
	defer m.Stop()
	m.Suspect("b")
	m.Suspect("a")
	got := m.Suspects()
	want := ident.NewPIDs("a", "b")
	if !got.Equal(want) {
		t.Fatalf("Suspects = %v, want %v", got, want)
	}
}

func TestHeartbeatSuspectsSilentPeer(t *testing.T) {
	net := transport.NewMemNetwork()
	faults := transport.NewFaults(1)
	memA, _ := net.Endpoint("a")
	memB, _ := net.Endpoint("b")
	epA, epB := faults.Wrap(memA), faults.Wrap(memB)
	defer epA.Close()
	defer epB.Close()

	peers := watching("a", "b")
	opts := HeartbeatOptions{Interval: 5 * time.Millisecond}
	ha := NewHeartbeat(epA, peers.get, opts)
	hb := NewHeartbeat(epB, peers.get, opts)
	ha.Start()
	hb.Start()
	defer ha.Stop()
	defer hb.Stop()

	// Both alive: give several intervals, nobody suspected.
	time.Sleep(60 * time.Millisecond)
	if ha.Suspected("b") || hb.Suspected("a") {
		t.Fatal("live peers suspected")
	}

	// Silence b in both directions: a must suspect b. A beat may still be
	// in flight when the link is cut (briefly revising the suspicion), so
	// poll until the suspicion sticks.
	faults.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	ev := waitEvent(t, ha.Events())
	if ev.P != "b" || !ev.Suspected {
		t.Fatalf("event %+v", ev)
	}
	waitSuspected(t, ha, "b", true)

	// Heal: suspicion must be revised.
	faults.Heal()
	waitSuspected(t, ha, "b", false)
}

// TestHeartbeatSetPeers: the detector follows its watched set at the next
// beat. A peer the set drops loses its suspicion; a peer it keeps keeps
// its own.
func TestHeartbeatSetPeers(t *testing.T) {
	net := transport.NewMemNetwork()
	epA, _ := net.Endpoint("a")
	defer epA.Close()

	peers := watching("a", "b", "c")
	ha := NewHeartbeat(epA, peers.get, HeartbeatOptions{Interval: 5 * time.Millisecond})
	ha.Start()
	defer ha.Stop()

	// b and c never beat: both eventually suspected.
	waitSuspected(t, ha, "b", true)
	waitSuspected(t, ha, "c", true)

	// Dropping c from the watched set forgets its suspicion at the next beat.
	peers.set("a", "b")
	waitSuspected(t, ha, "c", false)
	if !ha.Suspected("b") {
		t.Fatal("kept peer lost suspicion state")
	}
}

func TestHeartbeatStopIsIdempotent(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, _ := net.Endpoint("a")
	defer ep.Close()
	h := NewHeartbeat(ep, watching("a").get, HeartbeatOptions{})
	h.Start()
	h.Stop()
	h.Stop()
}
