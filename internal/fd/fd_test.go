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

// stream reads one subscription's events one at a time.
type stream struct {
	c   <-chan []Event
	buf []Event
}

// subscribe opens a subscription that lasts until d stops.
func subscribe(d Detector) *stream {
	c, _ := d.Events()
	return &stream{c: c}
}

// next returns the subscription's next event, failing t with msg if none
// comes within 5 s.
func (s *stream) next(t *testing.T, msg string) Event {
	t.Helper()
	for len(s.buf) == 0 {
		select {
		case b, ok := <-s.c:
			if !ok {
				t.Fatalf("%s: subscription closed", msg)
			}
			s.buf = append(s.buf, b...)
		case <-time.After(5 * time.Second):
			t.Fatal(msg)
		}
	}
	e := s.buf[0]
	s.buf = s.buf[1:]
	return e
}

// closed reports whether the subscription's channel is closed, once what
// it holds has been read.
func closed(c <-chan []Event) bool {
	for {
		select {
		case _, ok := <-c:
			if !ok {
				return true
			}
		case <-time.After(5 * time.Second):
			return false
		}
	}
}

func TestManualSuspectRestore(t *testing.T) {
	m := NewManual()
	defer m.Stop()
	evs := subscribe(m)

	if m.Suspected("p") {
		t.Fatal("fresh detector suspects p")
	}
	m.Suspect("p")
	if !m.Suspected("p") {
		t.Fatal("Suspect had no effect")
	}
	if ev := evs.next(t, "no suspicion event"); ev.P != "p" || !ev.Suspected {
		t.Fatalf("event %+v", ev)
	}
	// Duplicate suspicion emits nothing; restore emits.
	m.Suspect("p")
	m.Restore("p")
	if m.Suspected("p") {
		t.Fatal("Restore had no effect")
	}
	if ev := evs.next(t, "no revision event"); ev.P != "p" || ev.Suspected {
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
	evs := subscribe(ha)
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
	ev := evs.next(t, "no suspicion of b")
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
	evs, _ := h.Events()
	h.Stop()
	h.Stop()
	if !closed(evs) {
		t.Fatal("a subscription outlived the detector's Stop")
	}
}

// TestEventsReachEverySubscription: every subscription sees every change,
// in order, and queries answer what the events said.
func TestEventsReachEverySubscription(t *testing.T) {
	m := NewManual()
	defer m.Stop()
	subs := []*stream{subscribe(m), subscribe(m)}
	m.Suspect("p3")
	m.Restore("p3")
	for _, s := range subs {
		if e := s.next(t, "no suspicion"); e != (Event{P: "p3", Suspected: true}) {
			t.Fatalf("got %+v, want suspicion of p3", e)
		}
		if e := s.next(t, "no revision"); e != (Event{P: "p3"}) {
			t.Fatalf("got %+v, want revision of p3", e)
		}
	}
	m.Suspect("p4")
	for _, s := range subs {
		if e := s.next(t, "no suspicion"); e.P != "p4" || !m.Suspected("p4") || !m.Suspects().Contains("p4") {
			t.Fatalf("got %+v, Suspected(p4) %v", e, m.Suspected("p4"))
		}
	}
}

// TestEventsReplaySuspicions: a subscription made while peers are suspected
// learns them first, once each — a group created while a shared peer is
// down must be able to evict it — and every change after them follows.
func TestEventsReplaySuspicions(t *testing.T) {
	m := NewManual()
	defer m.Stop()
	m.Suspect("dead2")
	m.Suspect("dead1")
	late := subscribe(m)
	m.Restore("dead1")
	for _, want := range []Event{{P: "dead1", Suspected: true}, {P: "dead2", Suspected: true}, {P: "dead1"}} {
		if e := late.next(t, "replay or revision missing"); e != want {
			t.Fatalf("got %+v, want %+v", e, want)
		}
	}
	select {
	case b := <-late.c:
		t.Fatalf("events beyond the replay and the revision: %+v", b)
	default:
	}
}

// TestEventsCancelDetachesOnly: cancelling one subscription closes it and
// leaves the others and the detector running.
func TestEventsCancelDetachesOnly(t *testing.T) {
	m := NewManual()
	defer m.Stop()
	c1, cancel := m.Events()
	s2 := subscribe(m)
	cancel()
	cancel() // idempotent
	if !closed(c1) {
		t.Fatal("cancelled subscription not closed")
	}
	m.Suspect("q")
	if e := s2.next(t, "surviving subscription got nothing"); e.P != "q" {
		t.Fatalf("surviving subscription got %+v", e)
	}
}

// TestEventsAfterStopClosed: Stop closes every subscription, one made
// afterwards is born closed, and the detector still answers queries.
func TestEventsAfterStopClosed(t *testing.T) {
	m := NewManual()
	early, _ := m.Events()
	m.Stop()
	m.Stop() // idempotent
	if !closed(early) {
		t.Fatal("subscription not closed by Stop")
	}
	m.Suspect("r")
	if !m.Suspected("r") {
		t.Fatal("a stopped detector must still answer queries")
	}
	late, cancel := m.Events()
	defer cancel()
	if !closed(late) {
		t.Fatal("subscription made after Stop must be closed")
	}
}
