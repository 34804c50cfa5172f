// Package fd provides the unreliable failure detector of the paper's
// system model (§3.1): an oracle that maintains a per-process suspicion
// set, in the style of Chandra & Toueg. The detector may be wrong
// (suspicions can be revised); the protocol and the consensus module only
// rely on it for liveness, never for safety.
//
// Two implementations are provided: Heartbeat, a timeout-based detector
// running over the transport, and Manual, a deterministic detector driven
// explicitly by tests.
package fd

import (
	"sync"

	"repro/internal/ident"
	"repro/internal/ubq"
)

// Event reports a suspicion change.
type Event struct {
	P ident.PID
	// Suspected is true when p became suspected, false when the suspicion
	// was revised.
	Suspected bool
}

// Detector is the failure detector oracle.
//
// Events subscribes one consumer to the suspicion changes: each receive
// from the channel yields every change since the previous one, in order,
// starting with a suspicion of each peer suspected at the time of the
// call, so a consumer that subscribes late still learns them. The returned cancel
// ends the subscription and closes the channel; after Stop every
// subscription is closed, and a new one is born closed. Suspected may be
// polled concurrently by anyone (the consensus module does).
type Detector interface {
	Suspected(p ident.PID) bool
	Suspects() ident.PIDs
	Events() (<-chan []Event, func())
	Stop()
}

// suspectSet is a detector's suspect set and its subscriptions under one
// lock, so a subscriber's replay and the changes after it neither overlap
// nor miss one another.
type suspectSet struct {
	mu   sync.Mutex
	susp map[ident.PID]bool
	subs map[*ubq.Mailbox[Event]]struct{} // nil once stopped
}

func newSuspectSet() suspectSet {
	return suspectSet{susp: make(map[ident.PID]bool), subs: make(map[*ubq.Mailbox[Event]]struct{})}
}

// mark sets whether p is suspected and tells every subscriber if that
// changed it, reporting whether it did. The caller holds mu.
func (s *suspectSet) mark(p ident.PID, suspected bool) bool {
	if s.susp[p] == suspected {
		return false
	}
	if suspected {
		s.susp[p] = true
	} else {
		delete(s.susp, p)
	}
	for mb := range s.subs {
		mb.Push(Event{P: p, Suspected: suspected})
	}
	return true
}

// Suspected implements Detector.
func (s *suspectSet) Suspected(p ident.PID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.susp[p]
}

// Suspects implements Detector.
func (s *suspectSet) Suspects() ident.PIDs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suspects()
}

func (s *suspectSet) suspects() ident.PIDs {
	ps := make([]ident.PID, 0, len(s.susp))
	for p := range s.susp {
		ps = append(ps, p)
	}
	return ident.NewPIDs(ps...)
}

// Events implements Detector.
func (s *suspectSet) Events() (<-chan []Event, func()) {
	mb := ubq.NewMailbox[Event]()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs == nil {
		mb.Close()
		return mb.Batches(), func() {}
	}
	for _, p := range s.suspects() {
		mb.Push(Event{P: p, Suspected: true})
	}
	s.subs[mb] = struct{}{}
	return mb.Batches(), func() {
		s.mu.Lock()
		delete(s.subs, mb)
		s.mu.Unlock()
		mb.Close()
	}
}

// stop closes every subscription, and those made later at birth.
func (s *suspectSet) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for mb := range s.subs {
		mb.Close()
	}
	s.subs = nil
}

// Manual is a deterministic detector driven by test code.
type Manual struct{ suspectSet }

var _ Detector = (*Manual)(nil)

// NewManual returns a detector suspecting nobody.
func NewManual() *Manual { return &Manual{newSuspectSet()} }

// Suspect marks p as suspected.
func (m *Manual) Suspect(p ident.PID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mark(p, true)
}

// Restore revises the suspicion of p.
func (m *Manual) Restore(p ident.PID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mark(p, false)
}

// Stop implements Detector.
func (m *Manual) Stop() { m.stop() }
