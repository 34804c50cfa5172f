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
// Events returns a channel of suspicion changes intended for a single
// consumer (the protocol engine); Suspected may be polled concurrently by
// anyone (the consensus module does).
type Detector interface {
	Suspected(p ident.PID) bool
	Suspects() ident.PIDs
	Events() <-chan Event
	Stop()
}

// Manual is a deterministic detector driven by test code.
type Manual struct {
	mu   sync.Mutex
	susp map[ident.PID]bool
	ev   *ubq.Queue[Event]
}

var _ Detector = (*Manual)(nil)

// NewManual returns a detector suspecting nobody.
func NewManual() *Manual {
	return &Manual{susp: make(map[ident.PID]bool), ev: ubq.New[Event]()}
}

// Suspect marks p as suspected.
func (m *Manual) Suspect(p ident.PID) {
	m.mu.Lock()
	changed := !m.susp[p]
	m.susp[p] = true
	m.mu.Unlock()
	if changed {
		m.ev.Push(Event{P: p, Suspected: true})
	}
}

// Restore revises the suspicion of p.
func (m *Manual) Restore(p ident.PID) {
	m.mu.Lock()
	changed := m.susp[p]
	delete(m.susp, p)
	m.mu.Unlock()
	if changed {
		m.ev.Push(Event{P: p, Suspected: false})
	}
}

// Suspected implements Detector.
func (m *Manual) Suspected(p ident.PID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.susp[p]
}

// Suspects implements Detector.
func (m *Manual) Suspects() ident.PIDs {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := make([]ident.PID, 0, len(m.susp))
	for p := range m.susp {
		ps = append(ps, p)
	}
	return ident.NewPIDs(ps...)
}

// Events implements Detector.
func (m *Manual) Events() <-chan Event { return m.ev.Out() }

// Stop implements Detector.
func (m *Manual) Stop() { m.ev.Close() }
