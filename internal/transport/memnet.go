package transport

import (
	"fmt"
	"sync"

	"repro/internal/ident"
	"repro/internal/obs"
)

// MemNetwork is an in-process network of fully connected, reliable, FIFO
// point-to-point channels with no bound on transmission time — exactly the
// network of the paper's system model (§3.1) — plus crash-stop (Crash).
// Link faults (cuts, drops, delays, duplication) are injected by wrapping
// its endpoints in a Faults controller.
type MemNetwork struct {
	mu  sync.RWMutex
	eps map[ident.PID]*MemEndpoint
}

// link is one direction of a point-to-point channel, the unit Faults
// installs rules on.
type link struct{ from, to ident.PID }

// NewMemNetwork returns an empty network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{eps: make(map[ident.PID]*MemEndpoint)}
}

// Crash removes p from the network abruptly: its endpoint closes, all
// in-flight and future messages to or from p are dropped.
func (n *MemNetwork) Crash(p ident.PID) {
	n.mu.Lock()
	ep := n.eps[p]
	delete(n.eps, p)
	n.mu.Unlock()
	if ep != nil {
		ep.shutdown()
	}
}

// Endpoint attaches process p to the network with no inbox: each is
// created when a reader claims it (Register, Inbox or InboxBatch).
func (n *MemNetwork) Endpoint(p ident.PID) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[p]; ok {
		return nil, fmt.Errorf("transport: endpoint %q already attached", p)
	}
	ep := &MemEndpoint{
		net:       n,
		self:      p,
		closeDone: make(chan struct{}),
		boxes:     newInboxSet(),
	}
	n.eps[p] = ep
	return ep, nil
}

// MemEndpoint is a process's attachment to a MemNetwork.
type MemEndpoint struct {
	net   *MemNetwork
	self  ident.PID
	boxes *inboxSet

	mu        sync.Mutex
	closed    bool
	closeDone chan struct{}
}

var _ Endpoint = (*MemEndpoint)(nil)

// Self implements Endpoint.
func (e *MemEndpoint) Self() ident.PID { return e.self }

// Drops returns the counters of envelopes discarded at deposit because no
// reader claimed their (group, channel) inbox.
func (e *MemEndpoint) Drops() DropStats { return e.boxes.drops() }

// Instrument makes ob's registry read the endpoint's drop counters as
// transport_dropped_total{reason=...}. Call it once per registry; it is
// safe while traffic is flowing, and core.NewNode calls it with the
// node's obs bundle.
func (e *MemEndpoint) Instrument(ob *obs.Obs) { e.boxes.instrument(ob) }

// Register implements Endpoint: create g's Data and Ctl inboxes.
func (e *MemEndpoint) Register(g ident.GroupID) { e.boxes.register(g) }

// Deregister implements Endpoint: remove and close every inbox of g.
// Subsequent traffic for g is dropped and counted.
func (e *MemEndpoint) Deregister(g ident.GroupID) { e.boxes.deregister(g) }

// Inbox implements Endpoint.
func (e *MemEndpoint) Inbox(g ident.GroupID, ch Channel) <-chan Envelope {
	return e.boxes.inbox(g, ch)
}

// InboxBatch implements Endpoint.
func (e *MemEndpoint) InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope {
	return e.boxes.inboxBatch(g, ch)
}

// Send implements Endpoint.
func (e *MemEndpoint) Send(to ident.PID, g ident.GroupID, ch Channel, m any) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()

	e.net.mu.RLock()
	dst, ok := e.net.eps[to]
	e.net.mu.RUnlock()
	if !ok {
		// The peer has crashed or never joined; in a crash-stop model the
		// message silently disappears with it.
		return ErrUnknownPeer
	}
	dst.boxes.deposit(g, ch, Envelope{From: e.self, Group: g, Msg: m})
	return nil
}

// Close implements Endpoint: crash-stop shutdown. Concurrent or repeated
// Close calls all block until the shutdown completes, and no envelope is
// delivered from any inbox after Close returns.
func (e *MemEndpoint) Close() error {
	e.net.mu.Lock()
	if e.net.eps[e.self] == e {
		delete(e.net.eps, e.self)
	}
	e.net.mu.Unlock()
	e.shutdown()
	return nil
}

func (e *MemEndpoint) shutdown() {
	e.mu.Lock()
	if e.closed {
		done := e.closeDone
		e.mu.Unlock()
		<-done // wait for the first closer to finish
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.boxes.close()
	close(e.closeDone)
}
