package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/ubq"
)

// FaultKind labels one category of injected fault, both in FaultStats and
// in the transport_faults_total{kind=...} metric.
type FaultKind string

const (
	// FaultPartition: a message silently dropped by a link cut.
	FaultPartition FaultKind = "partition"
	// FaultDrop: a message lost to a probabilistic per-link drop rule.
	FaultDrop FaultKind = "drop"
	// FaultDelay: a message held back by a per-link delay rule.
	FaultDelay FaultKind = "delay"
	// FaultDuplicate: a message sent twice by a per-link duplication rule.
	FaultDuplicate FaultKind = "duplicate"
)

// FaultStats counts injected faults since the controller was created.
type FaultStats struct {
	Partitioned uint64 // messages dropped by link cuts
	Dropped     uint64 // messages dropped by probabilistic rules
	Delayed     uint64 // messages routed through a delay queue
	Duplicated  uint64 // extra copies sent by duplication rules
}

// Faults is a deterministic fault-injection controller for transport
// endpoints. It wraps any Endpoint implementation (MemNetwork and
// TCPNetwork alike) with send-side filtering: symmetric and asymmetric
// partitions between peer sets, per-link probabilistic drop and
// duplication, and per-link FIFO-preserving delays. A process crashes by
// closing its endpoint (FaultEndpoint.Close, or MemNetwork.Crash).
//
// All randomness comes from one seeded rand source and all time from an
// obs.Clock, so a DES harness driving an obs.Fake replays the exact same
// fault schedule run after run. Every injected fault is counted in
// FaultStats, which Instrument exports as
// transport_faults_total{kind=partition|drop|delay|duplicate}.
//
// Faults filters on the sending side: a rule for the link a→b takes
// effect at a's controller. In a multi-process deployment each process
// owns its controller, so a symmetric partition is expressed by
// installing the cut at both sides (which is also how real partitions
// behave — each side stops hearing the other independently).
type Faults struct {
	mu    sync.Mutex
	clock obs.Clock
	rng   *rand.Rand

	cut   map[link]bool
	drop  map[link]float64
	delay map[link]time.Duration
	dup   map[link]float64

	stats FaultStats
}

// NewFaults returns a controller with no rules, drawing randomness from
// seed and time from the wall clock (see SetClock).
func NewFaults(seed int64) *Faults {
	return &Faults{
		clock: obs.Wall{},
		rng:   rand.New(rand.NewSource(seed)),
		cut:   make(map[link]bool),
		drop:  make(map[link]float64),
		delay: make(map[link]time.Duration),
		dup:   make(map[link]float64),
	}
}

// SetClock replaces the clock pacing delayed links — an obs.Fake makes
// delayed delivery deterministic. Install it before the first Delay rule;
// links created earlier keep the clock they started with.
func (f *Faults) SetClock(c obs.Clock) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c == nil {
		c = obs.Wall{}
	}
	f.clock = c
}

// Instrument makes ob's registry read Stats whenever it is snapshotted, as
// transport_faults_total{kind=...}: every fault since the controller was
// created, those injected before the call included.
func (f *Faults) Instrument(ob *obs.Obs) {
	ob.AddSource(func(emit obs.Emit) {
		st := f.Stats()
		kind := func(k FaultKind, v uint64) {
			emit("transport_faults_total", obs.KindCounter, v, obs.L("kind", string(k)))
		}
		kind(FaultPartition, st.Partitioned)
		kind(FaultDrop, st.Dropped)
		kind(FaultDelay, st.Delayed)
		kind(FaultDuplicate, st.Duplicated)
	})
}

// Stats returns a snapshot of the fault counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Wrap returns a fault-injecting endpoint around ep.
func (f *Faults) Wrap(ep Endpoint) *FaultEndpoint {
	return &FaultEndpoint{f: f, under: ep, self: ep.Self(), links: make(map[ident.PID]*ubq.Mailbox[delayedMsg])}
}

// Partition cuts every link between the sets a and b, in both directions.
// Links within each set are untouched.
func (f *Faults) Partition(a, b []ident.PID) {
	f.PartitionOneWay(a, b)
	f.PartitionOneWay(b, a)
}

// PartitionOneWay cuts every link from a process in from to a process in
// to — an asymmetric partition: to's messages still reach from.
func (f *Faults) PartitionOneWay(from, to []ident.PID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range from {
		for _, b := range to {
			if a != b {
				f.cut[link{a, b}] = true
			}
		}
	}
}

// HealLink restores the one-directional link from→to, removing any cut,
// drop, delay or duplication rule on it.
func (f *Faults) HealLink(from, to ident.PID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := link{from, to}
	delete(f.cut, l)
	delete(f.drop, l)
	delete(f.delay, l)
	delete(f.dup, l)
}

// Heal removes every rule: all partitions, drops, delays and duplication.
// Messages already sitting in delay queues still deliver after their
// original delay.
func (f *Faults) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cut = make(map[link]bool)
	f.drop = make(map[link]float64)
	f.delay = make(map[link]time.Duration)
	f.dup = make(map[link]float64)
}

// Drop installs a probabilistic drop rule on the link from→to: each
// message is lost with probability p. p <= 0 removes the rule.
func (f *Faults) Drop(from, to ident.PID, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p <= 0 {
		delete(f.drop, link{from, to})
		return
	}
	f.drop[link{from, to}] = p
}

// Delay installs a fixed per-message delay on the link from→to,
// preserving FIFO order (messages traverse a per-link queue). d <= 0
// removes the rule; messages still queued keep their original delay and
// later sends queue behind them, so the link never reorders.
func (f *Faults) Delay(from, to ident.PID, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d <= 0 {
		delete(f.delay, link{from, to})
		return
	}
	f.delay[link{from, to}] = d
}

// Duplicate installs a probabilistic duplication rule on the link
// from→to: each message is sent twice with probability p. p <= 0 removes
// the rule.
func (f *Faults) Duplicate(from, to ident.PID, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p <= 0 {
		delete(f.dup, link{from, to})
		return
	}
	f.dup[link{from, to}] = p
}

// verdict is one atomic fault decision for a send, taken under f.mu so
// the rng consumption order is deterministic.
type verdict struct {
	lost  bool
	dup   bool
	delay time.Duration
	// route forces the send through the link's delay queue even when the
	// current delay is zero, preserving FIFO behind queued messages.
	route bool
}

// judge decides the fate of one message on from→to and counts it.
func (f *Faults) judge(from, to ident.PID) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := link{from, to}
	if f.cut[l] {
		f.stats.Partitioned++
		return verdict{lost: true}
	}
	if p, ok := f.drop[l]; ok && f.rng.Float64() < p {
		f.stats.Dropped++
		return verdict{lost: true}
	}
	var v verdict
	if p, ok := f.dup[l]; ok && f.rng.Float64() < p {
		f.stats.Duplicated++
		v.dup = true
	}
	if d, ok := f.delay[l]; ok {
		f.stats.Delayed++
		v.delay = d
		v.route = true
	}
	return v
}

// FaultEndpoint is an Endpoint whose sends pass through a Faults
// controller. Everything but Send delegates to the wrapped endpoint.
type FaultEndpoint struct {
	f     *Faults
	under Endpoint
	self  ident.PID

	mu     sync.Mutex
	closed bool
	// links holds the per-destination delay queues, created lazily by the
	// first delayed send and used for every later send on that link so
	// FIFO order survives rule changes.
	links map[ident.PID]*ubq.Mailbox[delayedMsg]
	wg    sync.WaitGroup // the links' delay loops
}

var _ Endpoint = (*FaultEndpoint)(nil)

// Self implements Endpoint.
func (e *FaultEndpoint) Self() ident.PID { return e.self }

// Inbox implements Endpoint.
func (e *FaultEndpoint) Inbox(g ident.GroupID, ch Channel) <-chan Envelope {
	return e.under.Inbox(g, ch)
}

// InboxBatch implements Endpoint.
func (e *FaultEndpoint) InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope {
	return e.under.InboxBatch(g, ch)
}

// Register implements Endpoint.
func (e *FaultEndpoint) Register(g ident.GroupID) { e.under.Register(g) }

// Deregister implements Endpoint.
func (e *FaultEndpoint) Deregister(g ident.GroupID) { e.under.Deregister(g) }

// Instrument forwards to the wrapped endpoint when it supports the hook,
// so core.NewNode instruments the real transport through the wrapper.
func (e *FaultEndpoint) Instrument(ob *obs.Obs) {
	if in, ok := e.under.(interface{ Instrument(*obs.Obs) }); ok {
		in.Instrument(ob)
	}
}

// Send implements Endpoint: the message passes the controller's rules for
// the link self→to before reaching the wrapped endpoint. Messages to self
// bypass fault injection — a process's loopback never partitions.
func (e *FaultEndpoint) Send(to ident.PID, g ident.GroupID, ch Channel, m any) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	if to == e.self {
		return e.under.Send(to, g, ch, m)
	}
	v := e.f.judge(e.self, to)
	if v.lost {
		return nil // lost on the link: as on a real network, the sender is not told
	}
	n := 1
	if v.dup {
		n = 2
	}
	if !v.route {
		// The link may still have queued delayed messages; overtaking them
		// would reorder. Route through the queue (at zero delay) if it
		// exists.
		e.mu.Lock()
		dl := e.links[to]
		e.mu.Unlock()
		if dl == nil {
			var err error
			for i := 0; i < n; i++ {
				if e2 := e.under.Send(to, g, ch, m); e2 != nil {
					err = e2
				}
			}
			return err
		}
		v.delay = 0
	}
	dl := e.delayLink(to)
	for i := 0; i < n; i++ {
		dl.Push(delayedMsg{to: to, g: g, ch: ch, m: m, delay: v.delay})
	}
	return nil
}

// delayLink returns (creating if needed) the delay queue for self→to.
func (e *FaultEndpoint) delayLink(to ident.PID) *ubq.Mailbox[delayedMsg] {
	e.mu.Lock()
	defer e.mu.Unlock()
	dl, ok := e.links[to]
	if !ok {
		e.f.mu.Lock()
		clock := e.f.clock
		e.f.mu.Unlock()
		dl = ubq.NewMailbox[delayedMsg]()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			runDelayLink(dl, clock, e.under)
		}()
		e.links[to] = dl
	}
	return dl
}

// Close implements Endpoint: closes the wrapped endpoint and stops the
// delay queues (in-flight delayed messages are dropped, crash-stop).
func (e *FaultEndpoint) Close() error {
	e.mu.Lock()
	var links []*ubq.Mailbox[delayedMsg]
	if !e.closed {
		e.closed = true
		for _, dl := range e.links {
			links = append(links, dl)
		}
	}
	e.mu.Unlock()
	for _, dl := range links {
		dl.Close()
	}
	e.wg.Wait() // no delayed message is sent once the links are closed
	return e.under.Close()
}

// delayedMsg is one message traversing a delayed link.
type delayedMsg struct {
	to    ident.PID
	g     ident.GroupID
	ch    Channel
	m     any
	delay time.Duration
}

// runDelayLink serialises the messages of one delayed link: each occupies
// the link for its delay, measured on the controller's clock, before it
// reaches the wrapped endpoint, so the mailbox's FIFO order is the link's.
// Closing the mailbox drops what it holds and ends the loop.
func runDelayLink(mb *ubq.Mailbox[delayedMsg], clock obs.Clock, under Endpoint) {
	for batch := range mb.Batches() {
		for _, m := range batch {
			if m.delay > 0 {
				t := clock.NewTimer(m.delay)
				select {
				case <-t.C():
				case <-mb.Done():
					t.Stop()
					return
				}
			}
			// Best-effort like every transport send path: a failed send is
			// the peer's crash, not the injector's problem.
			_ = under.Send(m.to, m.g, m.ch, m.m)
		}
	}
}
