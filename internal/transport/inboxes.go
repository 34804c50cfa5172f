package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/ubq"
)

// inboxSet is the (GroupID, Channel)-keyed inbox registry shared by both
// wire transports. It holds an inbox only for a pair a reader claimed
// (lookup): deposit drops and counts envelopes for any other pair, and
// close ends every inbox exactly once (crash-stop: nothing is delivered
// after close returns).
type inboxSet struct {
	mu     sync.Mutex
	closed bool
	m      map[groupChan]*ubq.Mailbox[Envelope]

	dropGroup   atomic.Uint64
	dropChannel atomic.Uint64
}

func newInboxSet() *inboxSet {
	return &inboxSet{m: make(map[groupChan]*ubq.Mailbox[Envelope])}
}

// register claims g's Data and Ctl inboxes, the two a group's engine
// reads, ahead of traffic. Idempotent; a no-op after close.
func (s *inboxSet) register(g ident.GroupID) {
	s.lookup(g, Data)
	s.lookup(g, Ctl)
}

// dropExport is the inbox set's metric catalogue: DropStats as
// transport_dropped_total{reason=...}.
var dropExport = []struct {
	reason obs.DropReason
	get    func(*DropStats) uint64
}{
	{obs.DropUnknownGroup, func(d *DropStats) uint64 { return d.DroppedUnknownGroup }},
	{obs.DropUnknownChannel, func(d *DropStats) uint64 { return d.DroppedUnknownChannel }},
}

// instrument makes ob's registry read the drop counters whenever it is
// snapshotted.
func (s *inboxSet) instrument(ob *obs.Obs) {
	ob.AddSource(func(emit obs.Emit) {
		d := s.drops()
		for _, row := range dropExport {
			emit("transport_dropped_total", obs.KindCounter, row.get(&d), obs.L("reason", string(row.reason)))
		}
	})
}

// dropUnknownGroup counts one envelope discarded because its group can
// never be hosted here (used by the TCP read loop for out-of-range ids).
func (s *inboxSet) dropUnknownGroup() { s.dropGroup.Add(1) }

// deregister removes and closes every inbox of g; subsequent traffic for
// g is dropped and counted.
func (s *inboxSet) deregister(g ident.GroupID) {
	s.mu.Lock()
	var qs []*ubq.Mailbox[Envelope]
	for ch := Data; ch <= numChannels; ch++ {
		key := groupChan{g, ch}
		if q, ok := s.m[key]; ok {
			qs = append(qs, q)
			delete(s.m, key)
		}
	}
	s.mu.Unlock()
	for _, q := range qs {
		q.Close()
	}
}

// inbox returns the receive channel for (g, ch), claiming it for reading
// one envelope at a time; after close the channel is already closed.
func (s *inboxSet) inbox(g ident.GroupID, ch Channel) <-chan Envelope {
	return s.lookup(g, ch).Items()
}

// inboxBatch is the batch-mode counterpart of inbox.
func (s *inboxSet) inboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope {
	return s.lookup(g, ch).Batches()
}

// lookup returns the inbox for (g, ch), creating it on a reader's first
// claim; after close, a new one that is already closed.
func (s *inboxSet) lookup(g ident.GroupID, ch Channel) *ubq.Mailbox[Envelope] {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := groupChan{g, ch}
	q, ok := s.m[key]
	if !ok {
		q = ubq.NewMailbox[Envelope]()
		if s.closed {
			q.Close()
		} else {
			s.m[key] = q
		}
	}
	return q
}

// target returns the inbox to deposit n envelopes for (g, ch) into, or nil
// after close. When no reader claimed the pair it counts the n as dropped
// and returns nil: as an unknown channel when g has some other inbox here
// or ch is outside the defined range, else as an unknown group.
func (s *inboxSet) target(g ident.GroupID, ch Channel, n int) *ubq.Mailbox[Envelope] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.m[groupChan{g, ch}]; ok {
		if s.closed {
			return nil
		}
		return q
	}
	hosted := !validChannel(ch)
	for c := Data; c <= numChannels && !hosted; c++ {
		_, hosted = s.m[groupChan{g, c}]
	}
	if hosted {
		s.dropChannel.Add(uint64(n))
	} else {
		s.dropGroup.Add(uint64(n))
	}
	return nil
}

// deposit places env in the inbox for (g, ch), or drops and counts it
// when no reader claimed that pair.
func (s *inboxSet) deposit(g ident.GroupID, ch Channel, env Envelope) {
	if q := s.target(g, ch, 1); q != nil {
		q.Push(env)
	}
}

// depositBatch places a run of envelopes for one (g, ch) in its inbox
// under a single registry lookup and a single inbox lock acquisition —
// the receive-side mirror of the send path's frame coalescing. The slice
// contents are copied; the caller may reuse envs immediately. When no
// reader claimed the pair the whole run is dropped and counted.
func (s *inboxSet) depositBatch(g ident.GroupID, ch Channel, envs []Envelope) {
	if len(envs) == 0 {
		return
	}
	if q := s.target(g, ch, len(envs)); q != nil {
		q.Push(envs...)
	}
}

// close ends every inbox; no envelope is delivered after it returns.
// Idempotent.
func (s *inboxSet) close() {
	s.mu.Lock()
	s.closed = true
	qs := make([]*ubq.Mailbox[Envelope], 0, len(s.m))
	for _, q := range s.m {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	for _, q := range qs {
		q.Close()
	}
}

// drops returns the drop counters.
func (s *inboxSet) drops() DropStats {
	return DropStats{
		DroppedUnknownGroup:   s.dropGroup.Load(),
		DroppedUnknownChannel: s.dropChannel.Load(),
	}
}
