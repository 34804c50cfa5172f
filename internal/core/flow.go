package core

import (
	"repro/internal/ident"
	"repro/internal/queue"
	"repro/internal/transport"
)

// flowState implements the credit window flow control that reproduces the
// paper's buffer model in a live group: every receiver grants each sender
// a window of Window buffer slots; a sender without credits queues in a
// bounded per-peer outgoing queue; a full outgoing queue blocks the
// application's multicast. Credits flow back as the receiver delivers or
// purges — purging is what lets a slow SVS receiver keep its senders
// unblocked (§2.3).
//
// The zero Window disables the mechanism: sends go straight to the
// network.
type flowState struct {
	cfg Config

	avail map[ident.PID]int          // credits I hold at each peer (sender side)
	out   map[ident.PID]*queue.Queue // pending sends per peer

	// Receiver-side ledger per sender. granted is the total number of
	// credits handed out this view (the initial window included); used
	// counts the data messages received, each of which consumed one of
	// those credits at the sender. granted-used is therefore an upper
	// bound on the credits the sender still holds — zero means the sender
	// is known blocked.
	owed    map[ident.PID]int // freed slots not yet granted
	granted map[ident.PID]int
	used    map[ident.PID]int
}

func newFlowState(cfg Config, members ident.PIDs) *flowState {
	f := &flowState{cfg: cfg}
	f.reset(members)
	return f
}

// reset re-arms the window for a new view: both sides return to a full
// window by convention, with empty outgoing queues. It handles shrinking
// and growing membership alike — every peer of the new view gets a fresh
// window and ledger, state for departed peers is dropped.
func (f *flowState) reset(members ident.PIDs) {
	f.avail = make(map[ident.PID]int, len(members))
	f.out = make(map[ident.PID]*queue.Queue, len(members))
	f.owed = make(map[ident.PID]int, len(members))
	f.granted = make(map[ident.PID]int, len(members))
	f.used = make(map[ident.PID]int, len(members))
	for _, p := range members {
		if p == f.cfg.Self {
			continue
		}
		f.avail[p] = f.cfg.Window
		f.out[p] = queue.New(f.cfg.Relation, f.cfg.OutgoingCap)
		f.granted[p] = f.cfg.Window
	}
}

// enabled reports whether credit flow control is active.
func (f *flowState) enabled() bool { return f.cfg.Window > 0 }

// hasCredit reports whether a message to p could be sent immediately.
func (f *flowState) hasCredit(p ident.PID) bool {
	return !f.enabled() || f.avail[p] > 0
}

// takeCredit consumes one credit for a send to p, reporting false when the
// message must be queued instead.
func (f *flowState) takeCredit(p ident.PID) bool {
	if !f.enabled() {
		return true
	}
	if f.avail[p] <= 0 {
		return false
	}
	f.avail[p]--
	return true
}

// credit adds credits granted by peer p.
func (f *flowState) credit(p ident.PID, n int) {
	if !f.enabled() || n <= 0 {
		return
	}
	f.avail[p] += n
}

// pending returns the outgoing queue towards p (nil when flow control is
// disabled).
func (f *flowState) pending(p ident.PID) *queue.Queue {
	if !f.enabled() {
		return nil
	}
	return f.out[p]
}

// received records one current-view data message arriving from sender p:
// it consumed one of the credits this receiver granted.
func (f *flowState) received(p ident.PID) {
	if !f.enabled() {
		return
	}
	f.used[p]++
}

// freed records that one buffer slot previously charged to sender p is
// free again (delivered, purged, or dropped as covered), granting credits
// in batches to bound control chatter. The batching must not strand a
// sender: when p has consumed every credit granted so far it is known
// blocked and cannot generate the traffic that would push owed over the
// batch threshold, so whatever is owed is flushed immediately.
func (f *flowState) freed(p ident.PID, e *Engine) {
	if !f.enabled() {
		return
	}
	f.owed[p]++
	batch := f.cfg.Window / 4
	if batch < 1 {
		batch = 1
	}
	if f.owed[p] >= batch || f.used[p] >= f.granted[p] {
		n := f.owed[p]
		f.owed[p] = 0
		f.granted[p] += n
		e.m.creditFlushes.Inc()
		e.send(p, transport.Ctl, CreditMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Credits: n})
	}
}

// drainOutgoing flushes the pending queue towards p while credits last,
// coalescing the whole run into one DataBatchMsg envelope. The head is
// only popped once its send is paid for: a message must never be lost
// between PopHead and takeCredit.
func (e *Engine) drainOutgoing(p ident.PID) {
	out := e.flow.pending(p)
	if out == nil {
		return
	}
	var run []DataMsg
	for {
		it, ok := out.PeekHead()
		if !ok {
			break
		}
		if !e.inView(&it) {
			out.PopHead() // stale: the view changed while it waited
			continue
		}
		if !e.flow.takeCredit(p) {
			break // out of credits: the head stays parked
		}
		out.PopHead()
		run = append(run, msgOf(&it))
	}
	e.sendData(p, run) // ownership of run transfers with the send
}
