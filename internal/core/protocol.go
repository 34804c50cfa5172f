package core

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// pidStrings renders a PID set for an event attribute.
func pidStrings(ps ident.PIDs) []string {
	if len(ps) == 0 {
		return nil
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// ---- t2: multicast -------------------------------------------------------

func (e *Engine) onMulticastReq(req *request) {
	// Park while a join is still in flight: the first view (and with it
	// membership and flow windows) arrives with the state transfer.
	if e.joining {
		e.park(req)
		return
	}
	if !e.advance(req) {
		e.park(req)
	}
}

// advance commits as many of req's messages as flow control and buffer
// room allow, staging the per-peer copies and flushing them as one
// coalesced envelope per peer. It returns false when the request must
// (stay) park(ed): the committed prefix is recorded in req.done, so a
// resumed request continues exactly where it stopped — semantically the
// batch behaves as that many individual multicasts back to back.
func (e *Engine) advance(req *request) bool {
	n := len(req.batch)
	for req.done < n {
		m := &req.batch[req.done]
		if err := e.multicastPrecheck(m.Meta); err != nil {
			// Fail the message and the rest of the batch; the committed
			// prefix stands (documented in MulticastBatch).
			e.flushStage()
			e.reply(req, result{err: err})
			return true
		}
		// Park while the group is blocked or buffers lack room; install,
		// credit arrivals and deliveries retry the queue head.
		if e.blocked || !e.canCommit(m.Meta, m.Payload) {
			e.flushStage()
			return false
		}
		if e.stageBase == 0 {
			e.stageBase = m.Meta.Seq
		}
		e.commitOne(m.Meta, m.Payload)
		req.done++
	}
	e.flushStage()
	e.m.batchSize.Observe(float64(n))
	if !req.parkedAt.IsZero() {
		stalled := e.clock.Since(req.parkedAt)
		e.m.parkDur.ObserveDuration(stalled)
		e.ev.FlowUnblocked(uint64(e.lastSent), stalled)
		req.parkedAt = time.Time{}
	}
	e.reply(req, result{view: e.cv.Ref()})
	return true
}

// park appends a multicast to the flow-control wait queue, stamping the
// stall start for the park-duration histogram.
func (e *Engine) park(req *request) {
	e.stats.MulticastParks++
	if req.parkedAt.IsZero() && (e.m.parkDur != nil || e.ev != nil) {
		req.parkedAt = e.clock.Now()
		e.ev.FlowBlocked(uint64(req.batch[req.done].Meta.Seq))
	}
	e.multicastQ = append(e.multicastQ, req)
}

// terminalErr is what every call fails with once this engine can make no
// further progress — its join was abandoned or it was expelled — and nil
// while it can. Parked requests need no failing by hand: the retry that
// follows the transition runs them into this error.
func (e *Engine) terminalErr() error {
	switch {
	case e.joinFailed:
		return ErrJoinTimeout
	case e.expelled:
		return ErrExpelled
	}
	return nil
}

func (e *Engine) multicastPrecheck(meta obsolete.Msg) error {
	if err := e.terminalErr(); err != nil {
		return err
	}
	if !e.cv.Includes(e.cfg.Self) {
		return ErrNotMember
	}
	if meta.Seq != e.lastSent+1 {
		return ErrBadSeq
	}
	return nil
}

// canCommit reports whether the message fits everywhere it must be
// buffered, counting the entries its arrival would purge. The check is
// all-or-nothing: no queue is touched unless every queue fits, so a parked
// multicast never half-purges state it has not yet committed to send.
func (e *Engine) canCommit(meta obsolete.Msg, payload []byte) bool {
	it := e.dataItem(meta, payload)
	if fullAfterPurge(e.toDeliver, it) {
		return false
	}
	for _, p := range e.others {
		if p.out != nil && !p.hasCredit() && fullAfterPurge(p.out, it) {
			return false
		}
	}
	return true
}

// fullAfterPurge reports whether q would still be full after it arrived and
// purged what it obsoletes. A queue with room is never asked what that is.
func fullAfterPurge(q *queue.Queue, it queue.Item) bool {
	return q.Full() && q.Len()-q.CountPurgeableFor(it) >= q.Cap()
}

func (e *Engine) dataItem(meta obsolete.Msg, payload []byte) queue.Item {
	meta.Sender = e.cfg.Self
	return itemOf(DataMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Meta: meta, Payload: payload})
}

// commitOne commits a single message of the transaction advance drives:
// local append (with its purges), per-peer staging, counters. Room in
// every queue is guaranteed by canCommit.
func (e *Engine) commitOne(meta obsolete.Msg, payload []byte) {
	it := e.dataItem(meta, payload)
	dm := msgOf(&it)
	if e.m.deliverLatency != nil {
		it.At = e.clock.Now()
	}

	e.lastSent = it.Meta.Seq
	e.purgeToDeliver(it, nil)
	e.toDeliver.ForceAppend(it) // room guaranteed by canCommit
	for _, p := range e.others {
		e.stageData(p, dm)
	}
	e.stats.Multicast++
	e.serveIfFull()
}

// stageData stages dm for transmission to p, or buffers it in the
// per-peer outgoing queue when p is out of window credits.
func (e *Engine) stageData(p *peer, dm DataMsg) {
	if p.takeCredit() {
		p.staged = append(p.staged, dm)
		return
	}
	purged, _ := p.out.AppendPurge(itemOf(dm)) // room guaranteed by canCommit
	e.stats.PurgedOutgoing += uint64(purged)
}

// unstage drops the staged copies of our own message seq, which a later
// message of the open transaction has just purged from the delivery queue:
// that later message goes to every peer too, so the copy need not be sent
// at all. Every staged run starts at stageBase and is contiguous, so seq
// names its slot; flushStage squeezes the emptied slots out.
func (e *Engine) unstage(seq ident.Seq) {
	if e.stageBase == 0 || seq < e.stageBase {
		return
	}
	i := int(seq - e.stageBase)
	for _, p := range e.others {
		if i < len(p.staged) {
			p.staged[i] = DataMsg{}
		}
	}
}

// flushStage transmits every staged per-peer run, less the copies unstage
// emptied. A dropped copy took a credit and never left: the credit comes
// back once the run is out — not earlier, or a later message of the run
// could overtake one that waits in the outgoing queue — and counts as an
// outgoing purge. The stage keeps its slices; what is handed to the
// transport is a copy sized to the survivors (the decode side aliases
// nothing, and fault injection may duplicate the envelope, so ownership
// goes with the send).
func (e *Engine) flushStage() {
	e.stageBase = 0
	for _, p := range e.others {
		msgs := p.staged
		if len(msgs) == 0 {
			continue
		}
		live := 0
		for i := range msgs {
			if msgs[i].Meta.Seq != 0 {
				live++
			}
		}
		run := make([]DataMsg, 0, live)
		for i := range msgs {
			if msgs[i].Meta.Seq != 0 {
				run = append(run, msgs[i])
			}
		}
		clear(msgs) // release payload references
		p.staged = msgs[:0]
		e.sendData(p.id, run)
		if n := len(msgs) - live; n > 0 {
			e.stats.PurgedOutgoing += uint64(n)
			p.credit(n)
			e.drainOutgoing(p)
		}
	}
}

// sendData transmits a run of data messages to p: a single message goes
// out as a plain DataMsg, a longer run as one DataBatchMsg envelope.
func (e *Engine) sendData(p ident.PID, run []DataMsg) {
	switch len(run) {
	case 0:
	case 1:
		e.send(p, transport.Data, run[0])
	default:
		e.send(p, transport.Data, &DataBatchMsg{Msgs: run})
	}
}

// ---- t3: receive data ----------------------------------------------------

// onDataBatch processes one batched receive from the data inbox. Each
// envelope carries either a single DataMsg or a DataBatchMsg run; both
// routes go through ingestData per message, so batching never changes a
// message's fate — only how many channel operations it shared.
func (e *Engine) onDataBatch(envs []transport.Envelope) {
	var from *peer // an envelope is one sender's run: resolved once
	for i := range envs {
		switch m := envs[i].Msg.(type) {
		case DataMsg:
			from = e.peerOf(m.Meta.Sender, from)
			e.ingestData(from, m)
		case *DataBatchMsg:
			for j := range m.Msgs {
				from = e.peerOf(m.Msgs[j].Meta.Sender, from)
				e.ingestData(from, m.Msgs[j])
			}
		default:
			// A data-channel envelope that is not data: miscoded or
			// hostile peer. This was an entirely silent discard before.
			e.stats.DroppedBadType++
			e.ev.Drop(obs.DropBadType, slog.String("from", string(envs[i].From)))
		}
	}
}

// ingestData routes one arrival: process it now, or — when an earlier
// arrival of this batch is already waiting for queue space — stash it
// raw behind it, preserving per-sender FIFO. (The data inbox is gated
// while anything is pending, so the stash is bounded by one batched
// receive.)
func (e *Engine) ingestData(from *peer, dm DataMsg) {
	if e.pendingFrom != nil || e.pendingPos < len(e.pendingRest) {
		e.pendingRest = append(e.pendingRest, dm)
		return
	}
	if !e.processData(from, dm) {
		e.pendingFrom, e.pendingHead = from, dm
	}
}

// processData runs the t3 receive checks for one arrival from the sender
// whose record is from (nil: it has none). It returns false only when the
// message passed every check (and its credit charge and purges were
// applied) but the delivery queue is full — the caller keeps it as
// pendingHead until space frees.
func (e *Engine) processData(from *peer, dm DataMsg) bool {
	if e.expelled {
		e.stats.DroppedExpelled++
		return true
	}
	if dm.View != e.cv.ID || dm.Epoch != e.cv.Epoch {
		// Not this view — stale, or another lineage's traffic racing a
		// partition merge. Either way its pred/flush obligations are
		// handled by view-change machinery, not the data path.
		e.stats.DroppedStale++
		return true
	}
	if dm.Meta.Sender == e.cfg.Self {
		return true // never accept echoes of our own stream
	}
	if from == nil || !from.member {
		e.dropUnknownSender(dm.Meta.Sender)
		return true
	}
	// Whatever happens to it next, this arrival consumed one of the
	// credits we granted its sender (receiver-side ledger, flow.go).
	from.received()
	if dm.Meta.Seq <= from.recvMax || e.coveredLocally(dm.Meta) {
		// Duplicate, or an m with some m' : m ⊑ m' already queued or
		// delivered (Figure 1, t3). The slot it would have used is free.
		// Either way the message was received: advance the reception
		// frontier so stability tracking is not held back by it.
		from.recvMax = max(from.recvMax, dm.Meta.Seq)
		e.stats.DroppedCovered++
		e.freed(from)
		return true
	}
	it := itemOf(dm)
	e.purgeToDeliver(it, from)
	if e.toDeliver.Full() {
		// Keep the arrival in the one reserved stall slot; the data inbox
		// stays closed until space frees, so per-sender FIFO holds.
		return false
	}
	e.acceptData(from, it)
	return true
}

// dropUnknownSender discards a current-view data message or credit grant in
// the name of id, which is no member of the view: only members multicast in
// it and hold windows, so whatever PID a peer wrote there gets no slot, no
// credit and no record.
func (e *Engine) dropUnknownSender(id ident.PID) {
	e.stats.DroppedUnknownSender++
	e.ev.Drop(obs.DropUnknownSender, slog.String("from", string(id)))
}

func (e *Engine) acceptData(from *peer, it queue.Item) {
	if e.m.deliverLatency != nil {
		it.At = e.clock.Now()
	}
	from.recvMax = it.Meta.Seq
	e.toDeliver.ForceAppend(it)
	e.serveIfFull()
}

// retryPending re-attempts the stashed arrivals once space frees: first
// the processed head waiting on its stall slot, then the raw remainder of
// the batch behind it.
func (e *Engine) retryPending() {
	var from *peer // sender of the last stashed arrival: they come in runs
	for !e.blocked && !e.expelled {
		if e.pendingFrom != nil {
			if e.toDeliver.Full() {
				return
			}
			from = e.pendingFrom
			it := itemOf(e.pendingHead)
			e.pendingFrom, e.pendingHead = nil, DataMsg{}
			e.acceptData(from, it) // still this view: block() clears the stash
			continue
		}
		if e.pendingPos < len(e.pendingRest) {
			dm := e.pendingRest[e.pendingPos]
			e.pendingRest[e.pendingPos] = DataMsg{} // release payload refs
			e.pendingPos++
			from = e.peerOf(dm.Meta.Sender, from)
			if !e.processData(from, dm) {
				e.pendingFrom, e.pendingHead = from, dm
			}
			continue
		}
		e.pendingRest = e.pendingRest[:0]
		e.pendingPos = 0
		return
	}
}

// coveredLocally reports whether some queued or delivered m' has m ⊑ m',
// for an m above its sender's frontier. Every held message of s has seq ≤
// s's recvMax (≤ lastSent for our own stream): commitOne, acceptData and
// adopt raise the frontier to whatever they insert. A sender-local cover
// has m's sender and a seq ≥ m's, so there the frontier is the whole t3
// test; only a relation that reaches across senders scans the queues.
func (e *Engine) coveredLocally(m obsolete.Msg) bool {
	return e.coverScan && (e.toDeliver.Covers(m) || e.delivered.Covers(m))
}

// purgeToDeliver purges the delivery-queue entries obsoleted by it and
// releases flow-control credits for them: their buffer slots are free
// again (this is the heart of SVS's advantage — a slow receiver's window
// refills without consuming). The purged entries pass through the
// engine's reusable scratch slice, so the hot path allocates nothing.
// from is the record of it's sender (nil: our own message), which under a
// sender-local relation is the sender of everything it purges.
func (e *Engine) purgeToDeliver(it queue.Item, from *peer) {
	e.purgeScratch = e.toDeliver.PurgeForInto(it, e.purgeScratch[:0])
	for i := range e.purgeScratch {
		p := &e.purgeScratch[i]
		switch {
		case !e.inView(p):
		case p.Meta.Sender == e.cfg.Self:
			e.unstage(p.Meta.Seq)
		default:
			from = e.peerOf(p.Meta.Sender, from)
			e.freeSlot(from, p.Meta.Seq)
		}
	}
	clear(e.purgeScratch) // release payload references
}

// freeSlot gives sender from back the window slot its current-view message
// seq held until it was delivered or purged — unless the message was adopted
// from our join transfer rather than received through the sender's
// flow-controlled channel: that one held no slot, so no credit may be
// granted for it (a duplicate arriving on the channel is credited
// separately). Our own record, like any non-member's, has no window to give
// slots back to.
func (e *Engine) freeSlot(from *peer, seq ident.Seq) {
	if from != nil && seq > from.seeded {
		e.freed(from)
	}
}

// ---- t1: deliver ---------------------------------------------------------

// serveDeliveries ends every turn of the protocol loop: it hands the
// delivery queue to the waiting Deliver and DeliverBatch calls, then lets
// the stashed arrivals and parked multicasts into the room that made (and
// into whatever else the turn changed — a view, a terminal state). Serving
// once a turn is what makes a batch one transaction: every message of a
// MulticastBatch or a DataBatchMsg has purged its predecessors before a
// waiter is woken, and the waiter gets the survivors in one reply. What the
// retries append goes to a waiter the queue could not feed before.
func (e *Engine) serveDeliveries() {
	for {
		e.serveWaiters()
		e.retryPending()
		e.retryParked()
		if len(e.deliverWaiters) == 0 || e.toDeliver.Len() == 0 {
			return
		}
	}
}

// serveIfFull serves deliveries in mid-turn, which only a full delivery
// queue warrants: a waiter can make the room the rest of the batch needs.
func (e *Engine) serveIfFull() {
	if e.toDeliver.Full() && len(e.deliverWaiters) > 0 {
		e.serveWaiters()
	}
}

// serveWaiters hands queue heads to waiting Deliver and DeliverBatch calls.
// A waiter takes as many heads as its buffer holds in one wake-up
// (Deliver's holds one); it never completes empty — it waits for the first
// item, or for the terminal error that says none will come.
func (e *Engine) serveWaiters() {
	var from *peer // sender of the last head: the queue comes in runs of one
	for len(e.deliverWaiters) > 0 {
		w := e.deliverWaiters[0]
		if w.ctx != nil && w.ctx.Err() != nil {
			e.deliverWaiters = e.deliverWaiters[1:]
			continue
		}
		n := 0
		for n < len(w.dst) {
			it, ok := e.toDeliver.PopHead()
			if !ok {
				break
			}
			w.dst[n], from = e.deliverItem(it, from)
			n++
		}
		res := result{n: n}
		if n == 0 {
			if res.err = e.terminalErr(); res.err == nil {
				return
			}
		}
		e.deliverWaiters = e.deliverWaiters[1:]
		e.reply(w, res)
	}
}

// deliverItem turns a popped queue head into what the application sees.
// last is the record the previous call resolved; the record of it's sender
// comes back for the next one.
func (e *Engine) deliverItem(it queue.Item, last *peer) (Delivery, *peer) {
	switch it.Kind {
	case queue.Control:
		v := it.Ctl.(View)
		kind := DeliverView
		if !v.Includes(e.cfg.Self) {
			kind = DeliverExpelled
		}
		return Delivery{Kind: kind, View: v.ID, Epoch: v.Epoch, NewView: v}, last
	default:
		e.stats.Delivered++
		if !it.At.IsZero() {
			e.m.deliverLatency.ObserveDuration(e.clock.Since(it.At))
		}
		if e.inView(&it) {
			// Keep it in the per-view history for pred sets; purge the
			// history with the same relation so it holds live items only.
			_, _ = e.delivered.AppendPurge(it) // unbounded: never full
			last = e.peerOf(it.Meta.Sender, last)
			e.freeSlot(last, it.Meta.Seq)
		}
		return Delivery{
			Kind:    DeliverData,
			View:    ident.ViewID(it.View),
			Epoch:   ident.Epoch(it.Epoch),
			Meta:    it.Meta,
			Payload: it.Payload,
		}, last
	}
}

// retryParked re-attempts parked multicasts in FIFO order. The head stays
// in place until its whole batch commits, so a half-committed transaction
// resumes exactly where it stopped.
func (e *Engine) retryParked() {
	if e.joining {
		return
	}
	for len(e.multicastQ) > 0 {
		req := e.multicastQ[0]
		if req.ctx != nil && req.ctx.Err() != nil {
			e.multicastQ = e.multicastQ[1:]
			continue
		}
		if !e.advance(req) {
			return // progress is recorded in req.done; the head stays parked
		}
		e.multicastQ = e.multicastQ[1:]
	}
}

// ---- t4: trigger view change ---------------------------------------------

func (e *Engine) triggerViewChange(join, leave ident.PIDs) error {
	if err := e.terminalErr(); err != nil {
		return err
	}
	if e.joining {
		return ErrJoining
	}
	if e.blocked {
		// A view change is already in progress; joiners it does not admit
		// re-request admission and are picked up by the next change.
		return nil
	}
	init := InitMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Leave: leave, Join: join}
	for _, p := range e.cv.Members {
		e.send(p, transport.Ctl, init)
	}
	return nil
}

// onSuspicion reacts to failure detector events: they re-evaluate the
// propose condition and, with AutoEvict, trigger eviction view changes.
func (e *Engine) onSuspicion(ev fd.Event) {
	if e.expelled {
		return
	}
	if ev.Suspected && e.cfg.AutoEvict && !e.blocked && !e.joining && e.cv.Includes(ev.P) {
		_ = e.triggerViewChange(nil, ident.NewPIDs(ev.P))
	}
	e.checkPropose()
	e.checkMergePropose()
}

// ---- t5/t6: ctl handling ---------------------------------------------------

func (e *Engine) onCtl(env transport.Envelope) {
	if e.expelled {
		// An expelled-but-alive process still answers merge announcements
		// with a decline, so a union that names it can proceed without
		// waiting for suspicion to develop.
		if m, ok := env.Msg.(MergeMsg); ok && e.cfg.Heal != nil {
			e.declineMerge(m)
			return
		}
		e.stats.DroppedExpelled++
		return
	}
	switch m := env.Msg.(type) {
	case InitMsg:
		if e.deferFuture(env, ident.ViewRef{Epoch: m.Epoch, ID: m.View}) {
			return
		}
		e.onInit(env.From, m)
	case PredMsg:
		if e.deferFuture(env, ident.ViewRef{Epoch: m.Epoch, ID: m.View}) {
			return
		}
		e.onPred(env.From, m)
	case CreditMsg:
		// A grant from another view must not inflate this view's window:
		// both sides re-arm to a full window at install, so crediting a
		// stale grant would double-count the slots it stood for.
		if m.View != e.cv.ID || m.Epoch != e.cv.Epoch {
			e.stats.CreditsStaleView++
			e.ev.Drop(obs.DropStaleCredit, slog.String("from", string(env.From)),
				slog.Uint64("view", uint64(m.View)))
			return
		}
		p := e.peers[env.From]
		if p == nil || !p.member {
			e.dropUnknownSender(env.From)
			return
		}
		p.credit(m.Credits)
		e.drainOutgoing(p)
	case StableMsg:
		e.onStable(env.From, m)
	case JoinReqMsg:
		e.onJoinReq(env.From)
	case StateMsg:
		e.onJoinState(env.From, m)
	case ProbeMsg:
		e.onProbe(env.From, m)
	case SplitMsg:
		e.onSplit(env.From, m)
	case MergeMsg:
		e.onMerge(env.From, m)
	case MergePredMsg:
		e.onMergePred(env.From, m)
	default:
		// A control envelope of no known kind fell through every case —
		// before, it vanished without a trace.
		e.stats.DroppedUnknownCtl++
		e.ev.Drop(obs.DropUnknownCtl, slog.String("from", string(env.From)))
	}
}

// deferFuture stashes a control message for a view this process has not
// installed yet. A peer that already installed view v may initiate the
// change to v+1 before we finish installing v ourselves; dropping its INIT
// would strand it blocked (it cannot retransmit — it blocked itself at
// t5). The decide flood guarantees we install v shortly, at which point
// the stashed messages are replayed. The stash is bounded by
// Config.MaxDeferredCtl as a backstop against garbage from broken peers;
// drops past it are counted in Stats.CtlDeferredDropped.
//
// Cross-lineage traffic is deferred only while an epoch-changing install
// may be in flight (blocked on a merge decision, or joining — the state
// transfer may land us in a split epoch); then the replay after the
// install re-evaluates it under the new epoch. Otherwise a ref from
// another epoch is not "our future" — it is another partition's
// view-change chatter, which the merge protocol handles through its own
// messages — and is dropped as stale rather than stashed against an
// install that may never come.
func (e *Engine) deferFuture(env transport.Envelope, ref ident.ViewRef) bool {
	if ref.Epoch == e.cv.Epoch && ref.ID <= e.cv.ID {
		return false
	}
	if ref.Epoch != e.cv.Epoch && !e.blocked && !e.joining {
		e.stats.DroppedStale++
		e.ev.Drop(obs.DropStaleView, slog.String("from", string(env.From)),
			slog.String("view", ref.String()))
		return true
	}
	if len(e.deferredCtl) < e.cfg.MaxDeferredCtl {
		e.deferredCtl = append(e.deferredCtl, env)
	} else {
		e.stats.CtlDeferredDropped++
		e.ev.Drop(obs.DropDeferOverflow, slog.String("from", string(env.From)),
			slog.Uint64("view", uint64(ref.ID)))
	}
	return true
}

// replayDeferred re-dispatches stashed control traffic after an install.
func (e *Engine) replayDeferred() {
	if len(e.deferredCtl) == 0 {
		return
	}
	pending := e.deferredCtl
	e.deferredCtl = nil
	for _, env := range pending {
		e.onCtl(env)
	}
}

// onInit is transition t5: block the group, adopt the leave and join
// sets, compute and disseminate the local pred sequence.
func (e *Engine) onInit(from ident.PID, m InitMsg) {
	if e.merge != nil && m.View == e.cv.ID && m.Epoch == e.cv.Epoch && e.cv.Includes(from) {
		// A member started an ordinary change while we were merging. The
		// change's quorum is reachable (the INIT got here) but its members
		// will not answer a merge mid-change — so yield: abort the merge
		// and join the change. The far side's probes retry the merge once
		// the change completes.
		e.abortMerge("view_change")
	}
	if m.View != e.cv.ID || e.blocked || e.joining {
		return
	}
	if !e.cv.Includes(from) {
		return
	}
	if from != e.cfg.Self {
		// Forward so every correct process initiates even if the
		// initiator crashed mid-dissemination.
		for _, p := range e.cv.Members {
			e.send(p, transport.Ctl, m)
		}
	}
	e.block()
	e.leave = ident.NewPIDs(m.Leave...).Intersect(e.cv.Members)
	// Current members need no admission and a process asked to leave is
	// not admitted by the same change.
	e.join = ident.NewPIDs(m.Join...).Without(e.cv.Members).Without(e.leave)

	// The local pred sequence: what we accepted to deliver in this view.
	// Messages known stable (received by every member) are left out — the
	// SVS obligations for them hold everywhere without flushing.
	stable := e.stableFilter()
	pred := PredMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Msgs: e.held(func(it *queue.Item) bool {
		return e.inView(it) && !stable(it)
	})}
	for _, p := range e.cv.Members {
		e.send(p, transport.Ctl, pred)
	}

	// Watch for the decision even if we never reach the propose condition
	// ourselves — the decide flood must still install the view here.
	e.awaitDecision(ident.ViewRef{Epoch: e.cv.Epoch, ID: e.cv.ID + 1})
	e.checkPropose()
}

// awaitDecision registers ref as a legitimate successor of the current
// blocked state and watches its consensus instance for the decide flood.
// pendingNext is the arbitration ledger of the concurrent-proposal machine:
// several successors may be pending at once (the ordinary next view, a
// shrinking series of split continuations, a merge union), and onDecision
// installs whichever instance decides first — everything else is counted
// as ignored.
func (e *Engine) awaitDecision(ref ident.ViewRef) {
	if e.pendingNext[ref] {
		return
	}
	e.pendingNext[ref] = true
	go func() {
		raw, err := e.cons.Await(e.rootCtx, viewInstance(ref))
		e.pushDecision(ref, raw, err)
	}()
}

// block closes the data plane for a view change or a merge (t5).
// Arrivals not yet accepted are dropped: their senders' pred sets (or merge
// contributions) cover them.
func (e *Engine) block() {
	e.blocked = true
	e.blockStart = e.clock.Now()
	e.pendingFrom, e.pendingHead = nil, DataMsg{}
	e.pendingRest = e.pendingRest[:0]
	e.pendingPos = 0
}

// unblock reopens the data plane; the caller retries whatever waited.
func (e *Engine) unblock() {
	e.blocked = false
	e.blockStart = time.Time{}
}

// onPred is transition t6: accumulate pred sequences.
func (e *Engine) onPred(from ident.PID, m PredMsg) {
	if m.View != e.cv.ID || m.Epoch != e.cv.Epoch || !e.cv.Includes(from) {
		return
	}
	for _, dm := range m.Msgs {
		e.globalPred[dm.Meta.ID()] = dm
	}
	e.predReceived = e.predReceived.Add(from)
	e.checkPropose()
}

// ---- t7: propose and install ----------------------------------------------

// checkPropose fires the consensus proposal once every unsuspected member's
// pred set has arrived and they form a majority. When every reachable pred
// is in but a majority is unreachable, the ordinary change can never decide;
// with healing enabled the reachable minority continues under a split epoch
// instead of wedging (checkSplit, merge.go).
func (e *Engine) checkPropose() {
	if !e.blocked || e.proposed || e.expelled || e.merge != nil {
		return
	}
	for _, p := range e.cv.Members {
		if !e.cfg.Detector.Suspected(p) && !e.predReceived.Contains(p) {
			return
		}
	}
	if 2*len(e.predReceived) <= len(e.cv.Members) {
		e.checkSplit()
		return
	}
	e.proposed = true

	// Joiners are added verbatim: they have no pred set to contribute and
	// take no part in the consensus deciding the view that admits them.
	next := View{Epoch: e.cv.Epoch, ID: e.cv.ID + 1, Members: e.predReceived.Without(e.leave).Union(e.join)}
	e.propose(consensusValue{Next: next, Pred: sortedPred(e.globalPred)}, e.cv.Members)
}

// propose encodes val and submits it to the consensus instance named by
// the next view's ref, with the given participant set. The decision (ours
// or a competitor's for the same instance) comes back through pushDecision.
func (e *Engine) propose(val consensusValue, participants ident.PIDs) {
	ref := val.Next.Ref()
	raw, err := encodeValue(val)
	if err != nil {
		// Unreachable with the hand-rolled wire encoder; surface as a
		// failed decision rather than wedging silently.
		e.pushDecision(ref, nil, err)
		return
	}
	members := participants.Clone()
	go func() {
		dec, err := e.cons.Propose(e.rootCtx, viewInstance(ref), members, raw)
		e.pushDecision(ref, dec, err)
	}()
}

// sortedPred flattens the accumulated global pred set deterministically:
// by sender, then sequence number — preserving each sender's FIFO order.
func sortedPred(m map[obsolete.MsgID]DataMsg) []DataMsg {
	out := make([]DataMsg, 0, len(m))
	for _, dm := range m {
		out = append(out, dm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Meta.Sender != out[j].Meta.Sender {
			return out[i].Meta.Sender < out[j].Meta.Sender
		}
		return out[i].Meta.Seq < out[j].Meta.Seq
	})
	return out
}

// pushDecision forwards a consensus outcome into the loop.
func (e *Engine) pushDecision(ref ident.ViewRef, raw []byte, err error) {
	var dec decision
	dec.forRef = ref
	if err != nil {
		dec.err = err
	} else if raw != nil {
		val, derr := decodeValue(raw)
		if derr != nil {
			dec.err = derr
		} else {
			dec.val = val
		}
	}
	select {
	case e.decC <- dec:
	case <-e.stopC:
	}
}

// onDecision installs the agreed view (the tail of t7) — but only a
// decision this blocked state is actually waiting on. With concurrent
// proposals (ordinary successor, split continuations, a merge union) more
// than one instance can decide; the first pending one wins and every
// other outcome is counted instead of silently dropped.
func (e *Engine) onDecision(dec decision) {
	if dec.err != nil {
		// A failed outcome where a view decision was expected used to be
		// invisible. Cancellation is the engine's own shutdown; anything
		// else (a decode failure, a stopped consensus service) is counted
		// and logged — the group will stay blocked until another decide
		// flood reaches it, and an operator should be able to see why.
		if !errors.Is(dec.err, context.Canceled) {
			e.stats.DecisionFailures++
			e.ev.DecisionFailed(uint64(dec.forRef.ID), dec.err)
		}
		return
	}
	if e.blocked && e.pendingNext[dec.forRef] {
		e.install(dec.val)
		return
	}
	// Accounted, not installed: the duplicate report of the view we just
	// installed (Await and Propose both resolve), a decision that lost a
	// concurrent-proposal race, or a flood arriving after we moved on.
	n, why := &e.stats.IgnoredWrongView, ignoreWrongView
	switch {
	case dec.forRef == e.cv.Ref():
		n, why = &e.stats.IgnoredDuplicate, ignoreDuplicate
	case !e.blocked:
		n, why = &e.stats.IgnoredNotBlocked, ignoreNotBlocked
	}
	*n++
	e.ev.DecisionIgnored(dec.forRef.String(), why)
}

func (e *Engine) install(val consensusValue) {
	e.stats.ViewsInstalled++
	e.stats.LastFlushLen = len(val.Pred)
	var blockedFor time.Duration
	if !e.blockStart.IsZero() {
		blockedFor = e.clock.Since(e.blockStart)
		e.m.viewChange.ObserveDuration(blockedFor)
	}
	if e.ev != nil {
		e.ev.ViewInstall(uint64(val.Next.ID), len(val.Next.Members), len(val.Pred), blockedFor)
		e.ev.MemberChange(uint64(val.Next.ID),
			pidStrings(val.Next.Members.Without(e.cv.Members)),
			pidStrings(e.cv.Members.Without(val.Next.Members)))
	}

	// Adopt the flush messages we have not seen; the view marker follows
	// them into the delivery queue (enterView). For a merge decision the
	// flush carries both sides' backlogs, so this is what delivers the
	// other partition's relation-surviving messages before the union-view
	// marker, and val.Recv (nil otherwise) the combined frontiers.
	added := e.adopt(val.Pred, val.Recv)
	e.stats.FlushAdded += uint64(added)

	if e.merge != nil {
		// The "newcomers" are the other side, which already holds its own
		// state — no sponsor transfer.
		e.finishMerge(val)
	} else {
		// Dynamic membership: newcomers admitted by this view get a
		// semantic state transfer from their sponsor. This must read
		// e.delivered and e.cv before enterView resets them.
		e.sponsorJoiners(val.Next)
	}

	if !val.Next.Includes(e.cfg.Self) {
		e.expelled = true // terminal: enterView's retries fail what is parked
		e.ev.Expelled(uint64(val.Next.ID))
	}

	e.enterView(val.Next)
}

// enterView makes next the current view, whether a decision installed it or
// a state transfer did: the view marker goes into the delivery queue behind
// whatever the caller just adopted, everything scoped to one view starts
// afresh, and whoever waited for the view — deliveries, parked multicasts,
// deferred control traffic, admission requests — gets its turn.
func (e *Engine) enterView(next View) {
	e.toDeliver.ForceAppend(queue.Item{
		Kind: queue.Control, View: uint64(next.ID), Epoch: uint64(next.Epoch), Ctl: next.Clone(),
	})
	e.cv = next.Clone()
	e.viewDirty = true
	e.unblock()
	e.delivered = queue.New(e.rel, 0)
	e.proposed = false
	e.merge = nil
	e.join = nil
	e.leave = nil
	e.predReceived = nil
	clear(e.globalPred)
	clear(e.pendingNext)
	e.armPeers()
	e.setPeers(e.cv.Members)

	e.retryParked()
	e.replayDeferred()
	e.serveJoins()
}

// setPeers tells a detector that tracks a peer set (the node's shared
// heartbeat does, through groupDetector) whom this group needs monitored.
func (e *Engine) setPeers(ps ident.PIDs) {
	if pd, ok := e.cfg.Detector.(interface{ SetPeers(ident.PIDs) }); ok {
		pd.SetPeers(ps)
	}
}

// ---- dynamic membership: join handshake ------------------------------------

// onJoinReq parks an admission request; requests arriving mid view change
// wait for the install (the joiner retransmits anyway, but parking spares
// it a retry period).
func (e *Engine) onJoinReq(from ident.PID) {
	if e.expelled || e.joining || from == e.cfg.Self {
		return
	}
	e.pendingJoins = e.pendingJoins.Add(from)
	e.serveJoins()
}

// serveJoins resolves parked admission requests once no view change is in
// flight. A requester already in the current view was admitted but lost
// its state transfer (e.g. its sponsor crashed between install and send):
// it gets a fresh snapshot directly. The rest are admitted by a view
// change; if a concurrent change wins without them, their retransmitted
// requests try again.
func (e *Engine) serveJoins() {
	if e.blocked || e.expelled || e.joining || len(e.pendingJoins) == 0 {
		return
	}
	pending := e.pendingJoins
	e.pendingJoins = nil
	e.sendJoinStates(e.cv, pending.Intersect(e.cv.Members))
	if admit := pending.Without(e.cv.Members); len(admit) > 0 {
		_ = e.triggerViewChange(admit, nil)
	}
}

// sponsorJoiners makes the sponsor — the lowest-ordered member surviving
// from the closing view — ship the state transfer to every newcomer of
// the view being installed. Every incumbent computes the same sponsor, so
// exactly one transfer is sent per join unless the sponsor crashes, in
// which case the joiner's retransmitted request reaches serveJoins at
// another member.
func (e *Engine) sponsorJoiners(next View) {
	if inc := e.cv.Members.Intersect(next.Members); len(inc) > 0 && inc[0] == e.cfg.Self {
		e.sendJoinStates(next, next.Members.Without(e.cv.Members))
	}
}

// sendJoinStates ships one snapshot of this member's state, labelled with
// the view the joiners are to install, to each of them.
func (e *Engine) sendJoinStates(next View, joiners ident.PIDs) {
	if len(joiners) == 0 {
		return
	}
	st := e.buildJoinState(next)
	size := wireSize(st)
	for _, j := range joiners {
		e.send(j, transport.Ctl, st)
		e.stats.JoinStatesSent++
		e.stats.JoinBacklogSent += uint64(len(st.Backlog))
		e.stats.JoinBytesSent += uint64(size)
		e.ev.StateTransfer("sent", string(j), uint64(st.View), len(st.Backlog), size)
	}
}

// buildJoinState snapshots this member's state for a joiner: the view,
// the per-sender reception frontiers, and the backlog — every data message
// still held, of whatever view, repurged so covers that straddle history
// and queue collapse. This is the semantic state transfer: under a purging
// relation the backlog is O(window) however long the group has run.
func (e *Engine) buildJoinState(next View) StateMsg {
	return StateMsg{
		View: next.ID, Epoch: next.Epoch, Members: next.Members.Clone(),
		Recv:    e.recvSnapshot(),
		Backlog: repurge(e.rel, e.held(func(*queue.Item) bool { return true })),
	}
}

// onJoinState installs the first view of a joining engine from the state
// transfer: backlog, frontiers, then the view marker — the application
// sees the inherited state first and the view notification tells it the
// join completed. Duplicate transfers (retries, several responders) after
// the first are ignored.
func (e *Engine) onJoinState(from ident.PID, m StateMsg) {
	if !e.joining {
		return
	}
	members := ident.NewPIDs(m.Members...)
	// Only a member of the view being transferred may hand it over (the
	// sponsor, or — on the recovery path — the contact that was re-asked);
	// a transfer from anyone else would hijack the joining engine.
	if m.View == 0 || !members.Contains(e.cfg.Self) || !members.Contains(from) || from == e.cfg.Self {
		return
	}
	if e.joinTimer != nil {
		e.joinTimer.Stop()
		e.joinTimer = nil
	}
	e.joining = false
	e.stats.ViewsInstalled++
	var took time.Duration
	if !e.joinStart.IsZero() {
		took = e.clock.Since(e.joinStart)
		e.m.joinDur.ObserveDuration(took)
	}
	size := wireSize(m)
	e.ev.StateTransfer("recv", string(from), uint64(m.View), len(m.Backlog), size)
	e.ev.JoinComplete(uint64(m.View), len(m.Members), took)
	e.stats.JoinBacklogRecv = uint64(len(m.Backlog))
	e.stats.JoinBytesRecv = uint64(size)

	// Backlog entries of the installed view never consumed a window slot
	// here; remember them so their consumption grants no credits. Whatever
	// the sender multicasts in later views is numbered above them.
	for _, dm := range m.Backlog {
		if dm.View == m.View && dm.Epoch == m.Epoch {
			s := e.peer(dm.Meta.Sender)
			s.seeded = max(s.seeded, dm.Meta.Seq)
		}
	}
	e.adopt(m.Backlog, m.Recv)
	e.enterView(View{Epoch: m.Epoch, ID: m.View, Members: members})
}

// wireSize is the encoded size of a state-transfer message — what the join
// and merge benchmarks compare between semantic and reliable configurations.
func wireSize(m any) int {
	b, err := codec.Marshal(nil, m)
	if err != nil {
		return 0
	}
	return len(b)
}
