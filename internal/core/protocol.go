package core

// protocol.go is Figure 1's data path: t2 multicast, t3 receive, t1
// deliver, and purge() wherever a message waits. Its state — the delivery
// queue, the history, the peer table, the stage and the pending arrivals — is
// part of the group member's value (viewState, viewchange.go), so t4–t7
// close it, flush it and install into it in the same step, and so are the
// application's calls on it: the multicasts parked until they fit, the
// Deliver calls waiting for the queue, and the answers of the turn. A call,
// the stop (onRequest) and a data arrival (onDataBatch) are step events;
// the end of every turn of the owner's loop (endTurn), after all the turn's
// events, is the one method the owner calls directly, and it leaves the
// value's gauges current for the owner to publish. Every send leaves
// through the value's outlet, the engine's endpoint or the explorer's
// links.

import (
	"slices"
	"sort"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// ---- the application's calls ----------------------------------------------

// onRequest takes one of the application's calls: a multicast (t2)
// commits or parks, a Deliver waits for the turn's end (endTurn) unless the
// queue fills before, and a membership change is triggered (t4) and
// answered at once. The stop ends the value, as a join give-up does: the
// turn's endTurn fails every parked and waiting call, and the owner's loop
// returns once the turn is published.
func (t *turn) onRequest(req *request) {
	switch req.kind {
	case reqMulticast:
		// Park while a join is still in flight: the first view (and with it
		// membership and flow windows) arrives with the state transfer.
		if t.joining || !t.advance(req) {
			t.park(req)
		}
	case reqDeliver:
		t.deliverWaiters = append(t.deliverWaiters, req)
	case reqViewChange:
		// Joining or at its end, the process has no view to change; while a
		// change is in flight the request does nothing and succeeds.
		err := t.terminal
		if err == nil && t.joining {
			err = ErrJoining
		}
		t.trigger(req.join, req.leave)
		t.reply(req, result{err: err})
	case reqStop:
		// No longer joining, or retryParked would keep a joiner's calls.
		t.joining, t.terminal = false, ErrStopped
	}
}

// reply answers req with res, for the owner to release when the turn is
// over (replies).
func (s *viewState) reply(req *request, res result) {
	req.res = res
	s.replies = append(s.replies, req)
}

// dropCancelled removes from q the calls whose callers gave up, wherever
// they stand: each has returned already, so nothing answers them.
func dropCancelled(q []*request) []*request {
	return slices.DeleteFunc(q, func(req *request) bool { return req.ctx != nil && req.ctx.Err() != nil })
}

// ---- t2: multicast -------------------------------------------------------

// advance commits as many of req's messages as flow control and buffer
// room allow, staging them and flushing the stage as one coalesced
// envelope per peer. It returns false when the request must
// (stay) park(ed): the committed prefix is recorded in req.done, so a
// resumed request continues exactly where it stopped — semantically the
// batch behaves as that many individual multicasts back to back.
func (s *viewState) advance(req *request) bool {
	n := len(req.batch)
	for req.done < n {
		m := &req.batch[req.done]
		if err := s.multicastPrecheck(m.Meta); err != nil {
			// Fail the message and the rest of the batch; the committed
			// prefix stands (documented in MulticastBatch).
			s.flushStage()
			s.reply(req, result{err: err})
			return true
		}
		// Park while the group is blocked or buffers lack room; install,
		// credit arrivals and deliveries retry the queue head.
		if s.chg != nil || !s.canCommit(m.Meta, m.Payload) {
			s.flushStage()
			return false
		}
		s.commitOne(m.Meta, m.Payload)
		req.done++
	}
	s.flushStage()
	s.m.batchSize.Observe(float64(n))
	if !req.parkedAt.IsZero() {
		stalled := s.clock.Since(req.parkedAt)
		s.m.parkDur.ObserveDuration(stalled)
		s.ev.FlowUnblocked(uint64(s.own.recvMax), stalled)
		req.parkedAt = time.Time{}
	}
	s.reply(req, result{view: s.cv.Ref()})
	return true
}

// park appends a multicast to the flow-control wait queue, stamping the
// stall start for the park-duration histogram.
func (s *viewState) park(req *request) {
	s.stats.MulticastParks++
	if req.parkedAt.IsZero() && (s.m.parkDur != nil || s.ev != nil) {
		req.parkedAt = s.clock.Now()
		s.ev.FlowBlocked(uint64(req.batch[req.done].Meta.Seq))
	}
	s.multicastQ = append(s.multicastQ, req)
}

func (s *viewState) multicastPrecheck(meta obsolete.Msg) error {
	if s.terminal != nil {
		return s.terminal
	}
	if !s.cv.Includes(s.self) {
		return ErrNotMember
	}
	if meta.Seq != s.own.recvMax+1 {
		return ErrBadSeq
	}
	return nil
}

// canCommit reports whether the message fits everywhere it must be
// buffered, counting the entries its arrival would purge. The check is
// all-or-nothing: no queue is touched unless every queue fits, so a parked
// multicast never half-purges state it has not yet committed to send.
func (s *viewState) canCommit(meta obsolete.Msg, payload []byte) bool {
	it := s.dataItem(meta, payload)
	if fullAfterPurge(s.toDeliver, it) {
		return false
	}
	for _, p := range s.others {
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

func (s *viewState) dataItem(meta obsolete.Msg, payload []byte) queue.Item {
	meta.Sender = s.self
	return itemOf(DataMsg{View: s.cv.ID, Epoch: s.cv.Epoch, Meta: meta, Payload: payload})
}

// commitOne commits a single message of the transaction advance drives:
// local append (with its purges), staging, counters. Room in every queue
// is guaranteed by canCommit.
func (s *viewState) commitOne(meta obsolete.Msg, payload []byte) {
	it := s.dataItem(meta, payload)
	if s.m.deliverLatency != nil {
		it.At = s.clock.Now()
	}

	s.purgeToDeliver(it, nil)   // unstage counts back from the frontier: raise it after
	s.toDeliver.ForceAppend(it) // room guaranteed by canCommit
	s.own.recvMax = it.Meta.Seq
	dm := msgOf(&it)
	s.stage = append(s.stage, dm)
	for _, p := range s.others {
		s.stageData(p, dm)
	}
	s.stats.Multicast++
	s.serveIfFull()
}

// stageData lets p have the message just staged, or buffers it in p's
// outgoing queue when p is out of window credits. No credit arrives inside
// a transaction (only a CreditMsg on a later loop turn, or flushStage's
// refund, which ends it), so a peer out of credits stays out: what p took
// is a prefix of the stage.
func (s *viewState) stageData(p *peer, dm DataMsg) {
	if p.takeCredit() {
		p.took++
		return
	}
	purged, _ := p.out.AppendPurge(itemOf(dm)) // room guaranteed by canCommit
	s.stats.PurgedOutgoing += uint64(purged)
}

// unstage drops the staged copy of our own message seq, which a later
// message of the open transaction has just purged from the delivery queue:
// that later message goes to every peer too, so the copy need not be sent
// at all. The stage ends at our frontier, so seq names its slot;
// flushStage squeezes the emptied slots out.
func (s *viewState) unstage(seq ident.Seq) {
	if i := len(s.stage) - 1 - int(s.own.recvMax) + int(seq); i >= 0 && i < len(s.stage) {
		s.stage[i] = DataMsg{}
	}
}

// flushStage transmits the stage, less the copies unstage emptied: every
// peer gets the survivors of the prefix it took credit for. The stage is
// compacted once and its survivors copied once (carve), and every peer is
// handed a prefix of that copy — peers in a row with equal prefixes share
// one envelope. Receivers never write to a batch (fault injection may
// deliver one twice), so from the send on the copy is the transport's. A
// dropped copy took a credit and never left: the credit comes back once
// the run is out — not earlier, or a later message of the run could
// overtake one that waits in the outgoing queue — and counts as an
// outgoing purge.
func (s *viewState) flushStage() {
	if len(s.stage) == 0 {
		return
	}
	base := s.own.recvMax + 1 - ident.Seq(len(s.stage)) // the stage ends at our frontier
	n := 0                                              // the longest prefix a peer took
	for _, p := range s.others {
		n = max(n, p.took)
	}
	run := s.carve(slices.DeleteFunc(s.stage[:n], func(dm DataMsg) bool { return dm.Meta.Seq == 0 }))
	var env any // the last peer's envelope, for the next with as many survivors
	shared := -1
	for _, p := range s.others {
		took := p.took
		p.took = 0
		k := sort.Search(len(run), func(i int) bool { return run[i].Meta.Seq >= base+ident.Seq(took) })
		if k != shared {
			env, shared = s.envelope(run[:k]), k
		}
		if env != nil {
			s.send(p.id, transport.Data, env)
		}
		if dropped := took - k; dropped > 0 {
			s.stats.PurgedOutgoing += uint64(dropped)
			p.credit(dropped)
			s.drainOutgoing(p)
		}
	}
	clear(s.stage) // release payload references
	s.stage = s.stage[:0]
}

// runBlock is how many runs of one length a block of carve holds, and how
// many envelopes a block of envelope.
const runBlock = 16

// carve copies a run of more than one message into the block runs is the
// tail of, and returns the copy, whose capacity ends with it. A shorter run
// travels as a plain DataMsg and needs no copy. A block keeps the payloads
// of its runs until it is replaced: at most runBlock runs' worth.
func (s *viewState) carve(run []DataMsg) []DataMsg {
	if len(run) < 2 {
		return run
	}
	if cap(s.runs)-len(s.runs) < len(run) {
		s.runs = make([]DataMsg, 0, runBlock*len(run))
	}
	i := len(s.runs)
	s.runs = append(s.runs, run...)
	return s.runs[i:len(s.runs):len(s.runs)]
}

// envelope is what a run of data messages travels in: nothing for an
// empty run, a plain DataMsg for one message, one DataBatchMsg, cut from
// the block envs is the tail of, otherwise.
func (s *viewState) envelope(run []DataMsg) any {
	switch len(run) {
	case 0:
		return nil
	case 1:
		return run[0]
	}
	if len(s.envs) == 0 {
		s.envs = make([]DataBatchMsg, runBlock)
	}
	env := &s.envs[0]
	s.envs = s.envs[1:]
	env.Msgs = run
	return env
}

// ---- t3: receive data ----------------------------------------------------

// onDataBatch steps one batched receive from the data inbox. Each
// envelope carries either a single DataMsg or a DataBatchMsg run; both
// routes go through ingestData per message, so batching never changes a
// message's fate — only how many channel operations it shared.
func (s *viewState) onDataBatch(envs []transport.Envelope) {
	var from *peer // the record of the last envelope's link
	for i := range envs {
		env := &envs[i]
		switch m := env.Msg.(type) {
		case DataMsg:
			from = s.peerOf(env.From, from)
			s.ingestData(env.From, from, m)
		case *DataBatchMsg:
			from = s.peerOf(env.From, from)
			for j := range m.Msgs {
				s.ingestData(env.From, from, m.Msgs[j])
			}
		default:
			// A data-channel envelope that is not data: miscoded or
			// hostile peer. This was an entirely silent discard before.
			s.drop(&s.stats.DroppedBadType, obs.DropBadType, env.From)
		}
	}
}

// ingestData routes one arrival on link, the process that sent it, whose
// record is from (nil: it has none). A process multicasts only its own
// stream: a message in anyone else's name is dropped before it can reach
// pending or a frontier. An arrival that passes the receive checks (admit)
// is taken at once (take) by an open process with nothing pending, which
// keeps per-sender FIFO; any other waits at the end of pending.
func (s *viewState) ingestData(link ident.PID, from *peer, dm DataMsg) {
	id := dm.Meta.Sender
	if id != link {
		s.drop(&s.stats.DroppedUnknownSender, obs.DropUnknownSender, link)
		return
	}
	if !s.admit(from, dm, s.waiting[id]) || len(s.pending) == 0 && s.open() && s.take(from, dm) {
		return
	}
	if s.waiting == nil {
		s.waiting = make(map[ident.PID]waitRun)
	}
	s.waiting[id] = waitRun{n: s.waiting[id].n + 1, last: dm.Meta.Seq}
	s.pending = append(s.pending, dm)
}

// waitRun is what of one sender waits in pending: how many arrivals, and
// the number of the last, which is the highest (each sender's arrivals
// wait in order).
type waitRun struct {
	n    int
	last ident.Seq
}

// strangerWindows bounds what a process that is not open holds of a later
// view from senders that are not in the change's audience or joiners of it
// — from everyone, for a joiner, which knows no view yet: that many windows
// in all, enough for a joiner whose first view's other members all
// multicast before its transfer arrives, up to that many of them. Past it
// such an arrival counts as overspent.
const strangerWindows = 64

// admit runs the t3 receive checks on an arrival from the sender whose
// record is from (nil: it has none), ahead being what of that sender waits
// before it in pending, and reports whether the arrival passed: it is taken
// or waits. A process at its end takes nothing; one that is not open
// (changing views or joining) may yet enter a later view, whose arrivals
// it holds, and in a merge, which may abort, it holds its current view's
// too. Otherwise an arrival of another view, our own echo, one from a
// process that is no member, a re-sent copy of an arrival that waits and
// one beyond the credits its sender was granted are dropped. What passes
// is resolved in order by retryPending, which admits each arrival again
// with nothing ahead of it: stale after an install, taken after an aborted
// merge or once the queue has room.
func (s *viewState) admit(from *peer, dm DataMsg, ahead waitRun) bool {
	id := dm.Meta.Sender
	later := !s.open() && dm.View > s.cv.ID
	switch {
	case s.terminal != nil:
		s.stats.DroppedExpelled++
	case !later && (dm.Ref() != s.cv.Ref() || s.chg != nil && !s.chg.merge()):
		// Not this view — stale, or another lineage's traffic racing a
		// partition merge — or this view's in an ordinary change, which
		// ends only in a later view. Its pred/flush obligations are handled
		// by view-change machinery, not the data path.
		s.stats.DroppedStale++
	case id == s.self:
		// never accept echoes of our own stream
	case !later && (from == nil || !from.member):
		s.drop(&s.stats.DroppedUnknownSender, obs.DropUnknownSender, id)
	case dm.Meta.Seq <= ahead.last:
		s.stats.DroppedCovered++
	case s.cfg.Window > 0 && s.overspent(from, id, later, ahead.n):
		s.drop(&s.stats.DroppedOverspent, dropOverspent, id)
	default:
		return true
	}
	return false
}

// overspent is the credit test of an arrival from id, whose record is from,
// with waiting of id's arrivals ahead of it. One of the current view fits
// the credits granted id and not yet used. A later view's grants a full
// window, on top of those credits (what of id waits may be the current
// view's), and a stranger's shares strangerWindows windows with the
// others'.
func (s *viewState) overspent(from *peer, id ident.PID, later bool, waiting int) bool {
	credits := 0
	if from != nil && from.member {
		credits = from.granted - from.used
	}
	if !later {
		return waiting >= credits
	}
	return waiting >= credits+s.cfg.Window || !s.chg.mayInclude(id) && len(s.pending) >= strangerWindows*s.cfg.Window
}

// take accepts an arrival that passed admit, from a member whose record is
// from, while the process is open: one its sender's frontier covers is
// dropped and its slot freed; any other is accepted with its purges. It
// returns false, touching nothing, for an arrival that does not fit the
// delivery queue even after its purges: it waits unprocessed (pending), so
// no purge is ever applied for a message that is not accepted.
func (s *viewState) take(from *peer, dm DataMsg) bool {
	it := itemOf(dm)
	if dm.Meta.Seq > from.recvMax && fullAfterPurge(s.toDeliver, it) {
		return false
	}
	// Whatever happens to it next, this arrival consumed one of the
	// credits we granted its sender (receiver-side ledger, flow.go).
	s.grant(from, from.received())
	if dm.Meta.Seq <= from.recvMax {
		// Figure 1's t3 test: an m with some m' : m ⊑ m' already queued or
		// delivered. Every held message lies at or below its sender's
		// frontier (commitOne, acceptData and adopt raise it to whatever
		// they insert), and a cover has m's sender and a seq ≥ m's, so the
		// frontier is the whole test. The slot it would have used is free.
		s.stats.DroppedCovered++
		s.grant(from, from.freed())
		return true
	}
	s.purgeToDeliver(it, from)
	s.acceptData(from, it)
	return true
}

func (s *viewState) acceptData(from *peer, it queue.Item) {
	if s.m.deliverLatency != nil {
		it.At = s.clock.Now()
	}
	from.recvMax = it.Meta.Seq
	s.toDeliver.ForceAppend(it)
	s.serveIfFull()
}

// retryPending resolves the pending arrivals in order while the process is
// open, up to the first that still does not fit.
func (s *viewState) retryPending() {
	var from *peer // sender of the last arrival resolved: they come in runs
	n := 0
	for ; n < len(s.pending) && s.open(); n++ {
		dm := s.pending[n]
		if from = s.peerOf(dm.Meta.Sender, from); s.admit(from, dm, waitRun{}) && !s.take(from, dm) {
			break
		}
		if w := s.waiting[dm.Meta.Sender]; w.n > 1 {
			s.waiting[dm.Meta.Sender] = waitRun{n: w.n - 1, last: w.last}
		} else {
			delete(s.waiting, dm.Meta.Sender)
		}
	}
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:]) // release the resolved arrivals' payloads
	s.pending = s.pending[:rest]
}

// purgeToDeliver purges the delivery-queue entries obsoleted by it and
// releases flow-control credits for them: their buffer slots are free
// again (this is the heart of SVS's advantage — a slow receiver's window
// refills without consuming). The queue lends each casualty to the visit
// on its way out, so nothing is copied. from is the record of it's sender
// (nil: our own message), which is the sender of everything it purges:
// the queue only relates messages of one sender.
func (s *viewState) purgeToDeliver(it queue.Item, from *peer) {
	s.toDeliver.PurgeFor(it, func(p *queue.Item) {
		switch {
		case !s.inView(p):
		case p.Meta.Sender == s.self:
			s.unstage(p.Meta.Seq)
		default:
			s.freeSlot(from, p.Meta.Seq)
		}
	})
}

// freeSlot gives sender from back the window slot its current-view message
// seq held until it was delivered or purged — unless the message was adopted
// from our join transfer rather than received through the sender's
// flow-controlled channel: that one held no slot, so no credit may be
// granted for it (a duplicate arriving on the channel is credited
// separately). Our own record, like any non-member's, has no window to give
// slots back to.
func (s *viewState) freeSlot(from *peer, seq ident.Seq) {
	if from != nil && seq > from.seeded {
		s.grant(from, from.freed())
	}
}

// ---- t1: deliver ---------------------------------------------------------

// endTurn ends every turn of the owner's loop: it drops the calls whose
// callers gave up, hands the delivery queue to the waiting Deliver and
// DeliverBatch calls, then lets the pending arrivals and parked multicasts
// into the room that made (and into whatever else the turn changed — a
// view, a terminal state). Serving once a turn is what makes a batch one
// transaction: every message of a MulticastBatch or a DataBatchMsg has
// purged its predecessors before a waiter is woken, and the waiter gets the
// survivors in one reply. What the retries append goes to a waiter the
// queue could not feed before. Last it refreshes the gauges in s.stats, so
// the counters describe the value as the turn left it.
func (s *viewState) endTurn() {
	for {
		s.serveWaiters()
		s.retryPending()
		s.retryParked()
		if len(s.deliverWaiters) == 0 || s.toDeliver.Len() == 0 {
			break
		}
	}
	st := &s.stats
	st.View, st.Epoch, st.Members = s.cv.ID, s.cv.Epoch, len(s.cv.Members)
	st.ToDeliverLen, st.HistoryLen = s.toDeliver.Len(), s.delivered.Len()
	st.Parked, st.LastSent, st.Blocked = len(s.multicastQ), s.own.recvMax, s.chg != nil
	q := s.toDeliver.Stats()
	st.PurgedToDeliver, st.ToDeliverMax = q.Purged, max(st.ToDeliverMax, q.MaxLen)
}

// serveIfFull serves deliveries in mid-turn, which only a full delivery
// queue with a reader waiting warrants: the reader can make the room the
// rest of the batch needs.
func (s *viewState) serveIfFull() {
	if s.toDeliver.Full() && len(s.deliverWaiters) > 0 {
		s.serveWaiters()
	}
}

// serveWaiters hands queue heads to waiting Deliver and DeliverBatch calls.
// A waiter takes as many heads as its buffer holds in one wake-up
// (Deliver's holds one); it never completes empty — it waits for the first
// item, or for the terminal error that says none will come. Waiters whose
// callers gave up are dropped first.
func (s *viewState) serveWaiters() {
	s.deliverWaiters = dropCancelled(s.deliverWaiters)
	var from *peer // sender of the last head: the queue comes in runs of one
	served := 0
	for _, w := range s.deliverWaiters {
		n := 0
		for n < len(w.dst) {
			it := s.toDeliver.PeekHead()
			if it == nil {
				break
			}
			w.dst[n], from = s.deliverItem(it, from)
			s.toDeliver.PopHead()
			n++
		}
		res := result{n: n}
		if n == 0 {
			if res.err = s.terminal; res.err == nil {
				break
			}
		}
		served++
		s.reply(w, res)
	}
	s.deliverWaiters = slices.Delete(s.deliverWaiters, 0, served)
}

// deliverItem turns the queue head into what the application sees, before
// the caller pops it. last is the record the previous call resolved; the
// record of it's sender comes back for the next one.
func (s *viewState) deliverItem(it *queue.Item, last *peer) (Delivery, *peer) {
	switch it.Kind {
	case queue.Control:
		v := it.Ctl.(View)
		kind := DeliverView
		if !v.Includes(s.self) {
			kind = DeliverExpelled
		}
		return Delivery{Kind: kind, View: v.ID, Epoch: v.Epoch, NewView: v}, last
	default:
		s.stats.Delivered++
		if !it.At.IsZero() {
			s.m.deliverLatency.ObserveDuration(s.clock.Since(it.At))
		}
		if s.inView(it) {
			// Keep it in the per-view history for pred sets; purge the
			// history with the same relation so it holds live items only.
			_, _ = s.delivered.AppendPurge(*it) // unbounded: never full
			last = s.peerOf(it.Meta.Sender, last)
			s.freeSlot(last, it.Meta.Seq)
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

// retryParked drops the parked multicasts whose callers gave up, a
// joiner's too, and re-attempts the rest in FIFO order once there is a
// view. The head stays in place until its whole batch commits, so a
// half-committed transaction resumes exactly where it stopped.
func (s *viewState) retryParked() {
	s.multicastQ = dropCancelled(s.multicastQ)
	if s.joining {
		return
	}
	done := 0
	for _, req := range s.multicastQ {
		if !s.advance(req) {
			break // progress is recorded in req.done; the head stays parked
		}
		done++
	}
	s.multicastQ = slices.Delete(s.multicastQ, 0, done)
}
