package core

// viewchange.go is Figure 1's view change, t4–t7, as one transition
// function over the group's state: step(state, event) → []install. An INIT
// blocks the group (t5), every member gathers the others' pred sets (t6),
// and consensus decides the next view and its flush, which each member
// installs (t7). Every change runs on these two messages. An INIT over one
// side changes the current view; an INIT over two sides is a merge
// (merge.go), the same change over the union of two healed sub-views; a
// split (merge.go) is another successor of an ordinary change. The change
// in flight is one record with one ledger of PredMsg contributions, one
// quorum rule decides when to propose (checkPropose), every proposal
// repurges its flush once, the decided value is a StateMsg entering through
// one door (onDecision), and every view is entered one way (enter), which
// step finishes by replaying the control traffic stashed for the view.
//
// The state is the whole group member but its loop: the view change, its
// consensus machine, the data plane of t1–t3 (protocol.go) and the
// application's calls on it, so blocking closes the data plane and parks
// the callers, and installing adopts the flush and lets them in, in the
// same step. Every input of the member is a step event: a call or the stop,
// a data batch, a control or consensus envelope, a suspicion, a tick. Every
// send leaves through the outlet the state's owner supplies (the engine's
// endpoint), the machine's straight through the endpoint it was given.
// step reaches no engine, detector, channel or timer: the time and the
// detector's verdicts come in with each event, step proposes to the
// machine, asks it for decisions and hands it every consensus message and
// suspicion itself, and it enters a view whole: it replays the stash and
// serves the parked admissions itself, and reports the views it entered
// (install) only for its observers to check. Whom the group needs
// monitored is read off the state (watching), not told. Protocol time is a
// step too: the state records when its stability gossip, heal probe, merge
// timeout, join retransmission and join give-up are next due, wake reports
// the earliest, and a tick event runs whatever is due. Nothing here starts
// a goroutine.
// Because the state is a value its owner can copy, the explorer
// (explore_test.go) runs this same code, data plane and calls included,
// through every interleaving of a small group, with its consensus oracle
// in the machine's place.

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// viewState is one group member as a value: who it is and how its group is
// configured, the current view, the change in flight, the control traffic
// stashed for a later view, the admission requests parked until no change
// is in flight, whether it is still joining or already at its end, when its
// timed duties are due, its counters, the data plane and the application's
// calls on it. step and the data plane's methods update it in place; a
// caller that steps one state twice (the explorer) copies it first, every
// queue, record and ledger it points to included.
type viewState struct {
	self ident.PID
	cfg  *config

	cv       View
	chg      *change              // the change in flight (t5 to t7); nil while open
	stash    []transport.Envelope // control traffic for a view not yet installed
	joins    ident.PIDs           // admission requests parked while not open
	former   ident.PIDs           // with Heal: who we once shared a view with and no longer do
	joining  bool                 // the join handshake runs (join.go)
	terminal error                // ErrExpelled, ErrJoinTimeout or ErrStopped: no further progress

	// Protocol time (onTick): when the stability gossip, the heal probe and
	// the join request are next due, zero until the first tick arms them;
	// when the join handshake began and when it gives up (zero: never), and
	// how many requests it sent.
	gossipAt, probeAt, retryAt time.Time
	joinStart, giveUpAt        time.Time
	retries                    int

	// stats are the engine's counters, one record, bumped where they
	// happen.
	stats Stats

	// The data plane (protocol.go). delivered is the current view's
	// delivery history, for pred sets.
	toDeliver *queue.Queue
	delivered *queue.Queue

	// peers is the one table of per-process state, a record for every PID
	// ever heard of; others lists the records of the current view's other
	// members in cv.Members order, rebuilt by armPeers (flow.go). own is
	// our own record, whose recvMax is the frontier of our own stream: the
	// last sequence number we committed or adopted.
	peers  map[ident.PID]*peer
	others []*peer
	own    *peer

	// pending is the data arrivals this process could not take yet, in the
	// order they came, unprocessed: the delivery queue was full, earlier
	// ones waited, or it was not open. The credits granted their senders
	// bound it (admit); waiting is what of each sender it holds.
	pending []DataMsg
	waiting map[ident.PID]waitRun

	// stage is the open multicast transaction's run (commitOne): every
	// message it committed, in order, so it ends at our frontier. Each
	// peer took credit for a prefix of it (link.took); flushStage hands
	// every peer the survivors of its prefix and empties it.
	stage []DataMsg

	// runs and envs are the unused tails of the blocks flushStage cuts the
	// runs it sends, and their envelopes, from (carve). A run is the
	// transport's from the send on and is never written again, so a block
	// only saves allocations: one serves runBlock flushes.
	runs []DataMsg
	envs []DataBatchMsg

	// The application's calls (protocol.go): the multicasts parked by flow
	// control, a change or a join, in FIFO order; the Deliver calls waiting
	// for the queue; and the calls this turn answered, which the owner
	// releases once the turn is over (published.publish).
	multicastQ     []*request
	deliverWaiters []*request
	replies        []*request

	// What the owner supplies: the outlet, the consensus machine, and the
	// clock, histograms and event log (each nil-safe; the clock is read
	// only for a histogram).
	out   outlet
	cons  machine
	clock obs.Clock
	m     *engMetrics
	ev    *obs.Events
}

// outlet is the owner's side of a viewState: the one way out for every
// message the group sends, in transport.Endpoint's own shape. The engine's
// endpoint is one, the explorer's world another (its links).
type outlet interface {
	Send(to ident.PID, g ident.GroupID, ch transport.Channel, msg any) error
}

// machine is the group's consensus as step drives it: the methods of
// consensus.Machine, which is one; the explorer's oracle is another. Each
// call returns the instances that decided during it.
type machine interface {
	Propose(id string, participants ident.PIDs, value []byte) ([]consensus.Decision, error)
	Decided(id string) ([]byte, bool)
	Receive(from ident.PID, m consensus.Msg) []consensus.Decision
	Recheck() []consensus.Decision
}

// newViewState is the state of cfg.Self in view cv: an empty data plane,
// every link armed. Its sends leave through out; its owner supplies the
// consensus machine (cons).
func newViewState(cfg *config, cv View, out outlet) viewState {
	s := viewState{
		self: cfg.Self, cfg: cfg, cv: cv, joining: cfg.Join != nil,
		toDeliver: queue.New(cfg.Relation, cfg.ToDeliverCap),
		delivered: queue.New(cfg.Relation, 0),
		peers:     make(map[ident.PID]*peer),
		out:       out, clock: cfg.Obs.Clock(), m: newEngMetrics(cfg.Obs), ev: cfg.Obs.Events(),
	}
	s.armPeers()
	return s
}

// change is the view change in flight: opened by block (t5), ended by
// enter or an aborted merge. A change over two sides is a merge (merge.go);
// every change gathers its contributions into the same ledger. A change may
// await several successors at once (the one it was opened for, a shrinking
// series of split continuations): the first to decide installs.
type change struct {
	start time.Time // when the group blocked (viewChange histogram)

	// next is the successor the change was opened for — the current view's
	// next, or a merge's union — which every contribution names and the
	// proposal decides. audience is who takes part: the view's members, or
	// the union; every INIT and PRED of the change goes to it.
	next     ident.ViewRef
	audience ident.PIDs
	awaited  map[string]bool // consensus instances of the successors awaited
	proposed bool            // next is proposed

	// The ledger (t6): the memberships the quorum is taken over — the view,
	// or a merge's two sub-views — the pred sets gathered so far keyed by
	// message, who contributed them, the frontiers they carried (a merge
	// contribution's), max-folded, and the members that declined.
	sides    []ident.PIDs
	pred     map[obsolete.MsgID]DataMsg
	from     ident.PIDs
	recv     map[ident.PID]ident.Seq
	declined ident.PIDs

	join, leave ident.PIDs // an ordinary change's membership requests

	bytesIn uint64 // a merge's contributions' encoded size, each member's first
}

// merge reports whether c, possibly nil, is a merge: a change over two sides.
func (c *change) merge() bool { return c != nil && len(c.sides) == 2 }

// mayInclude reports whether id may be a member of the view c, possibly
// nil, ends in: one of its audience or a joiner it admits.
func (c *change) mayInclude(id ident.PID) bool {
	return c != nil && (c.audience.Contains(id) || c.join.Contains(id))
}

// open reports whether this process is a member with no change in flight:
// not joining, not changing views, not at its end.
func (s *viewState) open() bool { return !s.joining && s.chg == nil && s.terminal == nil }

// watching is whom the group needs the failure detector to monitor: nobody
// once it is at its end, the contacts while it joins, the union while a
// merge runs — the quorum rule needs suspicion to develop for far-side
// members that died — and the view otherwise. It is read, never copied,
// so a turn that did not change it costs one comparison (publish).
func (s *viewState) watching() ident.PIDs {
	switch {
	case s.terminal != nil:
		return nil
	case s.joining:
		return s.cfg.Join.Contacts
	case s.chg.merge():
		return s.chg.audience
	}
	return s.cv.Members
}

// An event is what happened to the group member: from sent msg, or the data
// inbox handed over the batch data, at now, with detector the failure
// detector's verdicts at that moment. msg is a control envelope's message
// received (an InitMsg, PredMsg, SplitMsg, ProbeMsg, JoinReqMsg, StateMsg,
// CreditMsg, StableMsg or consensus.Msg, whose rounds share the Ctl inbox,
// or one of no known kind), an application's call or the stop (a *request:
// a multicast, t2; a Deliver, t1; a membership change, t4; the end), an
// fd.Event (a suspicion) or a tick. An event without msg is a
// data arrival (t3): its batch travels typed, not boxed, so stepping it
// allocates nothing.
type event struct {
	from     ident.PID
	msg      any
	data     []transport.Envelope
	now      time.Time
	detector suspector
}

// suspector is the failure detector as step reads it: fd.Detector is one.
type suspector interface{ Suspected(ident.PID) bool }

// tick is protocol time passing: every timed duty due by now runs.
type tick struct{}

// install is the record of a view step entered: the view, what it was
// entered on (the flush st that chg decided, the state transfer st from a
// member that admits this joiner, or neither for a view a probe proved),
// and the control traffic stashed for it, which step replays. Nothing acts
// on it but step; its observers (the explorer) check it.
type install struct {
	view   View
	st     StateMsg
	chg    *change
	from   ident.PID
	replay []transport.Envelope
}

// maxDeferredCtl bounds the stash of control messages that arrive for a
// future view and are replayed after the next install. A full stash keeps
// what it has and drops the arriving message (counted by
// engine_dropped_total{reason=defer_overflow}): the earliest stashed INIT
// is the one whose replay unblocks the peer that sent it.
const maxDeferredCtl = 4096

// turn is one step in progress: the state being stepped, the event, the
// decisions the consensus machine returned so far, and the views its
// handler and decisions entered.
type turn struct {
	*viewState
	event
	decided []consensus.Decision
	fx      []install
}

// step is the group member's transition function: it steps s with ev and
// returns the views it entered, in order. What the consensus machine
// decides during the handler enters through onDecision after it, in the
// order decided, so a decision installs in the turn that produced it.
// Then step finishes entering each view (t7's second half): it steps the
// control traffic stashed for the view, each envelope at ev's time and
// with ev's detector and depth first — the views a replayed envelope
// enters are finished before the next envelope —, and then serves the
// admission requests parked while no view was open.
func step(s *viewState, ev event) []install {
	t := &turn{viewState: s, event: ev}
	switch m := ev.msg.(type) {
	case nil: // a data arrival: the batch is ev.data
		t.onDataBatch(ev.data)
	case *request:
		t.onRequest(m)
	case consensus.Msg:
		// A control envelope, taken in the order the Ctl inbox yields it
		// among the protocol's own. Consensus runs in every state —
		// joining, blocked, at its end: an instance outlives the change
		// that proposed to it, and the other participants may still need
		// our estimate and ACK.
		t.learn(t.cons.Receive(ev.from, m)...)
	case fd.Event:
		t.onSuspicion(m)
	case tick:
		t.onTick()
	default:
		t.onCtl(ev.from, ev.msg)
	}
	for _, d := range t.decided {
		t.onDecision(d)
	}
	fx := t.fx
	for _, f := range t.fx {
		for _, env := range f.replay {
			fx = append(fx, step(s, event{from: env.From, msg: env.Msg, now: ev.now, detector: ev.detector})...)
		}
		t.serveJoins()
	}
	return fx
}

// learn keeps what a call of the consensus machine decided for the end of
// the turn.
func (t *turn) learn(ds ...consensus.Decision) { t.decided = append(t.decided, ds...) }

// onTick runs every timed duty due by now and re-arms it. The owner steps
// one tick as it starts, which arms the duties and sends a joiner's first
// request, and one at every wake after.
func (t *turn) onTick() {
	if t.joining {
		t.onJoinTick()
	}
	if due(&t.gossipAt, t.now, t.cfg.StabilityInterval) {
		t.gossipStability()
	}
	if t.cfg.Heal {
		t.onProbeTick()
	}
}

// due reports whether a duty of period every, next due at *at, has come by
// now, and re-arms it: a duty not yet armed one period from now, one that
// has come at the first point of its grid past now. A duty of period zero
// is off.
func due(at *time.Time, now time.Time, every time.Duration) bool {
	switch {
	case every <= 0:
		return false
	case at.IsZero():
		*at = now.Add(every)
		return false
	case now.Before(*at):
		return false
	}
	*at = at.Add(every * (now.Sub(*at)/every + 1))
	return true
}

// wake is when s next needs a tick: its earliest timed duty or deadline,
// zero for none.
func (s *viewState) wake() time.Time {
	w := earliest(s.gossipAt, s.probeAt)
	if s.joining {
		w = earliest(earliest(w, s.retryAt), s.giveUpAt)
	}
	if c := s.chg; c.merge() {
		w = earliest(w, c.start.Add(mergeTimeout))
	}
	return w
}

// earliest is the earlier of a and b, where zero means never.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// drop counts in n a message from discarded for reason, and logs it with
// attrs.
func (s *viewState) drop(n *uint64, reason obs.DropReason, from ident.PID, attrs ...slog.Attr) {
	*n++
	s.ev.Drop(reason, append([]slog.Attr{slog.String("from", string(from))}, attrs...)...)
}

// sendAll sends msg on the control channel to each of to.
func (s *viewState) sendAll(to ident.PIDs, msg any) {
	for _, p := range to {
		s.send(p, transport.Ctl, msg)
	}
}

// send is the group's best-effort transmit through the owner's outlet: in
// the crash-stop model a failed send is the peer's problem (the detector
// will notice a dead one), but the failure is counted and logged instead of
// vanishing into `_ =`.
func (s *viewState) send(to ident.PID, ch transport.Channel, msg any) {
	if err := s.out.Send(to, s.cfg.Group, ch, msg); err != nil {
		s.stats.SendErrors++
		s.ev.SendError(string(to), err)
	}
}

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

// ---- t4: trigger view change ---------------------------------------------

// trigger announces a change of the current view to its members. While a
// change is in flight it does nothing: joiners it does not admit re-request
// admission and are picked up by the next change. Joining or at its end,
// there is no view to change.
func (t *turn) trigger(join, leave ident.PIDs) {
	if !t.open() {
		return
	}
	t.sendAll(t.cv.Members, InitMsg{View: View{Epoch: t.cv.Epoch, ID: t.cv.ID}, Leave: leave, Join: join})
}

// onSuspicion reacts to failure detector events: they re-evaluate the
// propose condition and, with AutoEvict, trigger eviction view changes, and
// the consensus instances waiting on a suspected coordinator move on.
func (t *turn) onSuspicion(ev fd.Event) {
	if ev.Suspected && t.cfg.AutoEvict && t.cv.Includes(ev.P) {
		t.trigger(nil, ident.NewPIDs(ev.P))
	}
	t.checkPropose()
	t.learn(t.cons.Recheck()...)
}

// ---- t5/t6: ctl handling ---------------------------------------------------

// onCtl takes a control envelope: flow-control credits and stability
// gossip go to the data plane, everything else to the view change. At its
// end a process takes none of them.
func (t *turn) onCtl(from ident.PID, msg any) {
	if t.terminal != nil {
		// An expelled-but-alive process still answers a merge's INIT with a
		// decline, so a union that names it can proceed without waiting for
		// suspicion to develop.
		if m, ok := msg.(InitMsg); ok && m.Far != nil && t.cfg.Heal {
			t.declineMerge(m)
			return
		}
		t.stats.DroppedExpelled++
		return
	}
	switch m := msg.(type) {
	case CreditMsg:
		t.onCredit(from, m)
	case StableMsg:
		t.onStable(from, m)
	case InitMsg:
		// A merge names another lineage's view as well as ours; it is never
		// deferred.
		if m.Far == nil && t.deferFuture(msg, m.Ref()) {
			return
		}
		t.onInit(from, m)
	case PredMsg:
		// A contribution to a change we have not opened yet waits if it
		// changes a later view of ours: its sender is past an install we
		// have still to make.
		if c := t.chg; (c == nil || m.Change != c.next) &&
			t.deferFuture(msg, ident.ViewRef{Epoch: m.Change.Epoch, ID: m.Change.ID - 1}) {
			return
		}
		t.onPred(from, m)
	case JoinReqMsg:
		t.onJoinReq(from)
	case StateMsg:
		t.onJoinState(from, m)
	case ProbeMsg:
		t.onProbe(from, m)
	case SplitMsg:
		t.onSplit(from, m)
	default:
		// A control envelope of no known kind fell through every case —
		// before, it vanished without a trace.
		t.drop(&t.stats.DroppedUnknownCtl, obs.DropUnknownCtl, from)
	}
}

// deferFuture stashes a control message for the view this process installs
// next. A peer that already installed view v may initiate the change to
// v+1 before we finish installing v ourselves; dropping its INIT would
// strand it blocked (it cannot retransmit — it blocked itself at t5). The
// decide flood guarantees we install v shortly, at which point the stashed
// messages are replayed. No member is two installs ahead of us, so a
// member of our lineage naming a view past the next is garbage from a
// broken peer and dropped as stale; the stash is bounded by maxDeferredCtl
// as a backstop, and drops past it are counted in Stats.CtlDeferredDropped.
//
// Cross-lineage traffic is deferred only while an epoch-changing install
// may be in flight (blocked on a merge decision, or joining — the state
// transfer may land us in a split epoch, and a joiner has no view to count
// from); then the replay after the install re-evaluates it under the new
// epoch. Otherwise a ref from another epoch is not "our future" — it is
// another partition's view-change chatter, which the merge protocol
// handles through its own messages — and is dropped as stale rather than
// stashed against an install that may never come.
func (t *turn) deferFuture(msg any, ref ident.ViewRef) bool {
	same := ref.Epoch == t.cv.Epoch
	if same && ref.ID <= t.cv.ID {
		return false
	}
	if same && !t.joining && ref.ID > t.cv.ID+1 || !same && t.open() {
		t.drop(&t.stats.DroppedStale, obs.DropStaleView, t.from, slog.String("view", ref.String()))
		return true
	}
	if len(t.stash) < maxDeferredCtl {
		t.stash = append(t.stash, transport.Envelope{From: t.from, Msg: msg})
	} else {
		t.drop(&t.stats.CtlDeferredDropped, obs.DropDeferOverflow, t.from, slog.Uint64("view", uint64(ref.ID)))
	}
	return true
}

// onInit is transition t5 of every change: block the group, open the
// change's ledger, forward the INIT so every correct process blocks even if
// the initiator crashed mid-dissemination, close the data plane and
// contribute our pred set. An INIT over one side changes the current view,
// adopting its leave and join sets; one over two sides merges the current
// view with the far sub-view (openMerge, merge.go). A change opens with an
// empty ledger, so the quorum rule has nothing to test until the first
// PRED.
func (t *turn) onInit(from ident.PID, m InitMsg) {
	if m.Far == nil && t.chg.merge() && m.Ref() == t.cv.Ref() && t.cv.Includes(from) {
		// A member started an ordinary change while we were merging. The
		// change's quorum is reachable (the INIT got here) but its members
		// will not answer a merge mid-change — so yield: abort the merge
		// and join the change. The far side's probes retry the merge once
		// the change completes.
		t.abortMerge("view_change")
	}
	if !t.open() {
		// Joining, at our end, or changing already — this INIT is the flood
		// echo, or another change's, whose install or abort comes first (a
		// merge's far side times out and re-probes).
		return
	}
	var c *change
	if m.Far == nil {
		if m.Ref() != t.cv.Ref() || !t.cv.Includes(from) {
			return
		}
		c = t.block(ident.ViewRef{Epoch: t.cv.Epoch, ID: t.cv.ID + 1}, t.cv.Members, t.cv.Members)
		c.leave = ident.NewPIDs(m.Leave...).Intersect(t.cv.Members)
		// Current members need no admission and a process asked to leave is
		// not admitted by the same change.
		c.join = ident.NewPIDs(m.Join...).Without(t.cv.Members).Without(c.leave)
	} else if c = t.openMerge(m); c == nil {
		return
	}
	if from != t.self {
		t.sendAll(c.audience.Remove(t.self), m)
	}
	// The data plane closes: arrivals wait (pending) until the change ends.
	// Our PRED goes to ourselves too: loopback keeps one code path. Watch
	// for the decision even if we never reach the propose condition
	// ourselves — the decide flood must still install the view here.
	t.sendAll(c.audience, t.contribution(c))
	t.await(c.next)
}

// block opens the record of a change (t5): the successor it was opened
// for, who takes part, and the sides its quorum is taken over.
func (t *turn) block(next ident.ViewRef, audience ident.PIDs, sides ...ident.PIDs) *change {
	t.chg = &change{
		start: t.now, next: next, audience: audience,
		awaited: make(map[string]bool), sides: sides,
		pred: make(map[obsolete.MsgID]DataMsg), recv: make(map[ident.PID]ident.Seq),
	}
	return t.chg
}

// onPred is transition t6 of every change: enter one member's contribution
// to the change in flight — its pred set and, for a merge, its frontiers —
// into the ledger, or count the member out if it declines, and re-test the
// quorum.
func (t *turn) onPred(from ident.PID, m PredMsg) {
	c := t.chg
	if c == nil || m.Change != c.next || !c.audience.Contains(from) {
		return // not changing, another change, or an outsider
	}
	if m.Decline {
		c.declined = c.declined.Add(from)
		t.checkPropose()
		return
	}
	if c.merge() && !c.from.Contains(from) {
		size := uint64(wireSize(m))
		c.bytesIn += size
		t.stats.MergeBytesRecv += size
	}
	for _, dm := range m.Msgs {
		c.pred[dm.Meta.ID()] = dm
	}
	for s, q := range m.Recv {
		c.recv[s] = max(c.recv[s], q)
	}
	c.from = c.from.Add(from)
	t.checkPropose()
}

// ---- t7: propose and install ----------------------------------------------

// checkPropose is the one quorum rule of every change: on each side, every
// member that has not declined has contributed or is suspected, and the
// contributors are more than half of the side. The first half is the SVS
// obligation — a proposal may omit only a member it excludes from the next
// view, which never installs it and so never forms a delivery-coverage pair
// with those who do; the second keeps a view from being decided by a
// minority. Without a majority an ordinary change can never decide, and
// with healing enabled the reachable minority continues under a split
// epoch instead of wedging (checkSplit, merge.go); a merge waits. With one,
// the change proposes as its successor the contributors less the leavers
// plus the joiners (a merge has neither) — joiners have no pred set to
// contribute and take no part in the consensus deciding the view that
// admits them.
func (t *turn) checkPropose() {
	c := t.chg
	if c == nil || c.proposed {
		return
	}
	for _, side := range c.sides {
		eligible := side.Without(c.declined)
		contributed := 0
		for _, p := range eligible {
			if c.from.Contains(p) {
				contributed++
			} else if !t.detector.Suspected(p) {
				return // still waiting on a live member
			}
		}
		if 2*contributed <= len(eligible) {
			if !c.merge() {
				t.checkSplit()
			}
			return
		}
	}
	c.proposed = true
	next := View{Epoch: c.next.Epoch, ID: c.next.ID, Members: c.from.Without(c.leave).Union(c.join)}
	t.propose(t.proposal(next), c.audience)
}

// proposal is the value a change proposes for next: the view, every pred
// set gathered, deduplicated (the ledger's key), deterministically ordered
// and repurged once so covers across contributions collapse, and the
// gathered frontiers. Contributions travel unrepurged because only here is
// every one of them seen: had a contributor collapsed a:6 ⊑ a:7 ⊑ a:8 to
// a:8, another member's a:6 would meet a:8 here without the a:7 that links
// them, and under KEnumeration a:8 lists only the last K numbers.
func (t *turn) proposal(next View) StateMsg {
	return StateMsg{View: next.Clone(), Recv: t.chg.recv, Backlog: repurge(t.cfg.Relation, sortedPred(t.chg.pred))}
}

// propose offers val to the consensus instance of the view it names, among
// participants, after awaiting that instance. The outcome — ours or a
// competitor's — enters through onDecision like every other. The instance
// outlives the change, so a change given up here leaves it live for the
// other participants.
func (t *turn) propose(val StateMsg, participants ident.PIDs) {
	t.await(val.Ref())
	// Neither call can fail: StateMsg is a registered type, and we are one
	// of the participants.
	raw, _ := codec.Marshal(nil, val)
	ds, _ := t.cons.Propose(viewInstance(val.Ref()), participants, raw)
	t.learn(ds...)
}

// await makes the change in flight await the consensus instance of
// successor ref: onDecision installs whichever awaited instance decides
// first. An instance decided already is answered at once.
func (t *turn) await(ref ident.ViewRef) {
	if id := viewInstance(ref); !t.chg.awaited[id] {
		t.chg.awaited[id] = true
		if v, ok := t.cons.Decided(id); ok {
			t.learn(consensus.Decision{Instance: id, Value: v})
		}
	}
}

// decodeState decodes a decided value: a StateMsg. Bytes that do not
// decode, or decode to another type, are a failed decision.
func decodeState(raw []byte) (StateMsg, error) {
	v, err := codec.UnmarshalBytes(raw)
	if err != nil {
		return StateMsg{}, fmt.Errorf("core: decode decided value: %w", err)
	}
	st, ok := v.(StateMsg)
	if !ok {
		return StateMsg{}, fmt.Errorf("core: decided value is a %T, not a StateMsg", v)
	}
	return st, nil
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

// onDecision installs the agreed view (the tail of t7) — but only a
// decision the change in flight awaits. With concurrent proposals
// (ordinary successor, split continuations, a merge union) more than one
// instance can decide; the first awaited one wins and every other outcome
// is counted instead of silently dropped.
func (t *turn) onDecision(d consensus.Decision) {
	c := t.chg
	if c == nil || !c.awaited[d.Instance] {
		// Accounted, not installed: a decision that lost a
		// concurrent-proposal race, or one that landed after its change
		// ended.
		n, why := &t.stats.IgnoredWrongView, ignoreWrongView
		if c == nil {
			n, why = &t.stats.IgnoredNotBlocked, ignoreNotBlocked
		}
		*n++
		t.ev.DecisionIgnored(d.Instance, why)
		return
	}
	st, err := decodeState(d.Value)
	if err != nil {
		// A value that does not decode is counted and logged: the group
		// stays blocked until another decision reaches it, and an operator
		// should see why. Every successor a change awaits is numbered
		// next.ID.
		t.stats.DecisionFailures++
		t.ev.DecisionFailed(uint64(c.next.ID), err)
		return
	}
	t.enter(st.View, install{st: st, chg: c})
}

// enter makes next the current view, whether a decision installed it, a
// state transfer did, or a probe proved it: the change in flight ends, a
// view that excludes this process expels it, the data plane adopts what f
// carries and puts the view marker behind it, everything scoped to one view
// starts afresh, and the parked multicasts get their turn — before the
// stash replays, so the view they were parked for is the one they are sent
// in. The view goes on the turn's record (install), with the stash, for
// step to replay.
func (t *turn) enter(next View, f install) {
	prev := t.cv
	t.chg = nil
	if !next.Includes(t.self) {
		t.terminal = ErrExpelled // retryParked fails what is parked
		t.ev.Expelled(uint64(next.ID))
	}
	if t.cfg.Heal {
		// Only someone we once shared a view with can be the far side of a
		// healed partition (onProbeTick).
		t.former = t.former.Union(t.cv.Members).Without(next.Members).Remove(t.self)
	}
	t.cv = next
	switch {
	case f.chg != nil:
		t.installFlush(f.chg, f.st, prev)
	case f.from != "":
		t.adoptTransfer(f.from, f.st)
	}
	t.stats.ViewsInstalled++
	t.toDeliver.ForceAppend(queue.Item{
		Kind: queue.Control, View: uint64(next.ID), Epoch: uint64(next.Epoch), Ctl: next.Clone(),
	})
	t.delivered = queue.New(t.cfg.Relation, 0)
	t.armPeers()
	t.retryParked()
	f.view, f.replay, t.stash = next, t.stash, nil
	t.fx = append(t.fx, f)
}

// installFlush adopts the flush st that change c decided as prev closes:
// the data-plane half of t7, ahead of the view marker. For a merge the
// flush carries both sides' backlogs, so this is what delivers the other
// partition's relation-surviving messages before the union-view marker, and
// st.Recv (empty otherwise) the combined frontiers.
func (t *turn) installFlush(c *change, st StateMsg, prev View) {
	next := t.cv
	blockedFor := t.now.Sub(c.start)
	t.stats.LastFlushLen = len(st.Backlog)
	t.m.viewChange.ObserveDuration(blockedFor)
	t.ev.ViewInstall(uint64(next.ID), len(next.Members), len(st.Backlog), blockedFor)
	t.ev.MemberChange(uint64(next.ID), pidStrings(next.Members.Without(prev.Members)), pidStrings(prev.Members.Without(next.Members)))
	t.stats.FlushAdded += uint64(t.adopt(st.Backlog, st.Recv))
	if c.merge() {
		// The "newcomers" are the other side, which already holds its own
		// state — no sponsor transfer. The merge began when the group
		// blocked.
		t.stats.Merges++
		t.m.mergeDur.ObserveDuration(blockedFor)
		t.m.mergeBytes.Observe(float64(c.bytesIn))
		t.ev.MergeComplete(next.Ref().String(), len(next.Members), len(st.Backlog), int(c.bytesIn), blockedFor)
	} else if inc := prev.Members.Intersect(next.Members); len(inc) > 0 && inc[0] == t.self {
		// Dynamic membership: the sponsor — the lowest-ordered member
		// surviving from the closing view — ships the newcomers admitted
		// by this view a semantic state transfer. Every incumbent computes
		// the same sponsor, so exactly one transfer is sent per join unless
		// the sponsor crashes, in which case the joiner's retransmitted
		// request reaches serveJoins at another member. This reads the
		// closing view's history, before enter starts a new one.
		t.sendState(next, next.Members.Without(prev.Members))
	}
}
