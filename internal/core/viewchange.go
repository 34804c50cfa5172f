package core

// viewchange.go is Figure 1's view change, t4–t7: an INIT blocks the group
// (t5), every member gathers the others' pred sets (t6), and consensus
// decides the next view and its flush, which each member installs (t7).
// Every change runs on these two messages. An INIT over one side changes
// the current view; an INIT over two sides is a merge (merge.go), the same
// change over the union of two healed sub-views; a split (merge.go) is
// another successor of an ordinary change. The change in flight is one
// record with one ledger of PredMsg contributions, one quorum rule decides
// when to propose (checkPropose), every proposal repurges its flush once,
// the decided value is a StateMsg entering the loop through one door
// (onDecision), and every view is entered one way (enterView). Consensus is
// a message handler of this loop like INIT and PRED: the engine's machine
// (Engine.cons) runs each instance, and nothing here starts a goroutine.

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

// change is the view change in flight: set by block (t5), cleared by
// endChange alone — at an install, a probe-proven expulsion (both through
// enterView) or an aborted merge. A change over two sides is a merge
// (merge.go); every change gathers its contributions into the same ledger.
// A change may await several successors at once (the one it was opened for,
// a shrinking series of split continuations): the first to decide installs.
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

	deadline time.Time // a merge's abort timeout (HealSpec.MergeTimeout)
	bytesIn  uint64    // a merge's contributions' encoded size, each member's first
}

// merge reports whether c, possibly nil, is a merge: a change over two sides.
func (c *change) merge() bool { return c != nil && len(c.sides) == 2 }

// maxDeferredCtl bounds the stash of control messages that arrive for a
// future view and are replayed after the next install. A full stash keeps
// what it has and drops the arriving message (counted by
// engine_dropped_total{reason=defer_overflow}): the earliest stashed INIT
// is the one whose replay unblocks the peer that sent it.
const maxDeferredCtl = 4096

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

func (e *Engine) triggerViewChange(join, leave ident.PIDs) error {
	if err := e.terminalErr(); err != nil {
		return err
	}
	if e.joiner != nil {
		return ErrJoining
	}
	if e.chg != nil {
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
// propose condition, let consensus instances waiting on a suspected
// coordinator move on and, with AutoEvict, trigger eviction view changes.
func (e *Engine) onSuspicion(ev fd.Event) {
	if ev.Suspected && e.cfg.AutoEvict && e.open() && e.cv.Includes(ev.P) {
		_ = e.triggerViewChange(nil, ident.NewPIDs(ev.P))
	}
	e.checkPropose()
	e.onDecisions(e.cons.Recheck())
}

// ---- t5/t6: ctl handling ---------------------------------------------------

func (e *Engine) onCtl(env transport.Envelope) {
	if e.terminalErr() != nil {
		// An expelled-but-alive process still answers a merge's INIT with a
		// decline, so a union that names it can proceed without waiting for
		// suspicion to develop.
		if m, ok := env.Msg.(InitMsg); ok && m.Far != nil && e.cfg.Heal != nil {
			e.declineMerge(m)
			return
		}
		e.stats.DroppedExpelled++
		return
	}
	switch m := env.Msg.(type) {
	case InitMsg:
		// A merge names another lineage's view as well as ours; it is never
		// deferred.
		if m.Far == nil && e.deferFuture(env, m.Ref()) {
			return
		}
		e.onInit(env.From, m)
	case PredMsg:
		// A contribution to a change we have not opened yet waits if it
		// changes a later view of ours: its sender is past an install we
		// have still to make.
		if c := e.chg; (c == nil || m.Change != c.next) &&
			e.deferFuture(env, ident.ViewRef{Epoch: m.Change.Epoch, ID: m.Change.ID - 1}) {
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
		if p.credit(m.Credits) {
			// More credits than p can owe us: keep the window, drop the rest.
			e.stats.CreditsExcess++
			e.ev.Drop(obs.DropExcessCredit, slog.String("from", string(env.From)),
				slog.Int("credits", m.Credits))
		}
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
// maxDeferredCtl as a backstop against garbage from broken peers; drops
// past it are counted in Stats.CtlDeferredDropped.
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
	if ref.Epoch != e.cv.Epoch && e.open() {
		e.stats.DroppedStale++
		e.ev.Drop(obs.DropStaleView, slog.String("from", string(env.From)),
			slog.String("view", ref.String()))
		return true
	}
	if len(e.deferredCtl) < maxDeferredCtl {
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

// onInit is transition t5 of every change: block the group, open the
// change's ledger, forward the INIT so every correct process blocks even if
// the initiator crashed mid-dissemination, and contribute our pred set. An
// INIT over one side changes the current view, adopting its leave and join
// sets; one over two sides merges the current view with the far sub-view
// (openMerge, merge.go).
func (e *Engine) onInit(from ident.PID, m InitMsg) {
	if m.Far == nil && e.chg.merge() && m.Ref() == e.cv.Ref() && e.cv.Includes(from) {
		// A member started an ordinary change while we were merging. The
		// change's quorum is reachable (the INIT got here) but its members
		// will not answer a merge mid-change — so yield: abort the merge
		// and join the change. The far side's probes retry the merge once
		// the change completes.
		e.abortMerge("view_change")
	}
	if !e.open() {
		// Joining, at our end, or changing already — this INIT is the flood
		// echo, or another change's, whose install or abort comes first (a
		// merge's far side times out and re-probes).
		return
	}
	var c *change
	if m.Far == nil {
		if m.Ref() != e.cv.Ref() || !e.cv.Includes(from) {
			return
		}
		c = e.block(ident.ViewRef{Epoch: e.cv.Epoch, ID: e.cv.ID + 1}, e.cv.Members, e.cv.Members)
		c.leave = ident.NewPIDs(m.Leave...).Intersect(e.cv.Members)
		// Current members need no admission and a process asked to leave is
		// not admitted by the same change.
		c.join = ident.NewPIDs(m.Join...).Without(e.cv.Members).Without(c.leave)
	} else if c = e.openMerge(m); c == nil {
		return
	}
	if from != e.cfg.Self {
		e.sendOthers(c.audience, m)
	}
	pred := e.contribution(c)
	for _, p := range c.audience {
		e.send(p, transport.Ctl, pred) // including self: loopback keeps one code path
	}
	// Watch for the decision even if we never reach the propose condition
	// ourselves — the decide flood must still install the view here.
	e.awaitDecision(c.next)
	e.checkPropose()
}

// block closes the data plane for a change (t5) and opens its record: the
// successor it was opened for, who takes part, and the sides its quorum is
// taken over. Arrivals not yet accepted are dropped: their senders' pred
// sets cover them.
func (e *Engine) block(next ident.ViewRef, audience ident.PIDs, sides ...ident.PIDs) *change {
	e.chg = &change{
		start: e.clock.Now(), next: next, audience: audience,
		awaited: make(map[string]bool), sides: sides,
		pred: make(map[obsolete.MsgID]DataMsg), recv: make(map[ident.PID]ident.Seq),
	}
	e.pendingHead = DataMsg{}
	e.pendingRest = e.pendingRest[:0]
	e.pendingPos = 0
	return e.chg
}

// endChange ends the change in flight, if any, and the data plane reopens;
// the caller retries whatever waited. It is the only place a change ends.
// The consensus instances the change proposed to live on in the machine:
// the other participants may still need this process's estimate and ACK.
func (e *Engine) endChange() { e.chg = nil }

// onPred is transition t6 of every change: enter one member's contribution
// to the change in flight — its pred set and, for a merge, its frontiers —
// into the ledger, or count the member out if it declines, and re-test the
// quorum.
func (e *Engine) onPred(from ident.PID, m PredMsg) {
	c := e.chg
	if c == nil || m.Change != c.next || !c.audience.Contains(from) {
		return // not changing, another change, or an outsider
	}
	if m.Decline {
		c.declined = c.declined.Add(from)
		e.checkPropose()
		return
	}
	if c.merge() && !c.from.Contains(from) {
		size := uint64(wireSize(m))
		c.bytesIn += size
		e.stats.MergeBytesRecv += size
	}
	for _, dm := range m.Msgs {
		c.pred[dm.Meta.ID()] = dm
	}
	for s, q := range m.Recv {
		c.recv[s] = max(c.recv[s], q)
	}
	c.from = c.from.Add(from)
	e.checkPropose()
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
func (e *Engine) checkPropose() {
	c := e.chg
	if c == nil || c.proposed {
		return
	}
	for _, side := range c.sides {
		eligible := side.Without(c.declined)
		contributed := 0
		for _, p := range eligible {
			if c.from.Contains(p) {
				contributed++
			} else if !e.cfg.Detector.Suspected(p) {
				return // still waiting on a live member
			}
		}
		if 2*contributed <= len(eligible) {
			if !c.merge() {
				e.checkSplit()
			}
			return
		}
	}
	c.proposed = true
	next := View{Epoch: c.next.Epoch, ID: c.next.ID, Members: c.from.Without(c.leave).Union(c.join)}
	e.propose(e.proposal(next), c.audience)
}

// proposal is the value a change proposes for next: the view, every pred
// set gathered, deduplicated (the ledger's key), deterministically ordered
// and repurged once so covers across contributions collapse, and the
// gathered frontiers. Contributions travel unrepurged because only here is
// every one of them seen: had a contributor collapsed a:6 ⊑ a:7 ⊑ a:8 to
// a:8, another member's a:6 would meet a:8 here without the a:7 that links
// them, and under KEnumeration a:8 lists only the last K numbers.
func (e *Engine) proposal(next View) StateMsg {
	c := e.chg
	return StateMsg{
		View: next.ID, Epoch: next.Epoch, Members: next.Members.Clone(),
		Recv: c.recv, Backlog: repurge(e.cfg.Relation, sortedPred(c.pred)),
	}
}

// propose offers val to the consensus instance of the view it names, among
// participants, and awaits that instance. The outcome — ours or a
// competitor's — enters through onDecision like every other. The instance
// outlives the change, so a change given up here leaves it live for the
// other participants.
func (e *Engine) propose(val StateMsg, participants ident.PIDs) {
	ref := ident.ViewRef{Epoch: val.Epoch, ID: val.View}
	e.awaitDecision(ref)
	// Neither call can fail: StateMsg is a registered type, and we are one
	// of the participants.
	raw, _ := codec.Marshal(nil, val)
	ds, _ := e.cons.Propose(viewInstance(ref), participants, raw)
	e.onDecisions(ds)
}

// awaitDecision makes the change in flight await the consensus instance of
// successor ref: onDecision installs whichever awaited instance decides
// first. An instance that has decided already installs now.
func (e *Engine) awaitDecision(ref ident.ViewRef) {
	id := viewInstance(ref)
	if e.chg.awaited[id] {
		return
	}
	e.chg.awaited[id] = true
	if v, ok := e.cons.Decided(id); ok {
		e.onDecision(consensus.Decision{Instance: id, Value: v})
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

// onDecisions hands onDecision every decision one call of the consensus
// machine returned, after the call.
func (e *Engine) onDecisions(ds []consensus.Decision) {
	for _, d := range ds {
		e.onDecision(d)
	}
}

// onDecision installs the agreed view (the tail of t7) — but only a
// decision the change in flight awaits. With concurrent proposals
// (ordinary successor, split continuations, a merge union) more than one
// instance can decide; the first awaited one wins and every other outcome
// is counted instead of silently dropped.
func (e *Engine) onDecision(d consensus.Decision) {
	if e.chg == nil || !e.chg.awaited[d.Instance] {
		// Accounted, not installed: a decision that lost a
		// concurrent-proposal race, or one that landed after its change
		// ended.
		n, why := &e.stats.IgnoredWrongView, ignoreWrongView
		if e.chg == nil {
			n, why = &e.stats.IgnoredNotBlocked, ignoreNotBlocked
		}
		*n++
		e.ev.DecisionIgnored(d.Instance, why)
		return
	}
	st, err := decodeState(d.Value)
	if err != nil {
		// A value that does not decode is counted and logged: the group
		// stays blocked until another decision reaches it, and an operator
		// should see why. Every successor a change awaits is numbered
		// next.ID.
		e.stats.DecisionFailures++
		e.ev.DecisionFailed(uint64(e.chg.next.ID), err)
		return
	}
	e.install(st)
}

func (e *Engine) install(st StateMsg) {
	next := st.view()
	e.stats.LastFlushLen = len(st.Backlog)
	blockedFor := e.clock.Since(e.chg.start)
	e.m.viewChange.ObserveDuration(blockedFor)
	if e.ev != nil {
		e.ev.ViewInstall(uint64(next.ID), len(next.Members), len(st.Backlog), blockedFor)
		e.ev.MemberChange(uint64(next.ID),
			pidStrings(next.Members.Without(e.cv.Members)),
			pidStrings(e.cv.Members.Without(next.Members)))
	}

	// Adopt the flush messages we have not seen; the view marker follows
	// them into the delivery queue (enterView). For a merge decision the
	// flush carries both sides' backlogs, so this is what delivers the
	// other partition's relation-surviving messages before the union-view
	// marker, and st.Recv (empty otherwise) the combined frontiers.
	added := e.adopt(st.Backlog, st.Recv)
	e.stats.FlushAdded += uint64(added)

	if e.chg.merge() {
		// The "newcomers" are the other side, which already holds its own
		// state — no sponsor transfer.
		e.finishMerge(st)
	} else {
		// Dynamic membership: newcomers admitted by this view get a
		// semantic state transfer from their sponsor. This must read
		// e.delivered and e.cv before enterView resets them.
		e.sponsorJoiners(next)
	}
	e.enterView(next)
}

// enterView makes next the current view, whether a decision installed it, a
// state transfer did, or a probe proved it: the change in flight ends, a
// view that excludes this process expels it, the view marker goes into the
// delivery queue behind whatever the caller just adopted, everything scoped
// to one view starts afresh, and whoever waited for the view — deliveries,
// parked multicasts, deferred control traffic, admission requests — gets
// its turn.
func (e *Engine) enterView(next View) {
	e.endChange()
	e.stats.ViewsInstalled++
	if !next.Includes(e.cfg.Self) {
		e.terminal = ErrExpelled // the retries below fail what is parked
		e.ev.Expelled(uint64(next.ID))
	}
	e.toDeliver.ForceAppend(queue.Item{
		Kind: queue.Control, View: uint64(next.ID), Epoch: uint64(next.Epoch), Ctl: next.Clone(),
	})
	e.cv = next.Clone()
	e.viewDirty = true
	e.delivered = queue.New(e.cfg.Relation, 0)
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
