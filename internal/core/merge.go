package core

// merge.go implements partition healing: the discovery, split and merge
// protocol enabled by GroupConfig.Heal.
//
// A network partition leaves the group in one of two shapes. The majority
// side completes its view change normally and evicts the unreachable
// minority. The minority, under plain SVS, wedges: it blocks at t5 and can
// never reach the majority quorum its consensus instance needs. With
// healing enabled the reachable minority instead *splits* — it declares
// the set of members it can still see and continues as a sub-view under a
// fresh lineage epoch (ident.ViewRef), so its view numbering can advance
// without ever colliding with the majority's.
//
// When the partition heals, members discover each other again through
// probes — tiny beacons sent to every process a member once shared a view
// with but no longer does (viewState.former) — and drive both sub-views into
// a *merge*, a view change over two sides on Figure 1's two messages:
//
//	probe ─────▶ far side (different epoch detected)
//	INIT ──────▶ union     (both sides' refs + memberships, flooded)
//	PRED ──────▶ union     (each member's current-view backlog +
//	                        reception frontiers — the bidirectional
//	                        semantic state exchange: every current-view
//	                        message the relation never obsoleted)
//	consensus(union ref) ─▶ union view installs on both sides
//
// A split and a merge are the view change of viewchange.go under another
// successor: one onInit opens the change, one onPred feeds its ledger, the
// same quorum rule (checkPropose) decides when to propose, and the union
// view's flush is built as every flush is — the deduplicated combination of
// every contribution, repurged once — so each side delivers the other's
// relation-surviving backlog before the union-view marker, and the SVS
// guarantee holds across the merge exactly as it does across an ordinary
// view change.
//
// Every handler here is part of step (viewchange.go): a transition of the
// group's state (installFlush ends a merge, abortMerge abandons one). The
// state machine tolerates concurrent proposals (an ordinary change, a
// shrinking series of split declarations, a merge) through the successors
// the change in flight awaits (change.awaited) — the first decided one
// wins and every other decision is counted as ignored. Races that slip
// through (e.g. a split and an ordinary change both deciding on opposite
// sides of a flapping partition) leave the loser on a divergent lineage,
// which the member-with-different-epoch probe case below detects and
// re-merges: the protocol converges by construction. A straggler's probe
// that left before it installed a union is no such divergence, and is
// answered with a probe instead. The explorer (explore_test.go) walks one
// small merge through every interleaving.

import (
	"time"

	"repro/internal/ident"
)

// Healing's clock: an unblocked member probes every probeInterval, and a
// merge that has not decided mergeTimeout after the group blocked aborts.
const (
	probeInterval = 500 * time.Millisecond
	mergeTimeout  = 10 * time.Second
)

// onProbeTick is protocol time under Heal: time out a merge that stopped
// making progress, and beacon the processes we lost to a partition when a
// probe is due.
func (t *turn) onProbeTick() {
	if c := t.chg; c.merge() && !t.now.Before(c.start.Add(mergeTimeout)) {
		t.abortMerge("timeout")
	}
	if due(&t.probeAt, t.now, probeInterval) && t.open() {
		t.sendAll(t.former, t.probe())
	}
}

// probe is this process's discovery beacon: its current view.
func (t *turn) probe() ProbeMsg {
	return ProbeMsg{t.cv.Clone()}
}

// onProbe classifies a discovery beacon. The sender considers us a former
// member (probes only target those), so the interesting cases are all
// disagreements about who belongs where.
func (t *turn) onProbe(from ident.PID, m ProbeMsg) {
	if !t.cfg.Heal || t.joining || t.chg.merge() {
		return
	}
	ref := m.Ref()
	members := ident.NewPIDs(m.Members...)
	if !members.Contains(from) {
		return // malformed: a probe speaks for the sender's own view
	}
	if ref.Epoch != t.cv.Epoch {
		if t.cv.Includes(from) && ref.ID < t.cv.ID {
			// Our member names an older view of another lineage: a straggler
			// whose probe left before it installed our view (a union's ID is
			// one past both sides'). Merging again would fold everyone into
			// a second union; answer with our view instead. If it really
			// diverged, it sees our probe as another lineage and merges.
			t.sendAll(ident.PIDs{from}, t.probe())
			return
		}
		// Another lineage. Usually the healed far side of a partition; if
		// from is currently *our* member and names a view no older than
		// ours, the group diverged (e.g. a split and an ordinary change both
		// decided) — either way the union of
		// the two views reconverges everyone. Announce the merge to the
		// union as trigger announces an ordinary change to the view, the
		// pair normalised so both sides' initiators send one INIT.
		if t.open() {
			near, far := t.cv.Clone(), View{Epoch: ref.Epoch, ID: ref.ID, Members: members}
			if far.Ref().Less(near.Ref()) {
				near, far = far, near
			}
			t.sendAll(t.cv.Members.Union(members), InitMsg{View: near, Far: &far})
		}
		return
	}
	// Same lineage: one of us is simply behind.
	switch {
	case ref.ID > t.cv.ID && !members.Contains(t.self):
		// Proof that a newer view of our own lineage excludes us: the
		// group evicted us while we were cut off, and the decide flood
		// never found us. Enter that view as its decision would have.
		t.enter(View{Epoch: ref.Epoch, ID: ref.ID, Members: members}, install{})
	case ref.ID < t.cv.ID && t.chg == nil && !t.cv.Includes(from):
		// The prober is the stale one; answer with our view so it can
		// draw the same conclusion.
		t.sendAll(ident.PIDs{from}, t.probe())
	}
}

// ---- split: a reachable minority continues under a fresh lineage ------------

// checkSplit fires from checkPropose when every reachable pred is in but
// the members form a minority: the ordinary change can never decide (its
// quorum is unreachable), so the reachable set continues as a sub-view
// under a split epoch. The lowest reachable member declares the split; if
// it dies, growing suspicion shrinks the reachable set until a surviving
// member finds itself lowest — a rotating proposer, with every declared
// continuation awaited by the change so whichever decides first wins.
// Without GroupConfig.Heal it returns at once and the minority stays blocked at
// t5: plain SVS's wedge is that one return.
func (t *turn) checkSplit() {
	if !t.cfg.Heal {
		return
	}
	c := t.chg
	var split ident.PIDs
	for _, p := range c.from {
		if !t.detector.Suspected(p) {
			split = split.Add(p)
		}
	}
	split = split.Without(c.leave)
	if len(split) == 0 || split[0] != t.self {
		return
	}
	ref := ident.ViewRef{Epoch: SplitEpoch(t.cv.Ref(), split), ID: t.cv.ID + 1}
	if c.awaited[viewInstance(ref)] {
		return // this exact continuation is already declared and pending
	}
	t.ev.SplitDeclared(ref.String(), len(split))
	t.sendAll(split.Remove(t.self), SplitMsg{View{Epoch: t.cv.Epoch, ID: t.cv.ID, Members: split.Clone()}})
	t.adoptSplit(split)
}

// onSplit handles a split declaration from the reachable set's leader.
func (t *turn) onSplit(from ident.PID, m SplitMsg) {
	c := t.chg
	if !t.cfg.Heal || c == nil || c.merge() || m.Ref() != t.cv.Ref() {
		return
	}
	members := ident.NewPIDs(m.Members...)
	if len(members) == 0 || members[0] != from || !members.Contains(t.self) {
		return // only the declared set's lowest member may declare
	}
	for _, p := range members {
		if !c.from.Contains(p) {
			// We cannot yet cover every declared member's deliveries, so
			// we must not propose — but the declaration is legitimate, so
			// await the instance for the decide flood.
			t.await(ident.ViewRef{Epoch: SplitEpoch(t.cv.Ref(), members), ID: t.cv.ID + 1})
			return
		}
	}
	t.adoptSplit(members)
}

// adoptSplit proposes the split continuation: the next view is the
// declared set, under an epoch derived from (parent ref, member set) so
// concurrent declarations for different sets occupy different consensus
// instances, with the flush every proposal carries.
func (t *turn) adoptSplit(members ident.PIDs) {
	next := View{Epoch: SplitEpoch(t.cv.Ref(), members), ID: t.cv.ID + 1, Members: members}
	t.propose(t.proposal(next), members)
}

// ---- merge: two sub-views reconverge into their union -----------------------

// mergeRefFor names the union view of two sub-views: a fresh epoch hashed
// from both parent refs, one past the higher of the two view numbers — so
// both sides' numbering is respected and re-runs of the same merge land on
// the same instance.
func mergeRefFor(a, b ident.ViewRef) ident.ViewRef {
	return ident.ViewRef{Epoch: MergeEpoch(a, b), ID: max(a.ID, b.ID) + 1}
}

// openMerge opens the change an INIT over two sides announces, if one side
// is our current view, and returns it; nil, without healing or for an
// announcement we have moved past. Both initiators (each side probes the
// other) announce the same normalised pair, so their floods are
// idempotent. The change's successor is the union's ref, its audience the
// union, and its quorum is taken over both sub-views.
func (t *turn) openMerge(m InitMsg) *change {
	if !t.cfg.Heal {
		return nil
	}
	a, b := m.View, *m.Far
	// Our own side's membership is consensus-agreed state; use the
	// authoritative copy (it equals the announced one at every correct
	// sender).
	switch t.cv.Ref() {
	case a.Ref():
		a.Members = t.cv.Members
	case b.Ref():
		b.Members = t.cv.Members
	default:
		return nil
	}
	sa, sb := ident.NewPIDs(a.Members...), ident.NewPIDs(b.Members...)
	union := sa.Union(sb)
	c := t.block(mergeRefFor(a.Ref(), b.Ref()), union, sa, sb)
	t.ev.MergeStarted(c.next.String(), a.Ref().String(), b.Ref().String(), len(union))
	return c
}

// declineMerge answers an INIT over two sides that names this process on a
// side it was since expelled from: a broadcast "count me out", so the
// union can proceed without waiting for suspicion to develop. The INIT is
// forwarded ahead of it, as every member forwards it: a member the
// announcement has not reached yet would drop a decline for a merge it has
// not opened as another lineage's chatter, and wait for this process until
// the merge timed out.
func (t *turn) declineMerge(m InitMsg) {
	union := m.Members.Union(m.Far.Members).Remove(t.self)
	t.sendAll(union, m)
	t.sendAll(union, PredMsg{Change: mergeRefFor(m.Ref(), m.Far.Ref()), Decline: true})
}

// abortMerge abandons a merge whose union decision did not arrive in
// time — the partition re-opened mid-handshake, or a side was wedged in
// its own view change. The change ends (the engine unblocks); a later
// probe retries the merge on the same (deterministic) instance.
func (t *turn) abortMerge(reason string) {
	t.stats.MergeAborts++
	t.ev.MergeAborted(t.chg.next.String(), reason)
	t.former = t.former.Union(t.chg.audience.Without(t.cv.Members).Remove(t.self))
	t.chg = nil
}
