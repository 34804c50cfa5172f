package core

// merge.go implements partition healing: the discovery, split and merge
// protocol enabled by Config.Heal.
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
// with but no longer does (peer.former) — and drive both sub-views into
// a *merge*:
//
//	probe ───────▶ far side (different epoch detected)
//	MergeMsg ────▶ union     (both sides' refs + memberships, flooded)
//	MergePredMsg ▶ union     (each member's current-view backlog +
//	                          reception frontiers — the bidirectional
//	                          semantic state exchange: every current-view
//	                          message the relation never obsoleted)
//	consensus(union ref) ───▶ union view installs on both sides
//
// A split and a merge are the view change of viewchange.go under another
// successor: the contributions go into the same ledger, the same quorum
// rule (checkPropose) decides when to propose, and the union view's flush
// is built as every flush is — the deduplicated combination of every
// contribution, repurged once — so each side delivers the other's
// relation-surviving backlog before the union-view marker, and the SVS
// guarantee holds across the merge exactly as it does across an ordinary
// view change.
//
// Concurrency discipline: every handler here runs on the engine loop; the
// state machine tolerates concurrent proposals (an ordinary change, a
// shrinking series of split declarations, a merge) through the successors
// the change in flight awaits (change.awaited) — the first decided one
// wins and every other decision is counted as ignored. Races that slip
// through (e.g. a split and an ordinary change both deciding on opposite
// sides of a flapping partition) leave the loser on a divergent lineage,
// which the member-with-different-epoch probe case below detects and
// re-merges: the protocol converges by construction instead of
// enumerating every interleaving.

import (
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// mergeSide is one sub-view being merged: its global ref and membership.
type mergeSide struct {
	ref     ident.ViewRef
	members ident.PIDs
}

// mergeState is what a change that is a merge holds beyond an ordinary one
// (change.merge); its contributions, declines and two sides are the
// change's ledger.
type mergeState struct {
	// ref names the union view under decision; the change awaits its
	// instance like any other candidate successor.
	ref ident.ViewRef
	// union is the combined membership — the consensus participant set
	// and the audience of every merge message.
	union    ident.PIDs
	deadline time.Time // the abort timeout (HealSpec.MergeTimeout)
	bytesIn  uint64    // the contributions' encoded size, each member's first
}

// merging returns the merge in flight, nil when none.
func (e *Engine) merging() *mergeState {
	if e.chg == nil {
		return nil
	}
	return e.chg.merge
}

// onHealTick fires every HealSpec.ProbeInterval: beacon the processes we
// lost to a partition, and time out a merge that stopped making progress.
func (e *Engine) onHealTick() {
	if mg := e.merging(); mg != nil {
		if e.clock.Now().After(mg.deadline) {
			e.abortMerge("timeout")
		}
		return
	}
	if !e.open() {
		return
	}
	probe := ProbeMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Members: e.cv.Members.Clone()}
	for _, p := range e.peers {
		if p.former {
			e.send(p.id, transport.Ctl, probe)
		}
	}
}

// onProbe classifies a discovery beacon. The sender considers us a former
// member (probes only target those), so the interesting cases are all
// disagreements about who belongs where.
func (e *Engine) onProbe(from ident.PID, m ProbeMsg) {
	if e.cfg.Heal == nil || e.joiner != nil || e.merging() != nil {
		return
	}
	ref := m.Ref()
	members := ident.NewPIDs(m.Members...)
	if !members.Contains(from) {
		return // malformed: a probe speaks for the sender's own view
	}
	if ref.Epoch != e.cv.Epoch {
		// Another lineage. Usually the healed far side of a partition; if
		// from is currently *our* member, the group diverged (e.g. a split
		// and an ordinary change both decided) — either way the union of
		// the two views reconverges everyone.
		e.maybeStartMerge(mergeSide{ref: ref, members: members})
		return
	}
	// Same lineage: one of us is simply behind.
	switch {
	case ref.ID > e.cv.ID && !members.Contains(e.cfg.Self):
		// Proof that a newer view of our own lineage excludes us: the
		// group evicted us while we were cut off, and the decide flood
		// never found us. Enter that view as its decision would have.
		e.enterView(View{Epoch: ref.Epoch, ID: ref.ID, Members: members})
	case ref.ID < e.cv.ID && e.chg == nil && !e.cv.Includes(from):
		// The prober is the stale one; answer with our view so it can
		// draw the same conclusion.
		e.send(from, transport.Ctl,
			ProbeMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Members: e.cv.Members.Clone()})
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
// Without Config.Heal it returns at once and the minority stays blocked at
// t5: plain SVS's wedge is that one return.
func (e *Engine) checkSplit() {
	if e.cfg.Heal == nil {
		return
	}
	c := e.chg
	var split ident.PIDs
	for _, p := range c.from {
		if !e.cfg.Detector.Suspected(p) {
			split = split.Add(p)
		}
	}
	split = split.Without(c.leave)
	if len(split) == 0 || !split.Contains(e.cfg.Self) || split[0] != e.cfg.Self {
		return
	}
	ref := ident.ViewRef{Epoch: SplitEpoch(e.cv.Ref(), split), ID: e.cv.ID + 1}
	if c.awaited[ref] {
		return // this exact continuation is already declared and pending
	}
	e.ev.SplitDeclared(ref.String(), len(split))
	msg := SplitMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Members: split.Clone()}
	for _, p := range split {
		if p != e.cfg.Self {
			e.send(p, transport.Ctl, msg)
		}
	}
	e.adoptSplit(split)
}

// onSplit handles a split declaration from the reachable set's leader.
func (e *Engine) onSplit(from ident.PID, m SplitMsg) {
	c := e.chg
	if e.cfg.Heal == nil || c == nil || c.merge != nil || m.Ref() != e.cv.Ref() {
		return
	}
	members := ident.NewPIDs(m.Members...)
	if len(members) == 0 || members[0] != from || !members.Contains(e.cfg.Self) {
		return // only the declared set's lowest member may declare
	}
	for _, p := range members {
		if !c.from.Contains(p) {
			// We cannot yet cover every declared member's deliveries, so
			// we must not propose — but the declaration is legitimate, so
			// watch the instance for the decide flood.
			e.awaitDecision(ident.ViewRef{Epoch: SplitEpoch(e.cv.Ref(), members), ID: e.cv.ID + 1})
			return
		}
	}
	e.adoptSplit(members)
}

// adoptSplit proposes the split continuation: the next view is the
// declared set, under an epoch derived from (parent ref, member set) so
// concurrent declarations for different sets occupy different consensus
// instances, with the flush every proposal carries.
func (e *Engine) adoptSplit(members ident.PIDs) {
	next := View{Epoch: SplitEpoch(e.cv.Ref(), members), ID: e.cv.ID + 1, Members: members}
	e.propose(e.proposal(next), members)
}

// ---- merge: two sub-views reconverge into their union -----------------------

// maybeStartMerge begins a merge with the remote sub-view a probe
// revealed, if no change or merge is already in flight.
func (e *Engine) maybeStartMerge(remote mergeSide) {
	if !e.open() || remote.ref == e.cv.Ref() {
		return
	}
	e.startMerge(mergeSide{ref: e.cv.Ref(), members: e.cv.Members.Clone()}, remote)
}

// mergeRefFor names the union view of two sub-views: a fresh epoch hashed
// from both parent refs, one past the higher of the two view numbers — so
// both sides' numbering is respected and re-runs of the same merge land on
// the same instance.
func mergeRefFor(a, b ident.ViewRef) ident.ViewRef {
	maxID := a.ID
	if b.ID > maxID {
		maxID = b.ID
	}
	return ident.ViewRef{Epoch: MergeEpoch(a, b), ID: maxID + 1}
}

// startMerge blocks the engine and runs the merge handshake: announce the
// merge to the union, extend the failure detector across it, contribute
// our own state, and watch the union instance for the decision. Both
// initiators (each side probes the other) derive the identical normalised
// state, so their floods are idempotent.
func (e *Engine) startMerge(a, b mergeSide) {
	if b.ref.Less(a.ref) {
		a, b = b, a
	}
	ref := mergeRefFor(a.ref, b.ref)
	union := a.members.Union(b.members)
	c := e.block(a.members, b.members)
	c.merge = &mergeState{ref: ref, union: union, deadline: c.start.Add(e.cfg.Heal.MergeTimeout)}
	e.ev.MergeStarted(ref.String(), a.ref.String(), b.ref.String(), len(union))
	// Extend the heartbeat fanout across the union: the propose condition
	// below needs suspicion to develop for far-side members that died.
	e.setPeers(union)
	// Flood the announcement (everyone re-floods once, so the handshake
	// survives the initiator crashing mid-broadcast), then contribute.
	// Per-link FIFO guarantees every peer sees our announcement before
	// our contribution.
	ann := MergeMsg{
		A: MergeSide{View: a.ref.ID, Epoch: a.ref.Epoch, Members: a.members.Clone()},
		B: MergeSide{View: b.ref.ID, Epoch: b.ref.Epoch, Members: b.members.Clone()},
	}
	for _, p := range union {
		if p != e.cfg.Self {
			e.send(p, transport.Ctl, ann)
		}
	}
	// Unlike an ordinary flush the contribution keeps stable messages: the
	// far side was never counted by this view's stable frontier, so for it
	// "stable" proves nothing.
	contrib := MergePredMsg{Merge: ref, Msgs: e.held(e.inView), Recv: e.recvSnapshot()}
	for _, p := range union {
		e.send(p, transport.Ctl, contrib) // including self: loopback keeps one code path
	}
	e.awaitDecision(ref)
}

// onMerge handles a merge announcement: if it names our current view as
// one side, adopt it and run the same handshake as the initiator.
func (e *Engine) onMerge(from ident.PID, m MergeMsg) {
	if e.cfg.Heal == nil || !e.open() {
		// Joining, already merging (this announcement is the flood echo),
		// or an ordinary change is mid-flight — its install or abort comes
		// first; the far side times out and re-probes.
		return
	}
	a := mergeSide{ref: m.A.Ref(), members: ident.NewPIDs(m.A.Members...)}
	b := mergeSide{ref: m.B.Ref(), members: ident.NewPIDs(m.B.Members...)}
	cur := e.cv.Ref()
	if cur != a.ref && cur != b.ref {
		return // stale announcement for a view we have moved past
	}
	// Our own side's membership is consensus-agreed state; use the
	// authoritative copy (it equals the announced one at every correct
	// sender).
	if cur == a.ref {
		a.members = e.cv.Members.Clone()
	} else {
		b.members = e.cv.Members.Clone()
	}
	e.startMerge(a, b)
}

// declineMerge answers a merge announcement that names this process on a
// side it was since expelled from: a broadcast "count me out", so the
// union can proceed without waiting for suspicion to develop.
func (e *Engine) declineMerge(m MergeMsg) {
	ref := mergeRefFor(m.A.Ref(), m.B.Ref())
	union := ident.NewPIDs(m.A.Members...).Union(ident.NewPIDs(m.B.Members...))
	msg := MergePredMsg{Merge: ref, Decline: true}
	for _, p := range union {
		if p != e.cfg.Self {
			e.send(p, transport.Ctl, msg)
		}
	}
}

// onMergePred collects one member's merge contribution (or decline).
func (e *Engine) onMergePred(from ident.PID, m MergePredMsg) {
	mg := e.merging()
	if mg == nil || m.Merge != mg.ref || !mg.union.Contains(from) {
		return // not merging, a different merge, or an outsider
	}
	c := e.chg
	if m.Decline {
		c.declined = c.declined.Add(from)
		e.checkPropose()
		return
	}
	if !c.from.Contains(from) {
		size := uint64(wireSize(m))
		mg.bytesIn += size
		e.stats.MergeBytesRecv += size
	}
	e.contribute(from, m.Msgs, m.Recv)
}

// finishMerge records the completed merge; install has already adopted the
// flush and the combined frontiers.
func (e *Engine) finishMerge(st StateMsg) {
	mg := e.chg.merge
	e.stats.Merges++
	took := e.clock.Since(e.chg.start)
	e.m.mergeDur.ObserveDuration(took)
	e.m.mergeBytes.Observe(float64(mg.bytesIn))
	e.ev.MergeComplete(ident.ViewRef{Epoch: st.Epoch, ID: st.View}.String(), len(st.Members), len(st.Backlog), int(mg.bytesIn), took)
}

// abortMerge abandons a merge whose union decision did not arrive in
// time — the partition re-opened mid-handshake, or a side was wedged in
// its own view change. The change ends (the engine unblocks), the
// view-scoped detector fanout is restored and the far side goes back on
// the probe list; a later probe retries the merge on the same
// (deterministic) instance.
func (e *Engine) abortMerge(reason string) {
	mg := e.chg.merge
	e.endChange()
	e.stats.MergeAborts++
	e.ev.MergeAborted(mg.ref.String(), reason)
	for _, p := range mg.union {
		if p != e.cfg.Self && !e.cv.Includes(p) {
			e.peer(p).former = true
		}
	}
	e.setPeers(e.cv.Members)
}
