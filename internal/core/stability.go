package core

import (
	"repro/internal/ident"
	"repro/internal/queue"
	"repro/internal/transport"
)

// Stability tracking (optional, Config.StabilityInterval > 0).
//
// §2.1 of the paper observes that a view-synchronous protocol must keep a
// message buffered "until it is known to be stable, i.e. received by all
// processes", because the view-change flush may need any process to
// retransmit it. Tracking stability lets the engine (a) drop stable
// entries from the per-view delivery history and (b) exclude them from
// the pred sets exchanged at t5 — shrinking both steady-state memory and
// the flush set agreed by consensus, which is what keeps view changes
// cheap (§5.4).
//
// Mechanism: every StabilityInterval each member gossips its per-sender
// reception frontier (StableMsg). A message from s with sequence number
// at or below the minimum frontier reported by every current member has
// been received everywhere: each member either still buffers it, already
// delivered it, or purged/discarded it under a covering message — in all
// three cases the SVS obligations for it are met without flushing it.

// StableMsg is the reception-frontier gossip.
type StableMsg struct {
	View  ident.ViewID
	Epoch ident.Epoch
	// Recv maps each sender to the highest sequence number the reporter
	// has received from it (reception is FIFO, so frontiers are dense).
	Recv map[ident.PID]ident.Seq
}

// recvSnapshot copies this process's per-sender reception frontier,
// including its own stream: everything we multicast is trivially received
// here. The stability gossip ships it, and so does every state transfer
// that carries frontiers (snapshot.go).
func (e *Engine) recvSnapshot() map[ident.PID]ident.Seq {
	recv := make(map[ident.PID]ident.Seq, len(e.recvMax)+1)
	for s, q := range e.recvMax {
		recv[s] = q
	}
	if e.lastSent > recv[e.cfg.Self] {
		recv[e.cfg.Self] = e.lastSent
	}
	return recv
}

// gossipStability broadcasts this process's reception frontier.
func (e *Engine) gossipStability() {
	if e.expelled || e.blocked {
		return
	}
	m := StableMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Recv: e.recvSnapshot()}
	for _, p := range e.cv.Members {
		if p == e.cfg.Self {
			e.onStable(p, m)
			continue
		}
		e.send(p, transport.Ctl, m)
	}
}

// onStable folds a frontier report into the stability table.
func (e *Engine) onStable(from ident.PID, m StableMsg) {
	if m.View != e.cv.ID || m.Epoch != e.cv.Epoch || !e.cv.Includes(from) {
		return
	}
	if e.recvTable == nil {
		e.recvTable = make(map[ident.PID]map[ident.PID]ident.Seq)
	}
	row := make(map[ident.PID]ident.Seq, len(m.Recv))
	for s, q := range m.Recv {
		row[s] = q
	}
	e.recvTable[from] = row
	e.recomputeStable()
}

// recomputeStable derives the group-wide stable frontier: per sender, the
// minimum frontier over every current member. Members that have not
// reported yet hold everything at zero.
func (e *Engine) recomputeStable() {
	if e.stable == nil {
		e.stable = make(map[ident.PID]ident.Seq)
	}
	senders := make(map[ident.PID]struct{})
	for _, row := range e.recvTable {
		for s := range row {
			senders[s] = struct{}{}
		}
	}
	for s := range senders {
		min := ident.Seq(0)
		first := true
		for _, q := range e.cv.Members {
			row := e.recvTable[q]
			v := row[s] // zero when q never reported (or lacks s)
			if first || v < min {
				min, first = v, false
			}
		}
		if min > e.stable[s] {
			e.stable[s] = min
		}
	}
	e.pruneStable()
}

// pruneStable drops stable entries from the delivery history: they will
// never need to be flushed, so their payloads can be reclaimed.
//
// With healing enabled the current view's entries are exempt: "received
// by all processes" is a fact about *this view's* members, but a merge
// contributes the view's non-obsolete backlog to the far side of a
// healed partition — processes the stable frontier never covered.
// Relation purging still bounds the retained history at O(window); only
// flush-adopted entries tagged with older views remain prunable.
func (e *Engine) pruneStable() {
	if len(e.stable) == 0 {
		return
	}
	removed := e.delivered.RemoveIf(func(it queue.Item) bool {
		if it.Kind != queue.Data || !e.isStable(it.Meta.Sender, it.Meta.Seq) {
			return false
		}
		return e.cfg.Heal == nil || !e.inView(&it)
	})
	e.stats.StablePruned += uint64(removed)
	e.m.stablePruned.Add(uint64(removed))
}

// isStable reports whether message (s, seq) is known received everywhere.
func (e *Engine) isStable(s ident.PID, seq ident.Seq) bool {
	return seq <= e.stable[s]
}

// resetStabilityForView clears per-view rows after a membership change;
// the stable frontier itself is monotone and survives (sequence numbers
// are global per sender).
func (e *Engine) resetStabilityForView() {
	e.recvTable = make(map[ident.PID]map[ident.PID]ident.Seq)
}
