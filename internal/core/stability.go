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
	recv := make(map[ident.PID]ident.Seq, len(e.peers))
	for id, s := range e.peers {
		if s.recvMax > 0 {
			recv[id] = s.recvMax
		}
	}
	return recv
}

// gossipStability broadcasts this process's reception frontier.
func (e *Engine) gossipStability() {
	if !e.vc.open() {
		return
	}
	m := StableMsg{View: e.vc.cv.ID, Epoch: e.vc.cv.Epoch, Recv: e.recvSnapshot()}
	e.onStable(e.cfg.Self, m)
	for _, p := range e.others {
		e.send(p.id, transport.Ctl, m)
	}
}

// onStable folds a frontier report into the stability table. The report is
// kept as received: its sender built it for this one gossip round and
// nobody writes to it afterwards.
func (e *Engine) onStable(from ident.PID, m StableMsg) {
	if m.View != e.vc.cv.ID || m.Epoch != e.vc.cv.Epoch || !e.vc.cv.Includes(from) {
		return
	}
	e.peer(from).reported = m.Recv
	e.recomputeStable()
}

// recomputeStable derives the group-wide stable frontier: per sender, the
// minimum frontier over every current member. Members that have not
// reported yet hold everything at zero. A sender without a record has sent
// us nothing that could be pruned, and needs no frontier until it has one.
func (e *Engine) recomputeStable() {
	for id, s := range e.peers {
		low := e.self.reported[id] // zero when a member never reported (or lacks s)
		for _, q := range e.others {
			low = min(low, q.reported[id])
		}
		s.stable = max(s.stable, low)
	}
	e.pruneStable()
}

// pruneStable drops the stable head of the delivery history: those entries
// will never need to be flushed, so their payloads can be reclaimed. The
// history is appended in delivery order and stable frontiers only advance,
// so it pops while the head is prunable and stops at the first entry that
// is not — an unstable head holds back the stable entries of other senders
// behind it until a later report releases it (or the next view starts a
// new history), which costs memory for a gossip round and no flush
// traffic: onInit's pred set filters by stableFilter whatever the history
// still holds.
//
// With healing enabled nothing is pruned: "received by all processes" is a
// fact about *this view's* members, but a merge contributes the view's
// non-obsolete backlog to the far side of a healed partition — processes
// the stable frontier never covered — and the history holds this view's
// entries only (enterView starts a new one). It keeps every delivered
// message the relation never obsoletes — every one of them under the empty
// relation — until the next view.
func (e *Engine) pruneStable() {
	if e.cfg.Heal != nil {
		return
	}
	stable := e.stableFilter()
	for it := e.delivered.PeekHead(); it != nil && stable(it); it = e.delivered.PeekHead() {
		e.delivered.PopHead()
		e.vc.stats.StablePruned++
	}
}

// stableFilter returns the test "this data item is known received
// everywhere" for one walk over held items. The reports it rests on are
// per view (armPeers drops them after a membership change); the stable
// frontier itself is monotone and survives, since sequence numbers are
// global per sender.
func (e *Engine) stableFilter() func(*queue.Item) bool {
	var s *peer // held items come in runs of one sender
	return func(it *queue.Item) bool {
		s = e.peerOf(it.Meta.Sender, s)
		return s != nil && it.Meta.Seq <= s.stable
	}
}
