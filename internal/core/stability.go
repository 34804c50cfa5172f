package core

import (
	"repro/internal/ident"
	"repro/internal/queue"
	"repro/internal/transport"
)

// Stability tracking (optional, GroupConfig.StabilityInterval > 0).
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
// here. Every state transfer that carries frontiers ships it (snapshot.go).
func (s *viewState) recvSnapshot() map[ident.PID]ident.Seq {
	recv := make(map[ident.PID]ident.Seq, len(s.peers))
	for id, p := range s.peers {
		if p.recvMax > 0 {
			recv[id] = p.recvMax
		}
	}
	return recv
}

// eachMember calls f with the record of every current member, our own
// first. Stability is about them alone: only current-view entries are ever
// pruned or filtered, and their senders are members. A departed sender's
// frontier never travels in the gossip or costs a recompute again.
func (s *viewState) eachMember(f func(*peer)) {
	f(s.own)
	for _, p := range s.others {
		f(p)
	}
}

// gossipStability broadcasts this process's reception frontier for the
// current view's senders.
func (s *viewState) gossipStability() {
	if !s.open() {
		return
	}
	recv := make(map[ident.PID]ident.Seq, len(s.others)+1)
	s.eachMember(func(p *peer) {
		if p.recvMax > 0 {
			recv[p.id] = p.recvMax
		}
	})
	m := StableMsg{View: s.cv.ID, Epoch: s.cv.Epoch, Recv: recv}
	s.onStable(s.self, m)
	for _, p := range s.others {
		s.send(p.id, transport.Ctl, m)
	}
}

// onStable folds a frontier report into the stability table. The report is
// kept as received: its sender built it for this one gossip round and
// nobody writes to it afterwards.
func (s *viewState) onStable(from ident.PID, m StableMsg) {
	if m.View != s.cv.ID || m.Epoch != s.cv.Epoch || !s.cv.Includes(from) {
		return
	}
	s.peer(from).reported = m.Recv
	s.recomputeStable()
}

// recomputeStable derives the group-wide stable frontier: per current
// member as a sender, the minimum frontier over every current member.
// Members that have not reported yet hold everything at zero.
func (s *viewState) recomputeStable() {
	s.eachMember(func(p *peer) {
		low := s.own.reported[p.id] // zero when a member never reported (or lacks p)
		for _, q := range s.others {
			low = min(low, q.reported[p.id])
		}
		p.stable = max(p.stable, low)
	})
	s.pruneStable()
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
// entries only (enter starts a new one). It keeps every delivered message
// the relation never obsoletes — every one of them under the empty
// relation — until the next view.
func (s *viewState) pruneStable() {
	if s.cfg.Heal {
		return
	}
	stable := s.stableFilter()
	for it := s.delivered.PeekHead(); it != nil && stable(it); it = s.delivered.PeekHead() {
		s.delivered.PopHead()
		s.stats.StablePruned++
	}
}

// stableFilter returns the test "this data item is known received
// everywhere" for one walk over held items. The reports it rests on are
// per view (armPeers drops them after a membership change); the stable
// frontier itself is monotone and survives, since sequence numbers are
// global per sender.
func (s *viewState) stableFilter() func(*queue.Item) bool {
	var p *peer // held items come in runs of one sender
	return func(it *queue.Item) bool {
		p = s.peerOf(it.Meta.Sender, p)
		return p != nil && it.Meta.Seq <= p.stable
	}
}
