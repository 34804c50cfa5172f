package core

// snapshot.go is the group's one state-transfer mechanism, over the data
// plane the view-change state holds. Figure 1 gives a member a single way
// to hand over what it holds — the pred set of t5–t7, flushed ahead of the
// view marker — and the three hand-overs are that mechanism under
// different filters:
//
//	change over one side   held(current view, not yet stable)         PredMsg
//	change over two sides  held(current view)        + recvSnapshot   PredMsg
//	join transfer          repurge(held(everything)) + recvSnapshot   StateMsg
//
// The first two are one function, contribution, which onInit sends as it
// opens the change; the third is buildJoinState, which sendState sends. A
// flush is repurged once, where it is assembled: a change's proposal
// repurges the contributions it gathered (proposal, viewchange.go) and the
// sponsor the backlog it ships. Either way the result is a StateMsg, and
// whoever is handed one — the decided value of an install, a joiner's
// transfer — applies it with adopt, in the same step that enters its view.

import (
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// contribution is this member's PRED for change c: the current view's data
// messages it accepted to deliver and still holds. A change over one side
// leaves out what is known stable — received by every member, so the SVS
// obligations for it hold everywhere without flushing — and sends no
// frontiers. A merge keeps it, since the far side was never counted by this
// view's stable frontier, and sends the frontiers. Under GroupConfig.Heal, which
// prunes nothing of the current view from the history (pruneStable), a
// merge's contribution is every current-view message the relation never
// obsoleted: under the empty relation, the view's whole traffic.
func (s *viewState) contribution(c *change) PredMsg {
	if c.merge() {
		return PredMsg{Change: c.next, Msgs: s.held(s.inView), Recv: s.recvSnapshot()}
	}
	stable := s.stableFilter()
	return PredMsg{Change: c.next, Msgs: s.held(func(it *queue.Item) bool {
		return s.inView(it) && !stable(it)
	})}
}

// itemOf is the queue form of a data message.
func itemOf(dm DataMsg) queue.Item {
	return queue.Item{Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch), Meta: dm.Meta, Payload: dm.Payload}
}

// msgOf is the wire form of a queued data item.
func msgOf(it *queue.Item) DataMsg {
	return DataMsg{View: ident.ViewID(it.View), Epoch: ident.Epoch(it.Epoch), Meta: it.Meta, Payload: it.Payload}
}

// inView reports whether it was multicast in the current view.
func (s *viewState) inView(it *queue.Item) bool {
	return it.View == uint64(s.cv.ID) && it.Epoch == uint64(s.cv.Epoch)
}

// held returns the data messages this process has accepted to deliver and
// still holds — delivery history, then delivery queue, each FIFO — that
// pass keep.
func (s *viewState) held(keep func(*queue.Item) bool) []DataMsg {
	var out []DataMsg
	collect := func(it *queue.Item) bool {
		if it.Kind == queue.Data && keep(it) {
			out = append(out, msgOf(it))
		}
		return true
	}
	s.delivered.EachRef(collect)
	s.toDeliver.EachRef(collect)
	return out
}

// repurge runs msgs, in order, once more through the obsolescence relation,
// so covers that straddle the places they were gathered from (history and
// queue, or two members' contributions) collapse. Purging never relates
// across view tags, so one view's backlog cannot purge another's: the
// result is what the relation leaves of each view — O(window) per view
// under a purging relation however long the group has run, the view's
// whole traffic under the empty one.
func repurge(rel obsolete.Relation, msgs []DataMsg) []DataMsg {
	snap := queue.New(rel, 0)
	for _, dm := range msgs {
		_, _ = snap.AppendPurge(itemOf(dm)) // unbounded: never full
	}
	out := make([]DataMsg, 0, snap.Len())
	snap.EachRef(func(it *queue.Item) bool {
		out = append(out, msgOf(it))
		return true
	})
	return out
}

// adopt applies a snapshot and returns how many of msgs joined the
// delivery queue, each purging what it obsoletes as it goes in, like every
// other arrival — without the credit accounting: enter re-arms every
// window right after. A message at or below its sender's reception frontier
// was genuinely received before (reception is FIFO per sender), so if it is
// missing locally it was purged under a justified cover chain; re-adding it
// would break per-sender FIFO delivery — our own stream included, whose
// frontier is what we committed or adopted. Nothing held covers a message
// above the frontier, so the frontier is t3's whole test here as in
// take. The frontiers of recv are adopted afterwards — the filter
// must see our own — and only forwards, so stale retransmissions are
// recognised as duplicates. Our own entry continues the sequence numbering
// of an earlier incarnation of this PID.
func (s *viewState) adopt(msgs []DataMsg, recv map[ident.PID]ident.Seq) int {
	added := 0
	for _, dm := range msgs {
		p, seq := s.peer(dm.Meta.Sender), dm.Meta.Seq
		if seq <= p.recvMax {
			continue
		}
		p.recvMax = seq
		it := itemOf(dm)
		s.toDeliver.PurgeFor(it, nil)
		s.toDeliver.ForceAppend(it) // the agreed flush is never refused
		added++
	}
	for id, q := range recv {
		p := s.peer(id)
		p.recvMax = max(p.recvMax, q)
	}
	return added
}
