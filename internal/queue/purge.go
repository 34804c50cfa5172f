package queue

import (
	"slices"
	"sort"

	"repro/internal/obsolete"
)

// Purge operations. An arriving message n is only ever related to the older
// entries of its own (view, sender) stream, and the relation reads off n's
// annotation which of them n obsoletes (see obsolete.Relation): each listed
// sequence number is checked against the stream's held counts and, if an
// entry may carry it, found in the stream by binary search — O(listed +
// matches · log stream), whatever the occupancy. obsolete.Empty never
// purges and keeps no index. An entry m is removed exactly when m is of n's
// view and sender and n lists it, and the removed entries are visited in
// FIFO order.

// PurgeFor removes the entries obsoleted by the (just received or about to
// be appended) message n, calling visit on each in FIFO order before its
// slot is cleared: the arrival-time purge for callers that release
// per-sender flow-control credits for what was removed. The entry is lent
// for the call only, and visit must not touch the queue; a nil visit
// discards. AppendPurge is the form for everyone else.
func (q *Queue) PurgeFor(n Item, visit func(*Item)) {
	q.purgeFor(n, visit)
}

// purgeFor is PurgeFor returning how many entries it removed.
func (q *Queue) purgeFor(n Item, visit func(*Item)) int {
	if n.Kind != Data || q.live == 0 || q.never {
		return 0
	}
	st := q.idx[idxKey{view: n.View, sender: n.Meta.Sender}]
	hits := q.obsoletedBy(st, n.Meta)
	if len(hits) == 0 {
		return 0
	}
	// One pass squeezes the hits out of the stream, moving the runs between
	// them down; the emptied stream keeps its capacity for the next idxAdd
	// (see index.go).
	s := st.ents
	w := hits[0]
	for h, i := range hits {
		ent := s[i]
		if visit != nil {
			visit(q.slot(ent.pos))
		}
		q.killSlot(ent.pos)
		st.count(ent.seq, -1)
		end := len(s)
		if h+1 < len(hits) {
			end = hits[h+1]
		}
		w += copy(s[w:], s[i+1:end])
	}
	st.ents = s[:w]
	q.stats.Purged += uint64(len(hits))
	return len(hits)
}

// obsoletedBy returns the positions in st — n's own (view, sender) stream —
// of the entries n obsoletes, ascending. The slice is the queue's scratch:
// valid until the next call.
func (q *Queue) obsoletedBy(st *senderStream, n obsolete.Msg) []int {
	hits := q.hits[:0]
	if st == nil || len(st.ents) == 0 || st.ents[0].seq >= n.Seq {
		return hits // only older entries are ever asked about
	}
	s := st.ents
	q.seqs = q.rel.AppendObsoleted(q.seqs[:0], n, s[0].seq)
	for _, seq := range q.seqs {
		if seq >= n.Seq || st.held[seq%heldSlots] == 0 {
			continue
		}
		i := sort.Search(len(s), func(i int) bool { return s[i].seq >= seq })
		for ; i < len(s) && s[i].seq == seq; i++ {
			hits = append(hits, i) // duplicate seqs: all of them
		}
	}
	// A listing promises neither an order nor distinct numbers.
	slices.Sort(hits)
	hits = slices.Compact(hits)
	q.hits = hits
	return hits
}

// CountPurgeableFor reports how many entries n's arrival would purge,
// without removing them. Used for the engine's all-or-nothing capacity
// check before committing a multicast.
func (q *Queue) CountPurgeableFor(n Item) int {
	if n.Kind != Data || q.live == 0 || q.never {
		return 0
	}
	return len(q.obsoletedBy(q.idx[idxKey{view: n.View, sender: n.Meta.Sender}], n.Meta))
}
