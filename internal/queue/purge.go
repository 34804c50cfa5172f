package queue

import (
	"slices"
	"sort"

	"repro/internal/obsolete"
)

// Purge operations. Three ways to find what an arriving message n makes
// obsolete, chosen once from what the relation declares:
//
//   - listed (obsolete.Listed): the relation reads the obsoleted sequence
//     numbers off n's annotation; each is checked against the stream's
//     held counts and, if an entry may carry it, found in n's own
//     (view, sender) stream by binary search — O(listed + matches · log
//     stream), whatever the occupancy.
//   - walk (obsolete.SenderLocal only, e.g. tagging): every older entry of
//     n's own stream is tested — O(sender's entries).
//   - scan (neither): the retained linear-scan reference walking every
//     entry, used for arbitrary relations (obsolete.Func) and as the
//     oracle the differential tests compare the other two against.
//
// All remove an entry m exactly when m is of n's view and m ≺ n, and visit
// the removed entries in FIFO order; for per-sender seq-ordered streams (the
// protocol invariant) they produce identical kept-sets, counts and stats.

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
	if q.idx == nil {
		return q.purgeForScan(n, visit)
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
		return hits // SenderLocal guarantees old.Seq < new.Seq
	}
	s := st.ents
	if q.listed == nil {
		for i := 0; i < len(s) && s[i].seq < n.Seq; i++ {
			if q.rel.Obsoletes(q.slot(s[i].pos).Meta, n) {
				hits = append(hits, i)
			}
		}
		q.hits = hits
		return hits
	}
	q.seqs = q.listed.AppendObsoleted(q.seqs[:0], n, s[0].seq)
	for _, seq := range q.seqs {
		if seq >= n.Seq || st.held[seq%heldSlots] == 0 {
			continue
		}
		i := sort.Search(len(s), func(i int) bool { return s[i].seq >= seq })
		for ; i < len(s) && s[i].seq == seq; i++ {
			hits = append(hits, i) // duplicate seqs: all of them
		}
	}
	// The capability promises neither an order nor distinct numbers.
	slices.Sort(hits)
	hits = slices.Compact(hits)
	q.hits = hits
	return hits
}

func (q *Queue) purgeForScan(n Item, visit func(*Item)) int {
	removed := 0
	for p := q.head; p != q.tail; p++ {
		m := q.slot(p)
		if m.Kind != Data || m.View != n.View {
			continue
		}
		if q.rel.Obsoletes(m.Meta, n.Meta) {
			if visit != nil {
				visit(m)
			}
			q.killSlot(p)
			removed++
		}
	}
	q.stats.Purged += uint64(removed)
	return removed
}

// CountPurgeableFor reports how many entries n's arrival would purge,
// without removing them. Used for the engine's all-or-nothing capacity
// check before committing a multicast.
func (q *Queue) CountPurgeableFor(n Item) int {
	if n.Kind != Data || q.live == 0 || q.never {
		return 0
	}
	if q.idx != nil {
		return len(q.obsoletedBy(q.idx[idxKey{view: n.View, sender: n.Meta.Sender}], n.Meta))
	}
	c := 0
	for p := q.head; p != q.tail; p++ {
		m := q.slot(p)
		if m.Kind == Data && m.View == n.View && q.rel.Obsoletes(m.Meta, n.Meta) {
			c++
		}
	}
	return c
}

// Covers reports whether some queued data entry n satisfies m ⊑ n: m is a
// duplicate of n or obsoleted by it (the test transition t3 applies to an
// arriving message against this queue). It scans every entry, and has no
// indexed form because it needs none: under a sender-local relation the
// engine's reception frontier already answers the question (core's
// processData), so only relations that reach across senders ask here.
//
// Coverage is deliberately view-blind, like the engine's t3 check:
// sequence numbers are global per sender, so a message queued under an
// older view still covers a late duplicate.
func (q *Queue) Covers(m obsolete.Msg) bool {
	return q.AnyRef(func(it *Item) bool {
		return it.Kind == Data && obsolete.CoveredBy(q.rel, m, it.Meta)
	})
}
