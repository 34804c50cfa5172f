package queue

import "repro/internal/obsolete"

// Purge operations. Two implementations coexist:
//
//   - indexed (idx != nil): candidates come from the incoming message's
//     own (view, sender) stream, seq-bounded by the relation's window —
//     O(window) per operation for k-enumeration, O(sender's entries)
//     otherwise.
//   - scan (idx == nil): the retained linear-scan reference walking every
//     entry, used for arbitrary relations (obsolete.Func) and as the
//     oracle the differential tests compare the indexed path against.
//
// Both remove an entry m exactly when a live entry n of the same view
// satisfies m ≺ n, examining entries in FIFO order; for per-sender
// seq-ordered streams (the protocol invariant) the two produce identical
// kept-sets, counts and stats.

// PurgeFor removes and returns the entries obsoleted by the (just received
// or about to be appended) message n. This is the arrival-time purge used
// on the hot path; Purge remains available for the full sweep. The removed
// items are returned so the caller can release per-sender flow-control
// credits. Allocation-sensitive callers should use PurgeForInto.
func (q *Queue) PurgeFor(n Item) []Item {
	removed, _ := q.purgeFor(n, nil, true)
	return removed
}

// PurgeForInto is PurgeFor appending the removed entries to dst (which may
// be a reused scratch slice) instead of allocating a fresh slice.
func (q *Queue) PurgeForInto(n Item, dst []Item) []Item {
	dst, _ = q.purgeFor(n, dst, true)
	return dst
}

// PurgeForN is PurgeFor for callers that only need the number of entries
// removed; it does not materialise them.
func (q *Queue) PurgeForN(n Item) int {
	_, c := q.purgeFor(n, nil, false)
	return c
}

func (q *Queue) purgeFor(n Item, dst []Item, collect bool) ([]Item, int) {
	if n.Kind != Data || q.live == 0 || q.never {
		return dst, 0
	}
	if q.idx != nil {
		return q.purgeForIndexed(n, dst, collect)
	}
	return q.purgeForScan(n, dst, collect)
}

func (q *Queue) purgeForIndexed(n Item, dst []Item, collect bool) ([]Item, int) {
	k := idxKey{view: n.View, sender: n.Meta.Sender}
	s := q.idx[k]
	lo := q.candidateFloor(s, n.Meta.Seq)
	removed := 0
	w := lo
	i := lo
	for ; i < len(s); i++ {
		ent := s[i]
		if ent.seq >= n.Meta.Seq {
			break // SenderLocal guarantees old.Seq < new.Seq
		}
		m := q.slot(ent.pos)
		if q.rel.Obsoletes(m.Meta, n.Meta) {
			if collect {
				dst = append(dst, *m)
			}
			q.killSlot(ent.pos)
			removed++
			continue
		}
		s[w] = ent
		w++
	}
	if removed > 0 {
		// s[:w] shares s's backing array, so an emptied stream keeps its
		// capacity for the next idxAdd (see index.go).
		q.idx[k] = append(s[:w], s[i:]...)
		q.stats.Purged += uint64(removed)
	}
	return dst, removed
}

func (q *Queue) purgeForScan(n Item, dst []Item, collect bool) ([]Item, int) {
	removed := 0
	for p := q.head; p != q.tail; p++ {
		m := q.slot(p)
		if m.Kind != Data || m.View != n.View {
			continue
		}
		if q.rel.Obsoletes(m.Meta, n.Meta) {
			if collect {
				dst = append(dst, *m)
			}
			q.killSlot(p)
			removed++
		}
	}
	q.stats.Purged += uint64(removed)
	return dst, removed
}

// CountPurgeableFor reports how many entries PurgeFor(n) would remove,
// without removing them. Used for the engine's all-or-nothing capacity
// check before committing a multicast.
func (q *Queue) CountPurgeableFor(n Item) int {
	if n.Kind != Data || q.live == 0 || q.never {
		return 0
	}
	c := 0
	if q.idx != nil {
		s := q.idx[idxKey{view: n.View, sender: n.Meta.Sender}]
		for i := q.candidateFloor(s, n.Meta.Seq); i < len(s) && s[i].seq < n.Meta.Seq; i++ {
			if q.rel.Obsoletes(q.slot(s[i].pos).Meta, n.Meta) {
				c++
			}
		}
		return c
	}
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

// Purge implements the purge function of Figure 1: repeatedly remove any
// data entry m such that another data entry m' of the same view with
// m ≺ m' is present. It returns the number of entries removed.
//
// Entries are examined in FIFO order and removed as found; a removed
// entry stops serving as a witness for later ones. This is the paper's
// while-loop executed in ascending partial-order position: witnesses are
// strictly greater in the order, so when each stream is queued in
// ascending sequence order every witness is examined — still present —
// after the entries it covers, and maximal elements are never removed,
// the invariant the correctness argument of §3.4 rests on.
func (q *Queue) Purge() int {
	if q.live < 2 || q.never {
		return 0
	}
	var removed int
	if q.idx != nil {
		removed = q.purgeSweepIndexed()
	} else {
		removed = q.purgeSweepScan()
	}
	q.stats.Purged += uint64(removed)
	return removed
}

// purgeSweepIndexed sweeps one (view, sender) stream at a time: an entry's
// witnesses can only be later entries of its own stream, at most window
// sequence numbers ahead.
func (q *Queue) purgeSweepIndexed() int {
	removed := 0
	for k, s := range q.idx {
		n := len(s)
		out := s[:0]
		for i := 0; i < n; i++ {
			ent := s[i]
			m := q.slot(ent.pos)
			dead := false
			for j := i + 1; j < n; j++ {
				if q.window > 0 && uint64(s[j].seq-ent.seq) > uint64(q.window) {
					break
				}
				if q.rel.Obsoletes(m.Meta, q.slot(s[j].pos).Meta) {
					dead = true
					break
				}
			}
			if dead {
				q.killSlot(ent.pos)
				removed++
				continue
			}
			out = append(out, ent)
		}
		if len(out) != n {
			q.idx[k] = out
		}
	}
	return removed
}

// purgeSweepScan is the reference full sweep: for each live entry, look
// for a live witness anywhere in the queue.
func (q *Queue) purgeSweepScan() int {
	removed := 0
	for p := q.head; p != q.tail; p++ {
		m := q.slot(p)
		if m.Kind != Data {
			continue
		}
		for x := q.head; x != q.tail; x++ {
			if x == p {
				continue
			}
			n := q.slot(x)
			if n.Kind != Data || n.View != m.View {
				continue
			}
			if q.rel.Obsoletes(m.Meta, n.Meta) {
				q.killSlot(p)
				removed++
				break
			}
		}
	}
	return removed
}
