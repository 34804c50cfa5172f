package queue

import (
	"sort"

	"repro/internal/ident"
)

// Sender index. For sender-local relations (obsolete.SenderLocal) purge
// only ever relates entries of one (view, sender) stream, so the queue
// keeps, per stream, the seq-ordered list of its data entries' absolute
// ring positions. Purge operations then bound their candidate set to one
// stream — and, with a window hint (obsolete.Windowed), to a seq range
// found by binary search — instead of scanning the whole buffer.

type idxKey struct {
	view   uint64
	sender ident.PID
}

type idxEnt struct {
	seq ident.Seq
	pos uint64 // absolute ring position (see ring.go)
}

// idxAdd records a data entry. The protocol appends each stream in
// ascending seq order, making this an O(1) append; out-of-order inserts
// (possible only through direct queue use) fall back to a sorted insert.
func (q *Queue) idxAdd(k idxKey, seq ident.Seq, pos uint64) {
	s, ok := q.idx[k]
	if !ok {
		// A new stream. Emptied streams keep their map entry so chained-purge
		// workloads, where a stream oscillates between one entry and none on
		// every message, reuse the backing array instead of reallocating it
		// per message — but only within the view being appended to: a
		// drained stream of another view is not appended to again, so its
		// key goes now and the index stays O(senders + live entries) for the
		// life of the group.
		for old, ents := range q.idx {
			if len(ents) == 0 && old.view != k.view {
				delete(q.idx, old)
			}
		}
	}
	if n := len(s); n == 0 || s[n-1].seq <= seq {
		q.idx[k] = append(s, idxEnt{seq: seq, pos: pos})
		return
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].seq > seq })
	s = append(s, idxEnt{})
	copy(s[i+1:], s[i:])
	s[i] = idxEnt{seq: seq, pos: pos}
	q.idx[k] = s
}

// idxDrop removes the entry with the given seq and position.
func (q *Queue) idxDrop(k idxKey, seq ident.Seq, pos uint64) {
	s := q.idx[k]
	i := sort.Search(len(s), func(i int) bool { return s[i].seq >= seq })
	for i < len(s) && s[i].pos != pos {
		i++ // duplicate seqs: match by position
	}
	if i == len(s) {
		return
	}
	switch {
	case len(s) == 1: // necessarily i == 0
		// Truncate rather than reslice so the stream keeps its full
		// backing array: the next idxAdd reuses it instead of
		// allocating. Emptied streams stay in the map until a later view
		// starts a stream (see idxAdd).
		s = s[:0]
	case i == 0:
		// PopHead always drops the stream's oldest entry: reslice instead
		// of memmoving the whole slice, keeping pops O(1). The vacated
		// front cells are reclaimed when append reallocates.
		s = s[1:]
	default:
		s = append(s[:i], s[i+1:]...)
	}
	q.idx[k] = s
}

// rebuildIndex reconstructs the index from the ring after compaction has
// reassigned positions. Map entries and their backing arrays are reused
// across rebuilds — in the steady state a rebuild allocates nothing — and
// streams left with no live entries are dropped afterwards.
func (q *Queue) rebuildIndex() {
	for k, s := range q.idx {
		q.idx[k] = s[:0]
	}
	for p := q.head; p != q.tail; p++ {
		it := q.slot(p)
		if it.Kind == Data {
			q.idxAdd(idxKey{view: it.View, sender: it.Meta.Sender}, it.Meta.Seq, p)
		}
	}
	for k, s := range q.idx {
		if len(s) == 0 {
			delete(q.idx, k)
		}
	}
}

// candidateFloor returns the first index in s whose entry can possibly be
// obsoleted by a message with sequence number seq under the configured
// window (0 when unbounded).
func (q *Queue) candidateFloor(s []idxEnt, seq ident.Seq) int {
	if q.window <= 0 || uint64(seq) <= uint64(q.window) {
		return 0
	}
	min := seq - ident.Seq(q.window)
	return sort.Search(len(s), func(i int) bool { return s[i].seq >= min })
}
