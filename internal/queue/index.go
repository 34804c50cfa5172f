package queue

import (
	"sort"

	"repro/internal/ident"
)

// Sender index. Purge only ever relates entries of one (view, sender)
// stream, so the queue keeps, per stream, the seq-ordered list of its data
// entries' absolute ring positions. A purge then looks up the sequence
// numbers the arrival lists in its own stream by binary search instead of
// scanning the whole buffer.

type idxKey struct {
	view   uint64
	sender ident.PID
}

type idxEnt struct {
	seq ident.Seq
	pos uint64 // absolute ring position (see ring.go)
}

// senderStream is the index of one (view, sender) stream.
type senderStream struct {
	ents []idxEnt // seq-ordered
	// base is the largest array ents has lain in. Pops leave ents a suffix
	// of its array; a stream that empties starts again at base's front, so
	// filling and draining it allocates nothing once base has grown.
	base []idxEnt
	// held counts the entries per sequence number modulo heldSlots: most
	// listed numbers name entries purged long ago, and a zero count says so
	// without a search. A non-zero count may be another number's — it is
	// only a reason to search, never an answer.
	held []uint16
}

const heldSlots = 4096 // a power of two, several times the span of a stream in the engine's 1,024-entry buffers

// count records that delta entries numbered seq joined (or, negative, left).
func (st *senderStream) count(seq ident.Seq, delta int) {
	st.held[seq%heldSlots] += uint16(delta)
}

// idxAdd records a data entry. The protocol appends each stream in
// ascending seq order, making this an O(1) append; out-of-order inserts
// (possible only through direct queue use) fall back to a sorted insert.
func (q *Queue) idxAdd(k idxKey, seq ident.Seq, pos uint64) {
	st := q.idx[k]
	if st == nil {
		// A new stream. Emptied streams keep their map entry so chained-purge
		// workloads, where a stream oscillates between one entry and none on
		// every message, reuse the backing array instead of reallocating it
		// per message — but only within the view being appended to: a
		// drained stream of another view is not appended to again, so its
		// key goes now and the index stays O(senders + live entries) for the
		// life of the group.
		for old, ost := range q.idx {
			if len(ost.ents) == 0 && old.view != k.view {
				delete(q.idx, old)
			}
		}
		st = &senderStream{held: make([]uint16, heldSlots)}
		q.idx[k] = st
	}
	st.count(seq, 1)
	s := st.ents
	if n := len(s); n == 0 || s[n-1].seq <= seq {
		s = append(s, idxEnt{seq: seq, pos: pos})
	} else {
		i := sort.Search(len(s), func(i int) bool { return s[i].seq > seq })
		s = append(s, idxEnt{})
		copy(s[i+1:], s[i:])
		s[i] = idxEnt{seq: seq, pos: pos}
	}
	if st.ents = s; cap(s) > cap(st.base) {
		st.base = s
	}
}

// idxDrop removes the entry with the given seq and position.
func (q *Queue) idxDrop(k idxKey, seq ident.Seq, pos uint64) {
	st := q.idx[k]
	if st == nil {
		return
	}
	s := st.ents
	i := sort.Search(len(s), func(i int) bool { return s[i].seq >= seq })
	for i < len(s) && s[i].pos != pos {
		i++ // duplicate seqs: match by position
	}
	if i == len(s) {
		return
	}
	st.count(seq, -1)
	switch {
	case len(s) == 1: // necessarily i == 0
		// Start again at the front of the stream's largest array rather
		// than in the slack the pops left: the next idxAdds reuse it
		// instead of allocating. Emptied streams stay in the map until a
		// later view starts a stream (see idxAdd).
		st.ents = st.base[:0]
	case i == 0:
		// PopHead always drops the stream's oldest entry: reslice instead
		// of memmoving the whole slice, keeping pops O(1). The vacated
		// front cells are reclaimed when append reallocates.
		st.ents = s[1:]
	default:
		st.ents = append(s[:i], s[i+1:]...)
	}
}

// rebuildIndex reconstructs the index from the ring after compaction has
// reassigned positions. Map entries and their backing arrays are reused
// across rebuilds, those of streams left with no live entries included:
// compaction runs as an entry is pushed, and most often that entry's
// stream is one the queue just drained, so in the steady state a rebuild
// allocates nothing. Emptied streams of other views go as idxAdd starts a
// stream.
func (q *Queue) rebuildIndex() {
	for _, st := range q.idx {
		st.ents = st.base[:0]
		clear(st.held)
	}
	for p := q.head; p != q.tail; p++ {
		it := q.slot(p)
		if it.Kind == Data {
			q.idxAdd(idxKey{view: it.View, sender: it.Meta.Sender}, it.Meta.Seq, p)
		}
	}
}
