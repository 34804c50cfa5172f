package obsolete

import (
	"encoding/binary"
	"sort"

	"repro/internal/ident"
)

// Enumeration is the message-enumeration encoding of §4.2: every message
// explicitly lists the sequence numbers of the earlier messages (of the
// same sender) that it makes obsolete. EnumTracker lists the transitive
// closure within its window, and so does NewTagTracker for an item's
// updates, which lists the item's previous update at any distance besides.
//
// The annotation encodes the list compactly as uvarint deltas
// (new.Seq - old.Seq), sorted ascending.
type Enumeration struct{}

// Name implements Relation.
func (Enumeration) Name() string { return "enumeration" }

// Obsoletes implements Relation, reading the listing.
func (r Enumeration) Obsoletes(old, new Msg) bool { return listed(r, old, new) }

// AppendObsoleted implements Relation: the annotation is the list, read up
// to the first malformed delta.
func (Enumeration) AppendObsoleted(dst []ident.Seq, new Msg, floor ident.Seq) []ident.Seq {
	for p := new.Annot; len(p) > 0; {
		d, n := binary.Uvarint(p)
		if n <= 0 {
			break
		}
		if d > 0 && d <= uint64(new.Seq) && new.Seq-ident.Seq(d) >= floor {
			dst = append(dst, new.Seq-ident.Seq(d))
		}
		p = p[n:]
	}
	return dst
}

// EnumAnnot builds the enumeration annotation of a message with sequence
// number seq obsoleting the given earlier sequence numbers; the trackers
// pass it the closure.
func EnumAnnot(seq ident.Seq, preds []ident.Seq) []byte {
	if len(preds) == 0 {
		return nil
	}
	ds := make([]uint64, 0, len(preds))
	for _, p := range preds {
		if p >= seq {
			continue
		}
		ds = append(ds, uint64(seq-p))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	out := make([]byte, 0, len(ds)*2)
	var buf [binary.MaxVarintLen64]byte
	for _, d := range ds {
		n := binary.PutUvarint(buf[:], d)
		out = append(out, buf[:n]...)
	}
	return out
}

// EnumTracker assigns sequence numbers and computes transitively closed
// enumeration annotations at the sender. As the paper observes, "only the
// recent messages from the enumeration need to be carried by each message
// without any significant impact on the purging efficiency": the tracker
// keeps a sliding window of the last Window messages' predecessor sets and
// drops anything older.
type EnumTracker struct {
	// Window bounds how far back enumerated predecessors may reach.
	window int
	seq    ident.Seq
	// preds[s] is the closed predecessor set of recent message s.
	preds map[ident.Seq][]ident.Seq
	// far lists direct predecessors beyond the window too, without their
	// closure (NewTagTracker: an item's previous update at any distance).
	far bool
}

// NewEnumTracker returns a tracker keeping a window of the given size
// (how many recent messages remain enumerable). Window must be positive.
func NewEnumTracker(window int) *EnumTracker {
	if window <= 0 {
		panic("obsolete: enumeration window must be positive")
	}
	return &EnumTracker{
		window: window,
		preds:  make(map[ident.Seq][]ident.Seq),
	}
}

// Next allocates the next sequence number for a message that directly
// obsoletes the messages with the given sequence numbers, and returns the
// number together with the transitively closed annotation.
func (t *EnumTracker) Next(direct ...ident.Seq) (ident.Seq, []byte) {
	t.seq++
	seq := t.seq
	closed := map[ident.Seq]struct{}{}
	lo := ident.Seq(1)
	if uint64(seq) > uint64(t.window) {
		lo = seq - ident.Seq(t.window)
	}
	for _, d := range direct {
		if d == 0 || d >= seq || d < lo && !t.far {
			continue
		}
		closed[d] = struct{}{}
		for _, dd := range t.preds[d] {
			if dd >= lo {
				closed[dd] = struct{}{}
			}
		}
	}
	set := make([]ident.Seq, 0, len(closed))
	for s := range closed {
		set = append(set, s)
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	t.preds[seq] = set
	delete(t.preds, seq-ident.Seq(t.window)-1)
	return seq, EnumAnnot(seq, set)
}

// Seq returns the last sequence number allocated.
func (t *EnumTracker) Seq() ident.Seq { return t.seq }
