package obsolete

import (
	"fmt"
	"math/bits"

	"repro/internal/ident"
)

// KEnumeration is the k-enumeration encoding of §4.2, the representation
// the paper recommends and evaluates: every message carries a k-bit bitmap
// over the k messages preceding it in the sender's stream. If bit n is
// set, the message obsoletes its (n+1)-th predecessor.
//
// Formally, with m.sn the sequence number and m.bm the bitmap:
//
//	m ⊑ m'  iff  m'.sn - k ≤ m.sn < m'.sn  and  m'.bm[m'.sn - m.sn - 1]
//
// (the paper indexes bitmaps from 1; we index from 0).
//
// Transitivity is the sender's responsibility: KTracker composes bitmaps
// with shift-OR so the annotation of every message already contains the
// transitive closure, truncated to the window k.
type KEnumeration struct {
	// K is the window size in messages. The paper's evaluation uses
	// k = 2 × buffer size (§5.2).
	K int
}

// Name implements Relation.
func (r KEnumeration) Name() string { return fmt.Sprintf("k-enumeration(k=%d)", r.K) }

// Obsoletes implements Relation, reading the listing.
func (r KEnumeration) Obsoletes(old, new Msg) bool { return listed(r, old, new) }

// AppendObsoleted implements Relation: bit i of the bitmap names sequence
// number new.Seq-1-i, and bits at k or beyond name nothing, so a window of
// k ≤ 0 names nothing at all. The numbers come out descending.
func (r KEnumeration) AppendObsoleted(dst []ident.Seq, new Msg, floor ident.Seq) []ident.Seq {
	if new.Seq <= floor || r.K <= 0 {
		return dst
	}
	n := uint64(new.Seq - floor) // bits 0..n-1 name numbers at or above floor
	if n > uint64(r.K) {
		n = uint64(r.K)
	}
	p := new.Annot
	if m := (n + 7) / 8; uint64(len(p)) > m {
		p = p[:m]
	}
	for off := 0; off < len(p); off += 8 {
		for w := word(p, off); w != 0; w &= w - 1 {
			i := uint64(off*8 + bits.TrailingZeros64(w))
			if i >= n {
				return dst
			}
			dst = append(dst, new.Seq-1-ident.Seq(i))
		}
	}
	return dst
}

// KTracker allocates sequence numbers and computes transitively closed
// k-enumeration bitmaps at the sender. It keeps the annotation it returned
// for each of the last k messages in a ring, so that closure is a single
// shift-OR per direct predecessor.
type KTracker struct {
	k   int
	seq ident.Seq
	// ring holds at slot (seq-1) % k the annotation of message seq while
	// it remains inside the window. bm and src are one window of words
	// each, cut from one array at the first message: Next builds the new
	// bitmap in bm, zero outside the words it writes, and loads a
	// predecessor's annotation into src.
	ring    [][]byte
	bm, src Bitmap
}

// NewKTracker returns a tracker with window k. k must be positive.
func NewKTracker(k int) *KTracker {
	if k <= 0 {
		panic("obsolete: k must be positive")
	}
	return &KTracker{k: k, ring: make([][]byte, k)}
}

// slot is message seq's place in the ring.
func (t *KTracker) slot(seq ident.Seq) *[]byte {
	return &t.ring[uint64(seq-1)%uint64(t.k)]
}

// Seq returns the last sequence number allocated.
func (t *KTracker) Seq() ident.Seq { return t.seq }

// Next allocates the next sequence number for a message that directly
// obsoletes the messages with the given sequence numbers. It returns the
// new sequence number and the wire annotation containing the transitive
// closure (bounded by the window). The annotation is shared with the
// tracker, which folds it into later ones: it must never be written.
//
// Direct predecessors outside the window are silently dropped, mirroring
// the paper: "it is very unlikely that two messages far apart in the
// message stream can be found simultaneously in the same buffer".
func (t *KTracker) Next(direct ...ident.Seq) (ident.Seq, []byte) {
	if t.bm == nil {
		w := (t.k + 63) / 64
		words := make(Bitmap, 2*w)
		t.bm, t.src = words[:w:w], words[w:]
	}
	t.seq++
	seq, n := t.seq, 0 // n: how many words of bm may be written
	for _, d := range direct {
		if d == 0 || d >= seq || uint64(seq-d) > uint64(t.k) {
			continue
		}
		delta := int(seq - d)
		t.bm.Set(delta - 1)
		// Fold in d's own closure, shifted into seq's frame: a message at
		// distance i from d sits at distance delta+i from seq.
		src := t.src.load(*t.slot(d))
		t.bm.OrShift(src, delta)
		n = max(n, min(len(t.bm), len(src)+delta/64+1))
	}
	bm := t.bm[:n]
	bm.Trim(t.k)
	annot := bm.Bytes()
	clear(bm)
	*t.slot(seq) = annot
	return seq, annot
}

// Skip fast-forwards the tracker to sequence number to, so the next
// message is allocated to+1. It exists for a process resuming its own
// stream after a rejoin: the engine's frontier tells it where its earlier
// incarnation left off (core.Stats.LastSent), but the tracker holding the
// bitmaps of those messages is gone. The ring is cleared, so nothing
// allocated after Skip claims to obsolete anything at or before to —
// safe (claiming nothing is always sound), at the cost of one window of
// lost purging opportunity. Skipping backwards is a no-op.
func (t *KTracker) Skip(to ident.Seq) {
	if to <= t.seq {
		return
	}
	t.seq = to
	clear(t.ring)
}

// Annot returns the wire annotation of an already-allocated recent message
// (one of the last k), shared as Next returned it. It reports false if seq
// has fallen out of the window. Useful for diagnostics and tests.
func (t *KTracker) Annot(seq ident.Seq) ([]byte, bool) {
	if seq == 0 || seq > t.seq || uint64(t.seq-seq) >= uint64(t.k) {
		return nil, false
	}
	return *t.slot(seq), true
}
