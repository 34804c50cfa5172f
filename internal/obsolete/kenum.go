package obsolete

import (
	"encoding/binary"
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
		var w uint64
		if len(p)-off >= 8 {
			w = binary.LittleEndian.Uint64(p[off:])
		} else {
			for j, c := range p[off:] {
				w |= uint64(c) << (8 * uint(j))
			}
		}
		for ; w != 0; w &= w - 1 {
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
// k-enumeration bitmaps at the sender. It keeps the bitmaps of the last k
// messages in a ring so that closure is a single shift-OR per direct
// predecessor.
type KTracker struct {
	k   int
	seq ident.Seq
	// ring is k bitmaps of w words each, cut from one array (row): slot
	// (seq-1) % k holds the bitmap of message seq while it remains inside
	// the window.
	w    int
	ring []uint64
}

// NewKTracker returns a tracker with window k. k must be positive.
func NewKTracker(k int) *KTracker {
	if k <= 0 {
		panic("obsolete: k must be positive")
	}
	w := (k + 63) / 64
	return &KTracker{k: k, w: w, ring: make([]uint64, k*w)}
}

// row is the bitmap of message seq's ring slot.
func (t *KTracker) row(seq ident.Seq) Bitmap {
	i := int(uint64(seq-1)%uint64(t.k)) * t.w
	return Bitmap(t.ring[i : i+t.w : i+t.w])
}

// Seq returns the last sequence number allocated.
func (t *KTracker) Seq() ident.Seq { return t.seq }

// Next allocates the next sequence number for a message that directly
// obsoletes the messages with the given sequence numbers. It returns the
// new sequence number and the wire annotation containing the transitive
// closure (bounded by the window).
//
// Direct predecessors outside the window are silently dropped, mirroring
// the paper: "it is very unlikely that two messages far apart in the
// message stream can be found simultaneously in the same buffer".
func (t *KTracker) Next(direct ...ident.Seq) (ident.Seq, []byte) {
	t.seq++
	seq := t.seq
	bm := t.row(seq)
	clear(bm)
	for _, d := range direct {
		if d == 0 || d >= seq || uint64(seq-d) > uint64(t.k) {
			continue
		}
		delta := int(seq - d)
		bm.Set(delta - 1)
		// Fold in d's own closure, shifted into seq's frame: a message at
		// distance i from d sits at distance delta+i from seq.
		bm.OrShift(t.row(d), delta)
	}
	bm.Trim(t.k)
	return seq, bm.Bytes()
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
// (one of the last k). It reports false if seq has fallen out of the
// window. Useful for diagnostics and tests.
func (t *KTracker) Annot(seq ident.Seq) ([]byte, bool) {
	if seq == 0 || seq > t.seq || uint64(t.seq-seq) >= uint64(t.k) {
		return nil, false
	}
	return t.row(seq).Bytes(), true
}
