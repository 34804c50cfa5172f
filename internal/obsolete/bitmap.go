package obsolete

import (
	"encoding/binary"
	"math/bits"
)

// Bitmap is a little-endian bit set used by the k-enumeration encoding.
// Bit i of the bitmap attached to a message with sequence number s means
// "this message obsoletes the message with sequence number s-1-i".
//
// Bitmaps are plain []uint64 slices so they can be manipulated with shift
// and OR only, which is precisely the property §4.2 of the paper exploits:
// "the k-enumeration ... makes it very easy to compute the representation
// of transitive obsolescence relations using only shift and binary or
// operators".
//
// Audit (svs-check): Bitmap is an annotation representation, not a
// Relation — it answers no Obsoletes and lists nothing of its own. The
// relation interpreting these bitmaps is KEnumeration (kenum.go), whose
// Obsoletes reads its listing; its laws, its sender-locality and the
// safety of purging by its listing are exhaustively verified by
// internal/relcheck against the examples/kenum.yaml model in CI.
type Bitmap []uint64

// NewBitmap returns a zeroed bitmap able to hold k bits.
func NewBitmap(k int) Bitmap {
	return make(Bitmap, (k+63)/64)
}

// Set sets bit i. It panics if i is outside the bitmap.
func (b Bitmap) Set(i int) {
	b[i/64] |= 1 << (uint(i) % 64)
}

// Get reports whether bit i is set. Out-of-range bits read as false.
func (b Bitmap) Get(i int) bool {
	if i < 0 || i/64 >= len(b) {
		return false
	}
	return b[i/64]&(1<<(uint(i)%64)) != 0
}

// OrShift folds src shifted left by shift bits into b (b |= src << shift).
// Bits shifted beyond len(b) are dropped; this implements the window
// truncation of the k-enumeration: predecessors further than k away fall
// off the map.
func (b Bitmap) OrShift(src Bitmap, shift int) {
	if shift < 0 {
		panic("obsolete: negative shift")
	}
	word, off := shift/64, uint(shift)%64
	for i := 0; i < len(src); i++ {
		lo := i + word
		if lo >= len(b) {
			break
		}
		b[lo] |= src[i] << off
		if off != 0 && lo+1 < len(b) {
			b[lo+1] |= src[i] >> (64 - off)
		}
	}
}

// Trim clears every bit at position k or beyond, enforcing the window.
func (b Bitmap) Trim(k int) {
	word, off := k/64, uint(k)%64
	for i := range b {
		switch {
		case i > word:
			b[i] = 0
		case i == word:
			b[i] &= (1 << off) - 1
		}
	}
}

// Empty reports whether no bit is set.
func (b Bitmap) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of b.
func (b Bitmap) Clone() Bitmap {
	out := make(Bitmap, len(b))
	copy(out, b)
	return out
}

// Bytes serialises b to the compact little-endian wire form used in
// message annotations. Trailing zero bytes are stripped so that sparse
// bitmaps stay short on the wire.
func (b Bitmap) Bytes() []byte {
	last := len(b) - 1
	for last >= 0 && b[last] == 0 {
		last--
	}
	if last < 0 {
		return []byte{}
	}
	out := make([]byte, last*8+8)
	for i, w := range b[:last+1] {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	n := last*8 + (bits.Len64(b[last])+7)/8
	return out[:n:n]
}

// BitmapFromBytes parses the wire form produced by Bytes.
func BitmapFromBytes(p []byte) Bitmap {
	return make(Bitmap, (len(p)+7)/8).load(p)
}

// load fills the first words of b with the wire form p, which must fit,
// and returns them.
func (b Bitmap) load(p []byte) Bitmap {
	b = b[:(len(p)+7)/8]
	for i := range b {
		b[i] = word(p, i*8)
	}
	return b
}

// word is the little-endian word at byte off of the wire form p, zero past
// its end.
func word(p []byte, off int) uint64 {
	if len(p)-off >= 8 {
		return binary.LittleEndian.Uint64(p[off:])
	}
	var w uint64
	for j, c := range p[off:] {
		w |= uint64(c) << (8 * uint(j))
	}
	return w
}
