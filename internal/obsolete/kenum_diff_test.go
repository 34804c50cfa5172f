package obsolete

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ident"
)

// refKTracker is the tracker KTracker replaced, kept as the reference its
// annotations are held against: a ring of k bitmaps of one window each,
// every one built over the whole window and serialised byte by byte.
type refKTracker struct {
	k, w int
	seq  ident.Seq
	ring []uint64
}

func newRefKTracker(k int) *refKTracker {
	w := (k + 63) / 64
	return &refKTracker{k: k, w: w, ring: make([]uint64, k*w)}
}

func (t *refKTracker) row(seq ident.Seq) Bitmap {
	i := int(uint64(seq-1)%uint64(t.k)) * t.w
	return Bitmap(t.ring[i : i+t.w : i+t.w])
}

func (t *refKTracker) Next(direct ...ident.Seq) (ident.Seq, []byte) {
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
		bm.OrShift(t.row(d), delta)
	}
	bm.Trim(t.k)
	return seq, refBytes(bm)
}

func (t *refKTracker) Skip(to ident.Seq) {
	if to > t.seq {
		t.seq = to
		clear(t.ring)
	}
}

// refBytes is Bitmap.Bytes as it was, byte by byte.
func refBytes(b Bitmap) []byte {
	last := len(b) - 1
	for last >= 0 && b[last] == 0 {
		last--
	}
	if last < 0 {
		return []byte{}
	}
	out := make([]byte, last*8+(bits.Len64(b[last])+7)/8)
	for i := range out {
		out[i] = byte(b[i/8] >> (8 * uint(i%8)))
	}
	return out
}

// TestKTrackerMatchesReference: KTracker, which keeps the annotations it
// returned and builds each new bitmap over the words it writes, returns
// byte for byte what the whole-window tracker it replaced returns, over
// random streams. Each step names up to three direct predecessors: some
// exactly k back (the oldest the window holds, whose own closure falls out
// of it entirely — a shift of a whole number of words when k is a multiple
// of 64), some beyond the window, some anywhere inside it; now and then
// the stream skips ahead, as after a rejoin.
func TestKTrackerMatchesReference(t *testing.T) {
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	for _, k := range []int{1, 7, 63, 64, 65, 128, 2048} {
		rng := rand.New(rand.NewSource(int64(k)))
		got, want := NewKTracker(k), newRefKTracker(k)
		var direct []ident.Seq
		atK, total := 0, 0
		for step := 0; step < steps; step++ {
			if rng.Intn(20_000) == 0 {
				to := got.Seq() + ident.Seq(rng.Intn(3*k))
				got.Skip(to)
				want.Skip(to)
			}
			next := got.Seq() + 1
			direct = direct[:0]
			for n := rng.Intn(4); n > 0; n-- {
				switch r := rng.Intn(16); {
				case r < 2:
					direct = append(direct, next-ident.Seq(min(k, int(next-1))))
					atK++
				case r < 3:
					direct = append(direct, next-ident.Seq(min(k+1, int(next-1))))
				default:
					direct = append(direct, next-1-ident.Seq(rng.Intn(min(k, int(next-1))+1)))
				}
			}
			gs, ga := got.Next(direct...)
			ws, wa := want.Next(direct...)
			if gs != ws || !bytes.Equal(ga, wa) {
				t.Fatalf("k=%d step %d, direct %v: got %d %x, want %d %x", k, step, direct, gs, ga, ws, wa)
			}
			total += len(ga)
		}
		if atK == 0 {
			t.Fatalf("k=%d: no predecessor exactly k back", k)
		}
		t.Logf("k=%d: mean annotation %.1f B", k, float64(total)/float64(steps))
	}
}
