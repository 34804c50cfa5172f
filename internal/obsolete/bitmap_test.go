package obsolete

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	if b.Get(-1) || b.Get(1<<20) {
		t.Fatal("out-of-range Get should be false")
	}
}

func TestBitmapOrShift(t *testing.T) {
	tests := []struct {
		name  string
		src   []int
		shift int
		k     int
		want  []int
	}{
		{"zero shift", []int{0, 5}, 0, 64, []int{0, 5}},
		{"small shift", []int{0, 5}, 3, 64, []int{3, 8}},
		{"word boundary", []int{0, 63}, 1, 128, []int{1, 64}},
		{"cross word", []int{60}, 10, 128, []int{70}},
		{"exact word shift", []int{0, 1}, 64, 128, []int{64, 65}},
		{"drop beyond", []int{60}, 10, 64, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			src := NewBitmap(tc.k)
			for _, i := range tc.src {
				src.Set(i)
			}
			dst := NewBitmap(tc.k)
			dst.OrShift(src, tc.shift)
			dst.Trim(tc.k)
			for _, i := range tc.want {
				if !dst.Get(i) {
					t.Errorf("bit %d not set", i)
				}
			}
			if got, want := dst.Count(), len(tc.want); got != want {
				t.Errorf("Count = %d, want %d", got, want)
			}
		})
	}
}

func TestBitmapOrShiftMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const k = 192
	for trial := 0; trial < 200; trial++ {
		src := NewBitmap(k)
		for i := 0; i < k; i++ {
			if rng.Intn(3) == 0 {
				src.Set(i)
			}
		}
		shift := rng.Intn(k + 10)
		fast := NewBitmap(k)
		fast.OrShift(src, shift)
		fast.Trim(k)
		slow := NewBitmap(k)
		for i := 0; i < k; i++ {
			if src.Get(i) && i+shift < k {
				slow.Set(i + shift)
			}
		}
		for i := 0; i < k; i++ {
			if fast.Get(i) != slow.Get(i) {
				t.Fatalf("trial %d shift %d: bit %d fast=%v slow=%v",
					trial, shift, i, fast.Get(i), slow.Get(i))
			}
		}
	}
}

func TestBitmapBytesRoundTrip(t *testing.T) {
	f := func(words []uint64) bool {
		b := Bitmap(words)
		got := BitmapFromBytes(b.Bytes())
		// Compare bit by bit over the longer of the two.
		n := len(b) * 64
		for i := 0; i < n; i++ {
			if b.Get(i) != got.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapBytesStripsTrailingZeros(t *testing.T) {
	b := NewBitmap(128)
	if got := b.Bytes(); len(got) != 0 {
		t.Fatalf("empty bitmap serialises to %d bytes, want 0", len(got))
	}
	b.Set(3)
	if got := b.Bytes(); len(got) != 1 {
		t.Fatalf("one low bit serialises to %d bytes, want 1", len(got))
	}
}

// TestBitmapBytesAllocatesTrimmedLength pins the wire form against its
// definition — every word little-endian, trailing zero bytes stripped — and
// that the one allocation is no longer than what is returned.
func TestBitmapBytesAllocatesTrimmedLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		b := NewBitmap(1 + rng.Intn(2048))
		for n := rng.Intn(4); n > 0; n-- {
			b.Set(rng.Intn(len(b) * 64))
		}
		var want []byte
		for _, w := range b {
			for i := 0; i < 8; i++ {
				want = append(want, byte(w>>(8*uint(i))))
			}
		}
		for len(want) > 0 && want[len(want)-1] == 0 {
			want = want[:len(want)-1]
		}
		got := b.Bytes()
		if got == nil || !bytes.Equal(got, want) {
			t.Fatalf("Bytes() = %x, want %x", got, want)
		}
		if cap(got) > len(got)+7 { // the allocator may round a size class up, not by a word
			t.Fatalf("Bytes() returned %d bytes in a %d-byte allocation", len(got), cap(got))
		}
	}
}

func TestBitmapTrim(t *testing.T) {
	b := NewBitmap(128)
	for i := 0; i < 128; i++ {
		b.Set(i)
	}
	b.Trim(70)
	if b.Count() != 70 {
		t.Fatalf("Count after Trim(70) = %d, want 70", b.Count())
	}
	if b.Get(70) || b.Get(127) {
		t.Fatal("bits beyond trim point survive")
	}
	if !b.Get(69) {
		t.Fatal("bit below trim point cleared")
	}
}

func TestBitmapClone(t *testing.T) {
	b := NewBitmap(64)
	b.Set(5)
	c := b.Clone()
	c.Set(6)
	if b.Get(6) {
		t.Fatal("Clone shares storage")
	}
	if !c.Get(5) {
		t.Fatal("Clone lost bit")
	}
}

func TestBitmapEmpty(t *testing.T) {
	b := NewBitmap(64)
	if !b.Empty() {
		t.Fatal("fresh bitmap not Empty")
	}
	b.Set(63)
	if b.Empty() {
		t.Fatal("bitmap with bit set reports Empty")
	}
}
