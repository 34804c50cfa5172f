package obsolete

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
)

func msg(sender ident.PID, seq ident.Seq, annot []byte) Msg {
	return Msg{Sender: sender, Seq: seq, Annot: annot}
}

func TestEmptyRelation(t *testing.T) {
	r := Empty{}
	a := msg("p", 1, nil)
	b := msg("p", 2, nil)
	if r.Obsoletes(a, b) || r.Obsoletes(b, a) || r.Obsoletes(a, a) {
		t.Fatal("Empty relation must never relate messages")
	}
	if r.Name() != "empty" {
		t.Fatalf("Name = %q", r.Name())
	}
}

// TestTagging pins the tagging encoding as NewTagTracker mints it and
// Enumeration reads it: an update obsoletes the earlier updates of its item
// from the same sender within the window, and the previous one at any
// distance, and nothing else; each costs one uvarint delta.
func TestTagging(t *testing.T) {
	r := Enumeration{}
	p := map[ident.Seq]Msg{}
	mint := func(seq ident.Seq, annot []byte) { p[seq] = msg("p", seq, annot) }
	tr := NewTagTracker(8)
	mint(tr.Update(7))  // p:1
	mint(tr.Update(8))  // p:2
	mint(tr.Reliable()) // p:3
	mint(tr.Update(7))  // p:4, lists p:1
	mint(tr.Update(7))  // p:5, lists p:4 and what p:4 listed, p:1
	for tr.Seq() < 899 {
		tr.Reliable()
	}
	mint(tr.Update(7))  // p:900, lists p:5: p:4 and p:1 lie beyond the window
	mint(tr.Reliable()) // p:901
	q := NewTagTracker(8)
	q.Update(7)
	qs, qa := q.Update(7) // q:2, lists q:1

	tests := []struct {
		name     string
		old, new Msg
		want     bool
	}{
		{"same item later", p[1], p[4], true},
		{"same item past an update", p[1], p[5], true},
		{"same item much later", p[5], p[900], true},
		{"same item beyond the window", p[4], p[900], false},
		{"different item", p[2], p[5], false},
		{"wrong order", p[4], p[1], false},
		{"same seq", p[4], p[4], false},
		{"different sender", p[1], msg("q", qs, qa), false},
		{"old untagged", p[3], p[4], false},
		{"new untagged", p[900], p[901], false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.Obsoletes(tc.old, tc.new); got != tc.want {
				t.Fatalf("Obsoletes = %v, want %v", got, tc.want)
			}
		})
	}
	if got := r.AppendObsoleted(nil, p[900], 0); len(got) != 1 || got[0] != 5 || len(p[900].Annot) != 2 {
		t.Fatalf("p:900 lists %v in %d bytes, want [5] in 2", got, len(p[900].Annot))
	}
	if len(p[4].Annot) != 1 || len(p[5].Annot) != 2 || p[3].Annot != nil || p[1].Annot != nil {
		t.Fatalf("annotations %x %x %x %x: a first update and a reliable message list nothing, a near one costs a byte",
			p[1].Annot, p[3].Annot, p[4].Annot, p[5].Annot)
	}
}

// TestTagTrackerWindow holds NewTagTracker's listings against their
// definition over a random stream of updates, reliable messages and
// destructions: an update lists every earlier update of its item since the
// item's last destruction that lies within the window, and the previous one
// wherever it lies.
func TestTagTrackerWindow(t *testing.T) {
	const window = 8
	rng := rand.New(rand.NewSource(5))
	tr := NewTagTracker(window)
	updates := map[uint32][]ident.Seq{} // item -> its updates since its destruction
	for i := 0; i < 2000; i++ {
		item := uint32(rng.Intn(3))
		var seq ident.Seq
		var annot []byte
		var want []ident.Seq
		switch rng.Intn(8) {
		case 0:
			seq, annot = tr.Reliable()
		case 1:
			seq, annot = tr.Destroy(item)
			delete(updates, item)
		default:
			seq, annot = tr.Update(item)
			u := updates[item]
			for j, s := range u {
				if j == len(u)-1 || seq-s <= window {
					want = append(want, s)
				}
			}
			updates[item] = append(u, seq)
		}
		got := Enumeration{}.AppendObsoleted(nil, msg("p", seq, annot), 0)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("p:%d lists %v, want %v", seq, got, want)
		}
	}
}

func TestKEnumerationDirect(t *testing.T) {
	tr := NewKTracker(8)

	// m1, m2 (obsoletes m1), m3 (obsoletes nothing), m4 (obsoletes m3).
	s1, a1 := tr.Next()
	s2, a2 := tr.Next(s1)
	s3, a3 := tr.Next()
	s4, a4 := tr.Next(s3)

	m1 := msg("p", s1, a1)
	m2 := msg("p", s2, a2)
	m3 := msg("p", s3, a3)
	m4 := msg("p", s4, a4)

	for _, tc := range []struct {
		name     string
		k        int
		old, new Msg
		want     bool
	}{
		{"m1 ≺ m2", 8, m1, m2, true},
		{"antisymmetry", 8, m2, m1, false},
		{"m3 obsoletes nothing", 8, m1, m3, false},
		{"m3 obsoletes nothing either", 8, m2, m3, false},
		{"m3 ≺ m4", 8, m3, m4, true},
		{"m4 unrelated to m1", 8, m1, m4, false},
		{"m4 unrelated to m2", 8, m2, m4, false},
		{"cross-sender", 8, m1, msg("q", m2.Seq, m2.Annot), false},
		{"beyond a window of 1", 1, m1, msg("p", s1+2, []byte{0xff}), false},
		{"a window of no messages", 0, m1, m2, false},
		{"a negative window", -1, m1, m2, false},
	} {
		if got := (KEnumeration{K: tc.k}).Obsoletes(tc.old, tc.new); got != tc.want {
			t.Errorf("%s: k=%d: %s:%d ≺ %s:%d is %v, want %v",
				tc.name, tc.k, tc.old.Sender, tc.old.Seq, tc.new.Sender, tc.new.Seq, got, tc.want)
		}
	}
}

func TestKTrackerTransitiveClosure(t *testing.T) {
	r := KEnumeration{K: 16}
	tr := NewKTracker(16)

	s1, a1 := tr.Next()
	s2, _ := tr.Next(s1)
	s3, a3 := tr.Next(s2) // directly obsoletes m2, transitively m1

	m1 := msg("p", s1, a1)
	m3 := msg("p", s3, a3)
	if !r.Obsoletes(m1, m3) {
		t.Fatal("transitive closure m1 ≺ m3 not encoded")
	}
}

// TestKTrackerNextZeroPredecessor: seq 0 is not a message; passing it as
// a direct predecessor (the natural idiom tr.Next(tr.Seq()) on a fresh
// tracker) must be dropped, not crash with a negative ring index.
func TestKTrackerNextZeroPredecessor(t *testing.T) {
	tr := NewKTracker(16)
	s1, a1 := tr.Next(tr.Seq()) // Seq() == 0 here
	if s1 != 1 {
		t.Fatalf("first seq = %d, want 1", s1)
	}
	m1 := msg("p", s1, a1)
	s2, a2 := tr.Next(s1)
	if !(KEnumeration{K: 16}).Obsoletes(m1, msg("p", s2, a2)) {
		t.Fatal("chain after a zero predecessor lost m1 ≺ m2")
	}
}

func TestKTrackerWindowTruncation(t *testing.T) {
	const k = 4
	r := KEnumeration{K: k}
	tr := NewKTracker(k)

	s1, a1 := tr.Next()
	m1 := msg("p", s1, a1)
	// Advance beyond the window.
	var lastSeq ident.Seq
	var lastAnnot []byte
	for i := 0; i < k+2; i++ {
		lastSeq, lastAnnot = tr.Next(s1)
	}
	last := msg("p", lastSeq, lastAnnot)
	if r.Obsoletes(m1, last) {
		t.Fatal("obsolescence beyond window k must be dropped")
	}
}

func TestKTrackerChainWithinWindow(t *testing.T) {
	// A chain m1 ≺ m2 ≺ ... ≺ mk within the window must be fully closed.
	const k = 32
	r := KEnumeration{K: k}
	tr := NewKTracker(k)
	type rec struct {
		m Msg
	}
	var chain []rec
	var prev ident.Seq
	for i := 0; i < k; i++ {
		var s ident.Seq
		var a []byte
		if prev == 0 {
			s, a = tr.Next()
		} else {
			s, a = tr.Next(prev)
		}
		chain = append(chain, rec{msg("p", s, a)})
		prev = s
	}
	lastm := chain[len(chain)-1].m
	for i := 0; i < len(chain)-1; i++ {
		d := uint64(lastm.Seq - chain[i].m.Seq)
		if d > uint64(k) {
			continue
		}
		if !r.Obsoletes(chain[i].m, lastm) {
			t.Fatalf("chain element %d (distance %d) not obsoleted by last", i, d)
		}
	}
}

// TestKEnumerationPartialOrderLaws generates random obsolescence streams
// and checks the §3.2 laws hold for the encoded relation: irreflexivity,
// antisymmetry and (window-bounded) transitivity.
func TestKEnumerationPartialOrderLaws(t *testing.T) {
	const k = 24
	const n = 200
	r := KEnumeration{K: k}
	rng := rand.New(rand.NewSource(7))
	tr := NewKTracker(k)

	msgs := make([]Msg, 0, n)
	for i := 0; i < n; i++ {
		var direct []ident.Seq
		for j := range msgs {
			d := len(msgs) - j
			if d <= k && rng.Intn(10) == 0 {
				direct = append(direct, msgs[j].Seq)
			}
		}
		s, a := tr.Next(direct...)
		msgs = append(msgs, msg("p", s, a))
	}

	for i := range msgs {
		if r.Obsoletes(msgs[i], msgs[i]) {
			t.Fatalf("irreflexivity violated at %d", i)
		}
		for j := range msgs {
			if i == j {
				continue
			}
			if r.Obsoletes(msgs[i], msgs[j]) && r.Obsoletes(msgs[j], msgs[i]) {
				t.Fatalf("antisymmetry violated at %d,%d", i, j)
			}
		}
	}
	// Window-bounded transitivity: a ≺ b, b ≺ c, dist(a,c) ≤ k ⇒ a ≺ c.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j <= i+k; j++ {
			if !r.Obsoletes(msgs[i], msgs[j]) {
				continue
			}
			for l := j + 1; l < n && l <= i+k; l++ {
				if r.Obsoletes(msgs[j], msgs[l]) && !r.Obsoletes(msgs[i], msgs[l]) {
					t.Fatalf("transitivity violated: %d ≺ %d ≺ %d but not %d ≺ %d",
						i, j, l, i, l)
				}
			}
		}
	}
}

func TestEnumeration(t *testing.T) {
	r := Enumeration{}
	tr := NewEnumTracker(16)

	s1, a1 := tr.Next()
	s2, _ := tr.Next(s1)
	s3, a3 := tr.Next(s2)

	m1 := msg("p", s1, a1)
	m3 := msg("p", s3, a3)
	if !r.Obsoletes(m1, m3) {
		t.Fatal("enum transitive closure m1 ≺ m3 not encoded")
	}
	if !r.Obsoletes(msg("p", s2, nil), m3) {
		t.Fatal("direct predecessor not encoded")
	}
	if r.Obsoletes(m3, m1) || r.Obsoletes(m1, m1) {
		t.Fatal("order laws violated")
	}
	if r.Obsoletes(msg("q", s1, a1), m3) {
		t.Fatal("cross-sender must be false")
	}
}

func TestEnumTrackerWindow(t *testing.T) {
	r := Enumeration{}
	tr := NewEnumTracker(3)
	s1, _ := tr.Next()
	for i := 0; i < 5; i++ {
		tr.Next()
	}
	s7, a7 := tr.Next(s1) // s1 is far outside the window of 3
	if r.Obsoletes(msg("p", s1, nil), msg("p", s7, a7)) {
		t.Fatal("enumeration beyond window must be dropped")
	}
}

func TestEnumAndKEnumAgree(t *testing.T) {
	// Drive both trackers with the same random direct-pred streams and
	// verify the encoded relations agree inside the common window.
	const k = 16
	const n = 120
	rng := rand.New(rand.NewSource(99))
	kt := NewKTracker(k)
	et := NewEnumTracker(k)
	kr := KEnumeration{K: k}
	er := Enumeration{}

	var kmsgs, emsgs []Msg
	for i := 0; i < n; i++ {
		var direct []ident.Seq
		for d := 1; d <= k && d <= i; d++ {
			if rng.Intn(8) == 0 {
				direct = append(direct, ident.Seq(i+1-d))
			}
		}
		ks, ka := kt.Next(direct...)
		es, ea := et.Next(direct...)
		if ks != es {
			t.Fatalf("sequence divergence %d vs %d", ks, es)
		}
		kmsgs = append(kmsgs, msg("p", ks, ka))
		emsgs = append(emsgs, msg("p", es, ea))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j <= i+k; j++ {
			kg := kr.Obsoletes(kmsgs[i], kmsgs[j])
			eg := er.Obsoletes(emsgs[i], emsgs[j])
			if kg != eg {
				t.Fatalf("encodings disagree on (%d,%d): kenum=%v enum=%v", i, j, kg, eg)
			}
		}
	}
}

func TestItemTrackerSingleItem(t *testing.T) {
	const k = 8
	r := KEnumeration{K: k}
	it := NewItemTracker(NewKTracker(k))

	s1, a1 := it.Update(100)
	s2, a2 := it.Update(200)
	s3, a3 := it.Update(100) // obsoletes s1

	m1, m2, m3 := msg("p", s1, a1), msg("p", s2, a2), msg("p", s3, a3)
	if !r.Obsoletes(m1, m3) {
		t.Fatal("second update of item 100 must obsolete the first")
	}
	if r.Obsoletes(m2, m3) {
		t.Fatal("update of item 200 must not be obsoleted by item 100")
	}
}

func TestItemTrackerReliableAndLifecycle(t *testing.T) {
	const k = 8
	r := KEnumeration{K: k}
	it := NewItemTracker(NewKTracker(k))

	su, au := it.Update(1)
	sr, ar := it.Reliable()
	sd, ad := it.Destroy(1)
	sc, ac := it.Create(1)
	s2, a2 := it.Update(1)

	mu := msg("p", su, au)
	for _, m := range []Msg{msg("p", sr, ar), msg("p", sd, ad), msg("p", sc, ac)} {
		if r.Obsoletes(mu, m) {
			t.Fatalf("reliable/lifecycle message %d must not obsolete updates", m.Seq)
		}
	}
	// After destroy+create, the first update of the new incarnation must
	// not obsolete the previous incarnation's update.
	if r.Obsoletes(mu, msg("p", s2, a2)) {
		t.Fatal("update across destroy/create must not obsolete")
	}
}

func TestItemTrackerBatchCommit(t *testing.T) {
	const k = 16
	r := KEnumeration{K: k}
	it := NewItemTracker(NewKTracker(k))

	// Single updates establish history: U(a,1), U(b,1), then a pseudo
	// commit C(1) is not needed since they are single-item updates.
	sa1, aa1 := it.Update(1) // U(a,1)
	sb1, ab1 := it.Update(2) // U(b,1)

	// Batch: U(b,2), U(c,2), C(2). Figure 2 of the paper: C(2), not
	// U(b,2), makes U(b,1) obsolete.
	sb2, ab2, prevB := it.BatchMember(2)
	sc2, ac2, prevC := it.BatchMember(3)
	scm, acm := it.Commit([]ident.Seq{prevB, prevC})

	mb1 := msg("p", sb1, ab1)
	mb2 := msg("p", sb2, ab2)
	mc2 := msg("p", sc2, ac2)
	mcm := msg("p", scm, acm)

	if r.Obsoletes(mb1, mb2) {
		t.Fatal("batch member must not obsolete previous update (only the commit may)")
	}
	if !r.Obsoletes(mb1, mcm) {
		t.Fatal("commit must obsolete the previous update of item b")
	}
	if r.Obsoletes(mb2, mcm) || r.Obsoletes(mc2, mcm) {
		t.Fatal("commit must not obsolete its own batch members")
	}
	if r.Obsoletes(msg("p", sa1, aa1), mcm) {
		t.Fatal("commit must not obsolete updates of items outside the batch")
	}

	// A later single update of b obsoletes the batch member U(b,2).
	sb3, ab3 := it.Update(2)
	if !r.Obsoletes(mb2, msg("p", sb3, ab3)) {
		t.Fatal("later single update must obsolete the batch member")
	}
}

func TestItemTrackerBatchSameItemTwice(t *testing.T) {
	const k = 8
	r := KEnumeration{K: k}
	it := NewItemTracker(NewKTracker(k))

	s1, a1, prev1 := it.BatchMember(7)
	s2, _, prev2 := it.BatchMember(7)
	if prev1 != 0 {
		t.Fatalf("first member prev = %d, want 0", prev1)
	}
	if prev2 != s1 {
		t.Fatalf("second member prev = %d, want %d", prev2, s1)
	}
	scm, acm := it.Commit([]ident.Seq{prev1, prev2})
	if !r.Obsoletes(msg("p", s1, a1), msg("p", scm, acm)) {
		t.Fatal("commit must obsolete the superseded member of its own batch")
	}
	_ = s2
}

func TestKTrackerAnnot(t *testing.T) {
	tr := NewKTracker(4)
	s1, a1 := tr.Next()
	got, ok := tr.Annot(s1)
	if !ok {
		t.Fatal("Annot of fresh message should be available")
	}
	if string(got) != string(a1) {
		t.Fatalf("Annot = %x, want %x", got, a1)
	}
	for i := 0; i < 5; i++ {
		tr.Next()
	}
	if _, ok := tr.Annot(s1); ok {
		t.Fatal("Annot beyond window should be unavailable")
	}
	if _, ok := tr.Annot(0); ok {
		t.Fatal("Annot(0) should be unavailable")
	}
}

// TestKTrackerAllocatesOnce: a tracker's ring of k annotations is one
// array, and its scratch words come with its first message, so building one
// allocates the tracker and that array, whatever k is.
func TestKTrackerAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { NewKTracker(2048) }); n > 2 {
		t.Fatalf("NewKTracker(2048) made %v allocations, want at most 2", n)
	}
}
