package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 500
	a := Generate(p)
	b := Generate(p)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	p.Seed = 43
	c := Generate(p)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceWellFormed(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2000
	tr := Generate(p)

	// Rounds are non-decreasing; every item follows create→update*→destroy
	// or is a persistent item (updates only).
	lastRound := 0
	created := make(map[uint32]bool)
	destroyed := make(map[uint32]bool)
	for _, ev := range tr.Events {
		if ev.Round < lastRound {
			t.Fatalf("round order violated at %+v", ev)
		}
		lastRound = ev.Round
		switch ev.Kind {
		case Create:
			if created[ev.Item] {
				t.Fatalf("item %d created twice", ev.Item)
			}
			created[ev.Item] = true
		case Update:
			if destroyed[ev.Item] {
				t.Fatalf("item %d updated after destroy", ev.Item)
			}
			if ev.Item >= 1_000_000 && !created[ev.Item] {
				t.Fatalf("transient item %d updated before create", ev.Item)
			}
		case Destroy:
			if !created[ev.Item] {
				t.Fatalf("item %d destroyed without create", ev.Item)
			}
			if destroyed[ev.Item] {
				t.Fatalf("item %d destroyed twice", ev.Item)
			}
			destroyed[ev.Item] = true
		}
	}
}

// TestTraceCalibration asserts the generated workload matches the §5.2
// statistics of the paper within tolerance. These bounds are the written
// record of the substitution documented in DESIGN.md.
func TestTraceCalibration(t *testing.T) {
	tr := Generate(DefaultParams())
	st := Characterize(tr)

	assertRange := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.3f, want within [%.3f, %.3f]", name, got, lo, hi)
		}
	}
	assertRange("mean active items (paper 42.33)", st.MeanActiveItems, 40, 45)
	assertRange("mean modified/round (paper 1.39)", st.MeanModifiedPerRound, 1.1, 1.6)
	assertRange("never-obsolete share (paper 0.4188)", st.NeverObsoleteShare, 0.36, 0.47)
	assertRange("mean rate (paper ~42 msg/s)", st.MeanRate, 38, 48)

	// Fig. 3a shape: heavy-tailed, top item modified in ~20-25% of rounds,
	// strictly decreasing by construction of ranking.
	if len(st.RankFreq) < 20 {
		t.Fatalf("too few ranked items: %d", len(st.RankFreq))
	}
	assertRange("top-rank modification freq (paper ~22%)", st.RankFreq[0], 15, 30)
	if st.RankFreq[9] > st.RankFreq[0]/3 {
		t.Errorf("rank 10 freq %.2f not heavy-tailed vs top %.2f", st.RankFreq[9], st.RankFreq[0])
	}

	// Fig. 3b shape: related messages are close — the mass within distance
	// 10 dominates the mass beyond it.
	within10 := 0.0
	for d := 0; d < 10; d++ {
		within10 += st.DistanceHist[d]
	}
	beyond := st.DistanceOverflow
	for d := 10; d < len(st.DistanceHist); d++ {
		beyond += st.DistanceHist[d]
	}
	if within10 <= beyond {
		t.Errorf("obsolescence distance not concentrated: within10=%.1f%% beyond=%.1f%%", within10, beyond)
	}
}

func TestCharacterizeSmallHandTrace(t *testing.T) {
	// Stream: u(1) u(2) u(1) c(9) u(9) d(9); item 1's first update is
	// obsoleted at distance 2; everything else never becomes obsolete.
	tr := &Trace{
		Rounds:       3,
		RoundsPerSec: 30,
		Events: []Event{
			{Round: 0, Kind: Update, Item: 1},
			{Round: 0, Kind: Update, Item: 2},
			{Round: 1, Kind: Update, Item: 1},
			{Round: 1, Kind: Create, Item: 9},
			{Round: 2, Kind: Update, Item: 9},
			{Round: 2, Kind: Destroy, Item: 9},
		},
		ActivePerRound: []int{2, 3, 3},
	}
	st := Characterize(tr)
	if st.Messages != 6 {
		t.Fatalf("Messages = %d", st.Messages)
	}
	if want := 5.0 / 6.0; math.Abs(st.NeverObsoleteShare-want) > 1e-9 {
		t.Fatalf("NeverObsoleteShare = %v, want %v", st.NeverObsoleteShare, want)
	}
	if st.DistanceHist[1] == 0 { // distance 2 bucket
		t.Fatalf("distance-2 bucket empty: %v", st.DistanceHist[:4])
	}
	if math.Abs(st.MeanActiveItems-8.0/3.0) > 1e-9 {
		t.Fatalf("MeanActiveItems = %v", st.MeanActiveItems)
	}
	// Rounds 0,1,2 modify 2,2,1 distinct items.
	if want := 5.0 / 3.0; math.Abs(st.MeanModifiedPerRound-want) > 1e-9 {
		t.Fatalf("MeanModifiedPerRound = %v, want %v", st.MeanModifiedPerRound, want)
	}
}

func TestDestroyBreaksObsolescenceChain(t *testing.T) {
	// u(1) d(1) ... then a reused id updated again: the pre-destroy update
	// must not be counted as obsoleted by the post-recreate update.
	tr := &Trace{
		Rounds:       2,
		RoundsPerSec: 30,
		Events: []Event{
			{Round: 0, Kind: Update, Item: 1},
			{Round: 0, Kind: Destroy, Item: 1},
			{Round: 1, Kind: Create, Item: 1},
			{Round: 1, Kind: Update, Item: 1},
		},
		ActivePerRound: []int{1, 1},
	}
	st := Characterize(tr)
	if st.NeverObsoleteShare != 1.0 {
		t.Fatalf("NeverObsoleteShare = %v, want 1 (destroy breaks the chain)", st.NeverObsoleteShare)
	}
}

func TestAnnotateMatchesCharacterization(t *testing.T) {
	// The k-enumeration annotations must agree with the trace-level
	// obsolescence: an update is obsoleted by the item's next update iff
	// it is within the window.
	p := DefaultParams()
	p.Rounds = 1500
	tr := Generate(p)
	const k = 64
	msgs := tr.Annotate("srv", k)
	if len(msgs) != len(tr.Events) {
		t.Fatalf("annotated %d of %d events", len(msgs), len(tr.Events))
	}
	rel := obsolete.KEnumeration{K: k}

	next := nextUpdateIndex(tr.Events)
	for i := range msgs {
		j, ok := next[i]
		if !ok {
			// Never obsoleted in the trace: no later message within the
			// window may claim to obsolete it.
			for l := i + 1; l < len(msgs) && l <= i+k; l++ {
				if rel.Obsoletes(msgs[i].Meta, msgs[l].Meta) {
					t.Fatalf("msg %d never obsolete in trace but annotated obsolete by %d", i, l)
				}
			}
			continue
		}
		if j-i <= k {
			if !rel.Obsoletes(msgs[i].Meta, msgs[j].Meta) {
				t.Fatalf("msg %d should be obsoleted by %d (distance %d)", i, j, j-i)
			}
		}
	}

	// Sequence numbers are contiguous and times non-decreasing.
	for i := range msgs {
		if msgs[i].Meta.Seq != ident.Seq(i+1) {
			t.Fatalf("seq %d at index %d", msgs[i].Meta.Seq, i)
		}
		if i > 0 && msgs[i].Time < msgs[i-1].Time {
			t.Fatalf("time went backwards at %d", i)
		}
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 300
	tr := Generate(p)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != tr.Rounds || got.RoundsPerSec != tr.RoundsPerSec {
		t.Fatalf("header mismatch: %d/%g vs %d/%g", got.Rounds, got.RoundsPerSec, tr.Rounds, tr.RoundsPerSec)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events: %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got.Events[i], tr.Events[i])
		}
	}
	for i := range got.ActivePerRound {
		if got.ActivePerRound[i] != tr.ActivePerRound[i] {
			t.Fatalf("active %d: %d vs %d", i, got.ActivePerRound[i], tr.ActivePerRound[i])
		}
	}
}

// TestScalePlayersDirections checks the §5.2 observation about larger
// sessions: more players ⇒ higher message rate, lower never-obsolete
// share, larger distances between related messages.
func TestScalePlayersDirections(t *testing.T) {
	base := DefaultParams()
	base.Rounds = 4000
	st5 := Characterize(Generate(base))
	st10 := Characterize(Generate(ScalePlayers(base, 10)))

	if st10.MeanRate <= st5.MeanRate {
		t.Errorf("rate did not increase with players: %.1f vs %.1f", st10.MeanRate, st5.MeanRate)
	}
	if st10.NeverObsoleteShare >= st5.NeverObsoleteShare {
		t.Errorf("never-obsolete share did not decrease: %.3f vs %.3f",
			st10.NeverObsoleteShare, st5.NeverObsoleteShare)
	}
	mean := func(st Stats) float64 {
		num, den := 0.0, 0.0
		for d, pct := range st.DistanceHist {
			num += float64(d+1) * pct
			den += pct
		}
		return num / den
	}
	if mean(st10) <= mean(st5) {
		t.Errorf("mean obsolescence distance did not grow: %.2f vs %.2f", mean(st10), mean(st5))
	}
	// Five players (the calibration itself) must be a no-op.
	if got := ScalePlayers(base, 5); got != base {
		t.Error("ScalePlayers(5) must be identity")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"rounds x\n",
		"ev 0 u\n",
		"ev 0 z 5\nrounds 1\n",
		"active 5 1\n",
		"bogus 1 2\n",
		"rounds -1\n",
		"rounds 4194305\n",
		"rounds 5\nev 4 u 1\nrounds 2\n",
	} {
		if _, err := Read(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("Read(%q) accepted garbage", in)
		}
	}
}

// hashTrace is the FNV-64a hash of a trace's stream: every event as its
// round (8 bytes), kind (1) and item (4), then every active count (8), all
// little-endian.
func hashTrace(tr *Trace) uint64 {
	h := fnv.New64a()
	var b [13]byte
	for _, ev := range tr.Events {
		binary.LittleEndian.PutUint64(b[0:8], uint64(ev.Round))
		b[8] = byte(ev.Kind)
		binary.LittleEndian.PutUint32(b[9:13], ev.Item)
		h.Write(b[:])
	}
	for _, a := range tr.ActivePerRound {
		binary.LittleEndian.PutUint64(b[0:8], uint64(a))
		h.Write(b[:8])
	}
	return h.Sum64()
}

// TestGenerateGolden pins the generated stream: every benchmark seed and
// figure replays exactly these events, so making the generator faster must
// not change a single draw. The table predates the linear-time generator.
func TestGenerateGolden(t *testing.T) {
	with := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	seed := func(s int64) Params { return with(func(p *Params) { p.Seed = s }) }
	for _, c := range []struct {
		name   string
		p      Params
		events int
		hash   uint64
	}{
		{"default/seed=1", seed(1), 16060, 0x4dbb67990b524e9f},
		{"default/seed=2", seed(2), 15763, 0x66fd5f8fea5ba48a},
		{"default/seed=3", seed(3), 16804, 0xa69771155d50df25},
		{"default/seed=4", seed(4), 16380, 0xe73526a90c2fb357},
		{"default/seed=5", seed(5), 16663, 0x73c950076c246f51},
		{"default/seed=6", seed(6), 16491, 0x0246343129371771},
		{"default/seed=7", seed(7), 16568, 0xa52d5c148d2ce076},
		{"default/seed=8", seed(8), 16477, 0x88a9e0b3a97ed65c},
		{"default/seed=9", seed(9), 16522, 0x406888c621a822c5},
		{"default/seed=10", seed(10), 16314, 0xe6b6fdfcb7f854ca},
		{"default/seed=42", seed(42), 16723, 0xb4819a2c3beb82f7},
		{"default/seed=101", seed(101), 16670, 0x16f20a10060e9224},
		{"default/seed=201", seed(201), 16352, 0xe9a2c78060c982a2},
		{"players=1", ScalePlayers(DefaultParams(), 1), 7052, 0x1552a3da9f0dbb7a},
		{"players=10", ScalePlayers(DefaultParams(), 10), 28902, 0x7bf76acac8552e6e},
		{"players=20", ScalePlayers(DefaultParams(), 20), 52889, 0x899cb158809c0d04},
		{"rounds=300", with(func(p *Params) { p.Rounds = 300 }), 428, 0x61a90e7434cea9cb},
		{"persistent=0", with(func(p *Params) { p.PersistentItems = 0 }), 16855, 0xc8127084809c4404},
		{"rates=0", with(func(p *Params) { p.BurstStartsPerRound, p.TransientSpawnsPerRound = 0, 0 }), 0, 0x62ee85cd0f0ac925},
	} {
		tr := Generate(c.p)
		if got, h := len(tr.Events), hashTrace(tr); got != c.events || h != c.hash {
			t.Errorf("%s: %d events, hash %#016x; want %d, %#016x", c.name, got, h, c.events, c.hash)
		}
	}
}

// TestGenerateAllocs checks that generating a session costs a constant
// number of allocations, whatever its length (11,696 rounds is
// DefaultParams itself).
func TestGenerateAllocs(t *testing.T) {
	for _, rounds := range []int{1000, 11696} {
		p := DefaultParams()
		p.Rounds = rounds
		if n := testing.AllocsPerRun(3, func() { Generate(p) }); n > 16 {
			t.Errorf("Generate at %d rounds: %.0f allocations, want <= 16", rounds, n)
		}
	}
}

// FuzzTraceRead feeds Read arbitrary text: it must never panic, and a trace
// it accepts must serialise to text that reads back and serialises the same.
func FuzzTraceRead(f *testing.F) {
	p := DefaultParams()
	p.Rounds = 50
	var seed bytes.Buffer
	if _, err := Generate(p).WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("rounds 2\nroundspersec 30\nactive 1 3\nev 1 c 7\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Read(bytes.NewReader(in))
		if err != nil || tr.Rounds > 1<<10 { // larger traces are valid, just slow to re-serialise
			return
		}
		var once, twice bytes.Buffer
		if _, err := tr.WriteTo(&once); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-reading %q: %v", once.String(), err)
		}
		if _, err := back.WriteTo(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed the text:\n%s\n---\n%s", once.String(), twice.String())
		}
	})
}
