package queue

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// model is the linear-scan slice reference implementation the indexed
// ring queue is differentially tested against. It deliberately mirrors
// the specified semantics with the most obvious code: entries in a plain
// slice, purges as FIFO-order scans. Its purge() is Figure 1's purge
// function, the pairwise sweep — kept as the reference the arrival purge is
// held against (TestArrivalPurgeLeavesNothingToSweep), not as something the
// queue does.
type model struct {
	rel      obsolete.Relation
	capacity int
	items    []Item
	stats    Stats
}

func newModel(rel obsolete.Relation, capacity int) *model {
	return &model{rel: rel, capacity: capacity}
}

func (m *model) full() bool { return m.capacity > 0 && len(m.items) >= m.capacity }

func (m *model) forceAppend(it Item) {
	m.items = append(m.items, it)
	m.stats.Appended++
	if len(m.items) > m.stats.MaxLen {
		m.stats.MaxLen = len(m.items)
	}
}

func (m *model) append(it Item) error {
	if m.full() {
		m.stats.Rejected++
		return ErrFull
	}
	m.forceAppend(it)
	return nil
}

func (m *model) purgeFor(n Item) []Item {
	if n.Kind != Data {
		return nil
	}
	var removed []Item
	kept := m.items[:0]
	for _, it := range m.items {
		if it.Kind == Data && it.View == n.View && m.rel.Obsoletes(it.Meta, n.Meta) {
			removed = append(removed, it)
			continue
		}
		kept = append(kept, it)
	}
	m.items = kept
	m.stats.Purged += uint64(len(removed))
	return removed
}

func (m *model) countPurgeableFor(n Item) int {
	if n.Kind != Data {
		return 0
	}
	c := 0
	for _, it := range m.items {
		if it.Kind == Data && it.View == n.View && m.rel.Obsoletes(it.Meta, n.Meta) {
			c++
		}
	}
	return c
}

// purge removes entries in FIFO order; an entry already removed in this
// sweep no longer serves as a witness for later entries.
func (m *model) purge() int {
	removed := 0
	for i := 0; i < len(m.items); {
		it := m.items[i]
		if it.Kind == Data && m.witness(it, i) {
			m.items = append(m.items[:i], m.items[i+1:]...)
			removed++
			continue
		}
		i++
	}
	m.stats.Purged += uint64(removed)
	return removed
}

func (m *model) witness(it Item, self int) bool {
	for j, x := range m.items {
		if j == self || x.Kind != Data || x.View != it.View {
			continue
		}
		if m.rel.Obsoletes(it.Meta, x.Meta) {
			return true
		}
	}
	return false
}

func (m *model) popHead() (Item, bool) {
	if len(m.items) == 0 {
		return Item{}, false
	}
	it := m.items[0]
	m.items = m.items[1:]
	m.stats.Popped++
	return it, true
}

// entryID is the comparable identity of a queue entry.
type entryID struct {
	kind   Kind
	view   uint64
	sender ident.PID
	seq    ident.Seq
}

func id(it Item) entryID {
	return entryID{kind: it.Kind, view: it.View, sender: it.Meta.Sender, seq: it.Meta.Seq}
}

func ids(items []Item) []entryID {
	out := make([]entryID, len(items))
	for i, it := range items {
		out[i] = id(it)
	}
	return out
}

func compareState(t *testing.T, step int, q *Queue, m *model) {
	t.Helper()
	if q.Len() != len(m.items) {
		t.Fatalf("step %d: Len %d, model %d", step, q.Len(), len(m.items))
	}
	if q.Stats() != m.stats {
		t.Fatalf("step %d: Stats %+v, model %+v", step, q.Stats(), m.stats)
	}
	got, want := ids(q.Snapshot()), ids(m.items)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: kept-set mismatch at %d: %+v vs %+v\n got %v\nwant %v",
				step, i, got[i], want[i], got, want)
		}
	}
}

// stream generates one sender's annotated message stream.
type stream interface {
	next(rng *rand.Rand) obsolete.Msg
}

// taggingStream is one sender's tagging stream, minted by
// obsolete.NewTagTracker.
type taggingStream struct {
	sender ident.PID
	items  *obsolete.ItemTracker
}

func (s *taggingStream) next(rng *rand.Rand) obsolete.Msg {
	m := obsolete.Msg{Sender: s.sender}
	if rng.Intn(4) != 0 {
		m.Seq, m.Annot = s.items.Update(uint32(rng.Intn(4)))
	} else { // some messages stay untagged (fully reliable)
		m.Seq, m.Annot = s.items.Reliable()
	}
	return m
}

type trackerStream struct {
	sender ident.PID
	tr     obsolete.Tracker
	window int
}

func (s *trackerStream) next(rng *rand.Rand) obsolete.Msg {
	last := s.tr.Seq()
	var direct []ident.Seq
	for d := 1; d <= s.window && ident.Seq(d) <= last; d++ {
		if rng.Intn(3) == 0 {
			direct = append(direct, last+1-ident.Seq(d))
		}
	}
	seq, annot := s.tr.Next(direct...)
	return obsolete.Msg{Sender: s.sender, Seq: seq, Annot: annot}
}

// encodingCase is one relation the differential tests run, with a generator
// of its senders' streams.
type encodingCase struct {
	name    string
	rel     obsolete.Relation
	streams func(senders []ident.PID) []stream
}

// encodingCases are the three §4.2 encodings.
func encodingCases() []encodingCase {
	const k = 8
	return []encodingCase{
		{
			name: "tagging", rel: tagging,
			streams: func(ps []ident.PID) []stream {
				out := make([]stream, len(ps))
				for i, p := range ps {
					out[i] = &taggingStream{sender: p, items: obsolete.NewTagTracker(tagWindow)}
				}
				return out
			},
		},
		{
			name: "enumeration", rel: obsolete.Enumeration{},
			streams: func(ps []ident.PID) []stream {
				out := make([]stream, len(ps))
				for i, p := range ps {
					out[i] = &trackerStream{sender: p, tr: obsolete.NewEnumTracker(k), window: k}
				}
				return out
			},
		},
		{
			name: "k-enumeration", rel: obsolete.KEnumeration{K: k},
			streams: func(ps []ident.PID) []stream {
				out := make([]stream, len(ps))
				for i, p := range ps {
					out[i] = &trackerStream{sender: p, tr: obsolete.NewKTracker(k), window: k}
				}
				return out
			},
		},
	}
}

// TestDifferentialIndexedVsReference drives identical randomized operation
// sequences through the ring queue and the slice reference model for every
// encodingCase, and checks kept-sets, purge counts, return values and stats
// stay identical after every operation.
func TestDifferentialIndexedVsReference(t *testing.T) {
	for _, tc := range encodingCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*trial + 7)))
				capacity := []int{0, 0, 4, 8, 16}[rng.Intn(5)]
				q := New(tc.rel, capacity)
				m := newModel(tc.rel, capacity)

				senders := []ident.PID{"a", "b", "c"}[:1+rng.Intn(3)]
				streams := tc.streams(senders)
				view := func() uint64 { return uint64(1 + rng.Intn(2)) }

				for step := 0; step < 250; step++ {
					switch op := rng.Intn(8); op {
					case 0, 1, 2: // plain append of the next stream message
						it := Item{Kind: Data, View: view(), Meta: streams[rng.Intn(len(streams))].next(rng)}
						qe, me := q.Append(it), m.append(it)
						if (qe == nil) != (me == nil) {
							t.Fatalf("trial %d step %d: Append err %v vs %v", trial, step, qe, me)
						}
					case 3: // arrival purge + append (the engine hot path)
						it := Item{Kind: Data, View: view(), Meta: streams[rng.Intn(len(streams))].next(rng)}
						qc, mc := q.CountPurgeableFor(it), m.countPurgeableFor(it)
						if qc != mc {
							t.Fatalf("trial %d step %d: CountPurgeableFor %d vs %d", trial, step, qc, mc)
						}
						qr := purged(q, it)
						mr := m.purgeFor(it)
						if fmt.Sprint(ids(qr)) != fmt.Sprint(ids(mr)) {
							t.Fatalf("trial %d step %d: PurgeFor removed %v vs %v", trial, step, ids(qr), ids(mr))
						}
						q.ForceAppend(it)
						m.forceAppend(it)
					case 4: // AppendPurge
						it := Item{Kind: Data, View: view(), Meta: streams[rng.Intn(len(streams))].next(rng)}
						qp, qe := q.AppendPurge(it)
						mp := len(m.purgeFor(it))
						me := m.append(it)
						if qp != mp || (qe == nil) != (me == nil) {
							t.Fatalf("trial %d step %d: AppendPurge (%d,%v) vs (%d,%v)", trial, step, qp, qe, mp, me)
						}
					case 5: // control marker
						it := Item{Kind: Control, View: view(), Ctl: step}
						q.ForceAppend(it)
						m.forceAppend(it)
					case 6, 7: // consume
						qi, qok := pop(q)
						mi, mok := m.popHead()
						if qok != mok || (qok && id(qi) != id(mi)) {
							t.Fatalf("trial %d step %d: PopHead (%+v,%v) vs (%+v,%v)", trial, step, id(qi), qok, id(mi), mok)
						}
					}
					compareState(t, step, q, m)
				}
			}
		})
	}
}

// TestArrivalPurgeLeavesNothingToSweep is why the queue has one purge. Every
// message arrives the way the engine lets it in — purging what it obsoletes,
// each sender's stream ascending, so nothing held covers it (t3) — with a
// view change and deliveries in between; after every
// step Figure 1's purge(), the pairwise sweep of the slice model, run over a
// copy of what is held, must find nothing to remove.
func TestArrivalPurgeLeavesNothingToSweep(t *testing.T) {
	for _, tc := range encodingCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			purged := 0
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(613*trial + 5)))
				q, m := New(tc.rel, 0), newModel(tc.rel, 0)
				streams := tc.streams([]ident.PID{"a", "b", "c"})
				view := uint64(1)
				for step := 0; step < 300; step++ {
					switch op := rng.Intn(8); {
					case step == 150:
						view = 2
					case op <= 1:
						q.PopHead()
						m.popHead()
					default:
						it := Item{Kind: Data, View: view, Meta: streams[rng.Intn(len(streams))].next(rng)}
						purged += len(m.purgeFor(it))
						m.forceAppend(it)
						if _, err := q.AppendPurge(it); err != nil {
							t.Fatal(err)
						}
					}
					compareState(t, step, q, m)
					sweep := newModel(tc.rel, 0)
					sweep.items = slices.Clone(m.items)
					if n := sweep.purge(); n != 0 {
						t.Fatalf("trial %d step %d: a sweep still finds %d obsolete entries of %d", trial, step, n, len(m.items))
					}
				}
			}
			if purged == 0 {
				t.Fatal("nothing was ever purged: the streams never bit")
			}
		})
	}
}

// rawBitmap is a k-enumeration annotation no tracker would mint but any peer
// may send: up to twice k bits long, empty, sparse around the window edge
// (bits k-2 .. k+1, of which k and k+1 name nothing), or dense.
func rawBitmap(rng *rand.Rand, k int) []byte {
	p := make([]byte, rng.Intn(2*k/8+2))
	set := func(i int) {
		if i >= 0 && i/8 < len(p) {
			p[i/8] |= 1 << (uint(i) % 8)
		}
	}
	switch rng.Intn(4) {
	case 0: // reliable: obsoletes nothing
		return nil
	case 1: // sparse, with the window edge
		for _, i := range []int{0, k - 2, k - 1, k, k + 1} {
			if rng.Intn(2) == 0 {
				set(i)
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			set(rng.Intn(2 * k))
		}
	case 2: // dense closure: every predecessor, past the window too
		for i := range p {
			p[i] = 0xff
		}
	default: // about half the bits
		rng.Read(p)
	}
	return p
}

// rawEnumeration is an enumeration annotation as a peer may send it:
// unsorted deltas, repeats, zero, and deltas reaching before the stream.
func rawEnumeration(rng *rand.Rand, seq ident.Seq) []byte {
	var p []byte
	for n := rng.Intn(6); n > 0; n-- {
		d := uint64(rng.Intn(int(seq) + 3))
		if rng.Intn(4) == 0 && len(p) > 0 {
			d = uint64(p[0] & 0x7f) // repeat the first delta
		}
		p = binary.AppendUvarint(p, d)
	}
	return p
}

// TestDifferentialListedWalkScan holds the arrival purge, the listed
// lookup, against the slice model, which scans every entry and asks
// Obsoletes of each, operation by operation: counts, the removed slice in
// FIFO order, kept-sets and stats. The streams are what the lookup has to
// get right: hundreds of set bits at once, the window edge at bit k-1 while
// seq ≤ k, annotations longer than k bits, repeated sequence numbers, and
// one sender's stream spread over two views.
func TestDifferentialListedWalkScan(t *testing.T) {
	cases := []struct {
		name  string
		rel   obsolete.Relation
		k     int
		annot func(rng *rand.Rand, seq ident.Seq) []byte
		// quiet of every 1000 steps only append, so a backlog builds for
		// the purges to bite into; trials × steps bound the run time.
		quiet, trials, steps int
	}{
		{"k-enumeration/k=8", obsolete.KEnumeration{K: 8}, 8, nil, 500, 4, 1000},
		{"k-enumeration/k=512", obsolete.KEnumeration{K: 512}, 512, nil, 990, 2, 7000},
		{"enumeration", obsolete.Enumeration{}, 0, rawEnumeration, 500, 4, 1000},
	}
	for _, tc := range cases {
		tc := tc
		if tc.annot == nil {
			tc.annot = func(rng *rand.Rand, _ ident.Seq) []byte { return rawBitmap(rng, tc.k) }
		}
		t.Run(tc.name, func(t *testing.T) {
			mostPurged := 0
			for trial := 0; trial < tc.trials; trial++ {
				rng := rand.New(rand.NewSource(int64(977*trial + 11)))
				q, m := New(tc.rel, 0), newModel(tc.rel, 0)

				senders := []ident.PID{"a", "b"}
				last := map[ident.PID]ident.Seq{}
				next := func() Item {
					p := senders[rng.Intn(len(senders))]
					if last[p] == 0 || rng.Intn(8) != 0 {
						last[p]++ // else: the sequence number repeats
					}
					return Item{Kind: Data, View: uint64(1 + rng.Intn(2)),
						Meta: obsolete.Msg{Sender: p, Seq: last[p], Annot: tc.annot(rng, last[p])}}
				}

				for step := 0; step < tc.steps; step++ {
					op := 0
					if rng.Intn(1000) >= tc.quiet {
						op = 1 + rng.Intn(5)
					}
					switch {
					case op == 0: // let the backlog build, unpurged
						it := next()
						it.Meta.Annot = nil
						q.ForceAppend(it)
						m.forceAppend(it)
					case op <= 3: // the engine's pair: count, purge, append
						it := next()
						want := m.countPurgeableFor(it)
						removed := m.purgeFor(it)
						m.forceAppend(it)
						mostPurged = max(mostPurged, len(removed))
						if got := q.CountPurgeableFor(it); got != want {
							t.Fatalf("trial %d step %d: CountPurgeableFor %d, model %d", trial, step, got, want)
						}
						if got := purged(q, it); fmt.Sprint(ids(got)) != fmt.Sprint(ids(removed)) {
							t.Fatalf("trial %d step %d: PurgeFor removed %v, model %v", trial, step, ids(got), ids(removed))
						}
						q.ForceAppend(it)
					case op == 4:
						it := next()
						want := len(m.purgeFor(it))
						m.forceAppend(it)
						if got, err := q.AppendPurge(it); got != want || err != nil {
							t.Fatalf("trial %d step %d: AppendPurge (%d, %v), model %d", trial, step, got, err, want)
						}
					default:
						mi, mok := m.popHead()
						if qi, ok := pop(q); ok != mok || (ok && id(qi) != id(mi)) {
							t.Fatalf("trial %d step %d: PopHead (%+v, %v), model (%+v, %v)", trial, step, id(qi), ok, id(mi), mok)
						}
					}
					if op == 0 && step%64 != 0 {
						continue // a plain append: checked every 64th time
					}
					compareState(t, step, q, m)
					if step%50 == 0 {
						checkHeld(t, step, q)
					}
				}
				checkHeld(t, tc.steps, q)
			}
			if tc.k == 512 && mostPurged < 200 {
				t.Fatalf("largest single purge removed %d entries: the dense bitmaps never bit", mostPurged)
			}
		})
	}
}

// checkHeld recounts the per-stream filter of a queue from the index it
// summarises: a count too low would hide an entry from the lookup, one
// too high only costs a search, and neither may drift.
func checkHeld(t *testing.T, step int, q *Queue) {
	t.Helper()
	for k, st := range q.idx {
		want := make([]uint16, heldSlots)
		for _, e := range st.ents {
			want[e.seq%heldSlots]++
		}
		if !slices.Equal(st.held, want) {
			t.Fatalf("step %d: stream %v: held counts drifted from its %d entries", step, k, len(st.ents))
		}
	}
}

// sameTag is tagging read at the receiver: an arrival purges every held
// entry of its view and sender that updates the same item. Reliable
// messages (tag < 0) neither purge nor are purged.
type sameTag struct {
	items []Item
	tags  map[obsolete.MsgID]int
}

func (r *sameTag) appendPurge(it Item, tag int) int {
	kept := r.items[:0]
	for _, x := range r.items {
		id := x.Meta.ID()
		if tag >= 0 && r.tags[id] == tag && x.View == it.View && id.Sender == it.Meta.Sender {
			continue
		}
		kept = append(kept, x)
	}
	purged := len(r.items) - len(kept)
	r.items = append(kept, it)
	r.tags[it.Meta.ID()] = tag
	return purged
}

// TestDifferentialTaggingVsSameTag: purging on arrival what
// obsolete.NewTagTracker lists keeps exactly what purging every same-tag
// entry keeps — also when updates never arrive, as when their sender purged
// its own copies, since an update lists its item's earlier updates and not
// only the one before. Three senders' streams arrive interleaved, the head
// is delivered now and then, and the view only moves forward; the kept sets
// are compared after every step, and any step at which they differ is a
// divergence.
func TestDifferentialTaggingVsSameTag(t *testing.T) {
	steps, purges, dropped, divergences := 0, 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(331*trial + 3)))
		q, ref := New(tagging, 0), &sameTag{tags: map[obsolete.MsgID]int{}}
		ts := map[ident.PID]*obsolete.ItemTracker{}
		senders := []ident.PID{"a", "b", "c"}
		for _, p := range senders {
			ts[p] = obsolete.NewTagTracker(tagWindow)
		}
		view := uint64(1)
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				view++
			case op <= 2:
				q.PopHead()
				if len(ref.items) > 0 {
					ref.items = ref.items[1:]
				}
			default:
				p, tag := senders[rng.Intn(len(senders))], rng.Intn(6)-1
				it := Item{Kind: Data, View: view, Meta: obsolete.Msg{Sender: p}}
				if tag < 0 {
					it.Meta.Seq, it.Meta.Annot = ts[p].Reliable()
				} else {
					it.Meta.Seq, it.Meta.Annot = ts[p].Update(uint32(tag))
				}
				if tag >= 0 && op == 9 {
					dropped++ // the sender's copy was purged: it never arrives
					break
				}
				n, err := q.AppendPurge(it)
				if err != nil {
					t.Fatal(err)
				}
				purges += n
				ref.appendPurge(it, tag)
			}
			steps++
			var kept []entryID
			q.EachRef(func(it *Item) bool { kept = append(kept, id(*it)); return true })
			if !slices.Equal(kept, ids(ref.items)) {
				divergences++
			}
		}
	}
	t.Logf("%d steps, %d purges, %d updates dropped, %d divergences", steps, purges, dropped, divergences)
	if divergences != 0 || purges == 0 || dropped == 0 {
		t.Fatalf("%d divergences in %d steps (%d purges, %d dropped), want 0 and some of each", divergences, steps, purges, dropped)
	}
}
