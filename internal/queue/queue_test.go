package queue

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

func dataItem(view uint64, sender ident.PID, seq ident.Seq) Item {
	return Item{Kind: Data, View: view, Meta: obsolete.Msg{Sender: sender, Seq: seq}, Payload: []byte{byte(seq)}}
}

// tagging is the §4.2 tagging encoding as the queue runs it: streams minted
// by obsolete.NewTagTracker, whose updates list their item's earlier
// updates, read by obsolete.Enumeration.
var tagging = obsolete.Enumeration{}

// tagWindow is the window of the tests' tagging streams, longer than the
// unit tests' streams: there every update lists all earlier ones of its item.
const tagWindow = 64

// tagStreams mints each sender's tagging stream through its own
// obsolete.NewTagTracker.
type tagStreams map[ident.PID]*obsolete.ItemTracker

// update returns sender's next message, in view, updating item tag.
func (ts tagStreams) update(view uint64, sender ident.PID, tag uint32) Item {
	tr := ts[sender]
	if tr == nil {
		tr = obsolete.NewTagTracker(tagWindow)
		ts[sender] = tr
	}
	seq, annot := tr.Update(tag)
	it := dataItem(view, sender, seq)
	it.Meta.Annot = annot
	return it
}

func ctlItem(view uint64) Item {
	return Item{Kind: Control, View: view, Ctl: view}
}

// pop copies the head out and pops it: the old by-value PopHead, for tests
// that compare what came off the head.
func pop(q *Queue) (Item, bool) {
	h := q.PeekHead()
	if h == nil {
		return Item{}, false
	}
	it := *h
	q.PopHead()
	return it, true
}

// purged runs PurgeFor and collects what it visited, in visit order.
func purged(q *Queue, n Item) []Item {
	var out []Item
	q.PurgeFor(n, func(it *Item) { out = append(out, *it) })
	return out
}

func seqs(q *Queue) []ident.Seq {
	var out []ident.Seq
	q.EachRef(func(it *Item) bool {
		out = append(out, it.Meta.Seq)
		return true
	})
	return out
}

func TestFIFOOrder(t *testing.T) {
	q := New(obsolete.Empty{}, 0)
	for i := 1; i <= 5; i++ {
		if err := q.Append(dataItem(1, "p", ident.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		it, ok := pop(q)
		if !ok || it.Meta.Seq != ident.Seq(i) {
			t.Fatalf("pop %d: got %v,%v", i, it.Meta.Seq, ok)
		}
	}
	if _, ok := pop(q); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestPurgeRemovesObsoleteKeepsMaximal(t *testing.T) {
	q, ts := New(tagging, 0), tagStreams{}
	// Updates to items 1,2,1,3,1 — purging should leave 2,3 and the last 1.
	tags := []uint32{1, 2, 1, 3, 1}
	removed := 0
	for _, tag := range tags {
		n, err := q.AppendPurge(ts.update(1, "p", tag))
		if err != nil {
			t.Fatal(err)
		}
		removed += n
	}
	if removed != 2 {
		t.Fatalf("arrivals purged %d, want 2", removed)
	}
	got := seqs(q)
	want := []ident.Seq{2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("surviving seqs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("surviving seqs %v, want %v (FIFO order must be preserved)", got, want)
		}
	}
}

func TestPurgeIgnoresCrossViewAndControl(t *testing.T) {
	q, ts := New(tagging, 0), tagStreams{}
	if err := q.Append(ts.update(1, "p", 7)); err != nil {
		t.Fatal(err)
	}
	if err := q.Append(ctlItem(2)); err != nil {
		t.Fatal(err)
	}
	// Same item, later seq, but a different view: must not purge.
	if removed, err := q.AppendPurge(ts.update(2, "p", 7)); err != nil || removed != 0 {
		t.Fatalf("cross-view arrival purged %d entries (err %v)", removed, err)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

func TestAppendFullAndPurgeToMakeRoom(t *testing.T) {
	q, ts := New(tagging, 3), tagStreams{}
	for tag := uint32(1); tag <= 3; tag++ {
		if err := q.Append(ts.update(1, "p", tag)); err != nil {
			t.Fatal(err)
		}
	}
	// All distinct items: nothing purgeable, append must fail.
	if err := q.Append(ts.update(1, "p", 99)); !errors.Is(err, ErrFull) {
		t.Fatalf("Append to full queue: err = %v, want ErrFull", err)
	}
	if got := q.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	// An update of item 2 purges the old one on arrival, making room.
	purged, err := q.AppendPurge(ts.update(1, "p", 2))
	if err != nil {
		t.Fatalf("AppendPurge: %v", err)
	}
	if purged != 1 {
		t.Fatalf("AppendPurge purged %d, want 1", purged)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

// TestPurgeFor: an arrival that lists two held entries removes both and
// visits them in FIFO order, whatever order its annotation lists them in.
func TestPurgeFor(t *testing.T) {
	q := New(obsolete.Enumeration{}, 0)
	for s := ident.Seq(1); s <= 3; s++ {
		if err := q.Append(dataItem(1, "p", s)); err != nil {
			t.Fatal(err)
		}
	}
	n := dataItem(1, "p", 4)
	n.Meta.Annot = obsolete.EnumAnnot(4, []ident.Seq{3, 1}) // lists 3, then 1
	if c := q.CountPurgeableFor(n); c != 2 {
		t.Fatalf("CountPurgeableFor = %d, want 2", c)
	}
	removed := purged(q, n)
	if len(removed) != 2 {
		t.Fatalf("PurgeFor removed %d, want 2", len(removed))
	}
	if removed[0].Meta.Seq != 1 || removed[1].Meta.Seq != 3 {
		t.Fatalf("PurgeFor removed %v", removed)
	}
	got := seqs(q)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("contents %v, want [2]", got)
	}
	if n := purged(q, ctlItem(1)); n != nil {
		t.Fatalf("PurgeFor(control) removed %d, want 0", len(n))
	}
}

func TestSnapshot(t *testing.T) {
	q := New(obsolete.Empty{}, 0)
	for i := 1; i <= 4; i++ {
		if err := q.Append(dataItem(uint64(i%2), "p", ident.Seq(i))); err != nil {
			t.Fatal(err)
		}
	}
	q.PopHead()
	q.PopHead()
	snap := q.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len %d, want 2", len(snap))
	}
	// Snapshot must be independent.
	snap[0].Meta.Seq = 999
	if got := seqs(q)[0]; got == 999 {
		t.Fatal("Snapshot aliases queue storage")
	}
}

func TestStatsCounters(t *testing.T) {
	q, ts := New(tagging, 0), tagStreams{}
	for i := 1; i <= 2; i++ {
		if err := q.Append(ts.update(1, "p", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.AppendPurge(ts.update(1, "p", 1)); err != nil {
		t.Fatal(err)
	}
	q.PopHead()
	st := q.Stats()
	if st.Appended != 3 || st.Purged != 2 || st.Popped != 1 || st.MaxLen != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestAnyAndPeek(t *testing.T) {
	q := New(obsolete.Empty{}, 0)
	if q.PeekHead() != nil {
		t.Fatal("PeekHead on empty queue")
	}
	if err := q.Append(dataItem(1, "p", 1)); err != nil {
		t.Fatal(err)
	}
	it := q.PeekHead()
	if it == nil || it.Meta.Seq != 1 {
		t.Fatal("PeekHead wrong")
	}
	if q.Len() != 1 {
		t.Fatal("PeekHead must not remove")
	}
	if got := seqs(q); len(got) != 1 || got[0] != 1 {
		t.Fatalf("EachRef visited %v, want [1]", got)
	}
}

func TestNilRelationDefaultsToEmpty(t *testing.T) {
	q := New(nil, 0)
	if err := q.Append(dataItem(1, "p", 1)); err != nil {
		t.Fatal(err)
	}
	if removed, err := q.AppendPurge(dataItem(1, "p", 2)); err != nil || removed != 0 {
		t.Fatal("nil relation must behave as Empty (plain VS)")
	}
}

// TestPurgePropertyMaximalSurvive drives random k-enumeration streams
// through the queue and checks the §3.4 invariant: purge never discards
// maximal elements, survivors keep FIFO order, and every removed entry is
// covered by some survivor.
func TestPurgePropertyMaximalSurvive(t *testing.T) {
	const k = 16
	rel := obsolete.KEnumeration{K: k}
	rng := rand.New(rand.NewSource(123))

	for trial := 0; trial < 100; trial++ {
		tr := obsolete.NewKTracker(k)
		n := 2 + rng.Intn(20)
		var items []Item
		for i := 0; i < n; i++ {
			var direct []ident.Seq
			for j := range items {
				d := len(items) - j
				if d <= k && rng.Intn(4) == 0 {
					direct = append(direct, items[j].Meta.Seq)
				}
			}
			s, a := tr.Next(direct...)
			items = append(items, Item{
				Kind: Data, View: 1,
				Meta: obsolete.Msg{Sender: "p", Seq: s, Annot: a},
			})
		}
		q := New(rel, 0)
		for _, it := range items {
			if _, err := q.AppendPurge(it); err != nil {
				t.Fatal(err)
			}
		}
		surv := q.Snapshot()

		// Maximal elements (no later message obsoletes them) must survive.
		for _, m := range items {
			maximal := true
			for _, x := range items {
				if rel.Obsoletes(m.Meta, x.Meta) {
					maximal = false
					break
				}
			}
			if !maximal {
				continue
			}
			found := false
			for _, s := range surv {
				if s.Meta.Seq == m.Meta.Seq {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: maximal message %d was purged", trial, m.Meta.Seq)
			}
		}
		// Every removed entry must be covered by a survivor through a
		// chain of the true (transitive) relation. The k-enumeration
		// encoding truncates transitivity at the window edge, but the
		// application-level relation is a transitive partial order, so
		// chain coverage is the invariant that matters (§3.4).
		surviving := make(map[ident.Seq]bool, len(surv))
		for _, s := range surv {
			surviving[s.Meta.Seq] = true
		}
		var chainCovered func(m Item, depth int) bool
		chainCovered = func(m Item, depth int) bool {
			if depth > len(items) {
				return false
			}
			for _, x := range items {
				if !rel.Obsoletes(m.Meta, x.Meta) {
					continue
				}
				if surviving[x.Meta.Seq] || chainCovered(x, depth+1) {
					return true
				}
			}
			return false
		}
		for _, m := range items {
			if surviving[m.Meta.Seq] {
				continue
			}
			if !chainCovered(m, 0) {
				t.Fatalf("trial %d: purged message %d has no surviving cover chain", trial, m.Meta.Seq)
			}
		}
		// FIFO order preserved.
		for i := 1; i < len(surv); i++ {
			if surv[i-1].Meta.Seq >= surv[i].Meta.Seq {
				t.Fatalf("trial %d: FIFO order broken: %d before %d",
					trial, surv[i-1].Meta.Seq, surv[i].Meta.Seq)
			}
		}
	}
}
