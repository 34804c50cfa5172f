package queue

import (
	"bytes"
	"testing"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// payloadItem is p's next update of item tag in ts, carrying 256 bytes.
func payloadItem(ts tagStreams, tag uint32) Item {
	it := ts.update(1, "p", tag)
	it.Payload = make([]byte, 256)
	return it
}

// checkSlotsReleased asserts that every ring slot not holding a live entry
// is the zero Item — no popped or purged payload, annotation or control
// value stays pinned by the backing array.
func checkSlotsReleased(t *testing.T, q *Queue) {
	t.Helper()
	liveSlots := make(map[uint64]bool)
	for p := q.head; p != q.tail; p++ {
		if q.slot(p).Kind != kindDead {
			liveSlots[p&q.mask] = true
		}
	}
	if len(liveSlots) != q.live {
		t.Fatalf("live bookkeeping: %d live slots, Len %d", len(liveSlots), q.live)
	}
	for i := range q.buf {
		if liveSlots[uint64(i)] {
			continue
		}
		it := q.buf[i]
		if it.Kind != kindDead || it.Payload != nil || it.Meta.Annot != nil || it.Ctl != nil {
			t.Fatalf("slot %d not released: %+v", i, it)
		}
	}
}

// TestRingReleasesPoppedAndPurgedSlots is the regression test for payload
// pinning: after pops and purges, the vacated ring slots must hold zero
// Items so the popped/purged payloads become collectable.
func TestRingReleasesPoppedAndPurgedSlots(t *testing.T) {
	q, ts := New(tagging, 0), tagStreams{}
	for i := 1; i <= 12; i++ {
		if err := q.Append(payloadItem(ts, uint32(i%4))); err != nil {
			t.Fatal(err)
		}
	}
	checkSlotsReleased(t, q)

	for i := 0; i < 3; i++ {
		if _, ok := pop(q); !ok {
			t.Fatal("PopHead failed")
		}
		checkSlotsReleased(t, q)
	}

	// An update of tag 1 purges every queued tag-1 entry (middle slots).
	removed := purged(q, payloadItem(ts, 1))
	if len(removed) == 0 {
		t.Fatal("expected purge to remove entries")
	}
	checkSlotsReleased(t, q)

	// Wrap the ring across the tombstones and force compaction.
	for i := 14; i <= 40; i++ {
		if err := q.Append(payloadItem(ts, uint32(i%4))); err != nil {
			t.Fatal(err)
		}
		checkSlotsReleased(t, q)
	}

	// One arrival per tag purges what the plain appends left behind.
	for i := 41; i <= 44; i++ {
		if n, err := q.AppendPurge(payloadItem(ts, uint32(i%4))); err != nil || n == 0 {
			t.Fatalf("AppendPurge = (%d, %v), want purges", n, err)
		}
		checkSlotsReleased(t, q)
	}

	for {
		if _, ok := pop(q); !ok {
			break
		}
		checkSlotsReleased(t, q)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestSnapshotDoesNotAliasBytes asserts Snapshot hands back cloned payload
// and annotation bytes, never views into live queue storage.
func TestSnapshotDoesNotAliasBytes(t *testing.T) {
	q, ts := New(tagging, 0), tagStreams{}
	payloadItem(ts, 7)
	it := payloadItem(ts, 7) // lists the first: a non-empty annotation
	it.Payload[0] = 0xAA
	annot := bytes.Clone(it.Meta.Annot)
	if err := q.Append(it); err != nil {
		t.Fatal(err)
	}

	snap := q.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot len %d", len(snap))
	}
	snap[0].Payload[0] = 0x55
	snap[0].Meta.Annot[0] ^= 0xFF

	head := q.PeekHead()
	if head.Payload[0] != 0xAA {
		t.Fatal("Snapshot aliases live payload bytes")
	}
	if !bytes.Equal(head.Meta.Annot, annot) {
		t.Fatal("Snapshot aliases live annotation bytes")
	}

	// Nil payloads/annotations must stay nil, not become empty slices.
	q2 := New(nil, 0)
	q2.ForceAppend(Item{Kind: Data, View: 1, Meta: obsolete.Msg{Sender: "p", Seq: 1}})
	s2 := q2.Snapshot()
	if s2[0].Payload != nil || s2[0].Meta.Annot != nil {
		t.Fatal("Snapshot materialised nil byte slices")
	}
}

// TestZeroKindItemRejected documents that a zero-Kind Item (the tombstone
// marker) cannot be stored: silently accepting one would desync the live
// counter and wedge capacity accounting.
func TestZeroKindItemRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForceAppend of a zero-Kind Item did not panic")
		}
	}()
	New(nil, 0).ForceAppend(Item{})
}

// TestIndexConsistencyAfterCompaction fills, purges and wraps the ring so
// compaction reassigns positions, then checks the sender index still finds
// exactly the right purge candidates.
func TestIndexConsistencyAfterCompaction(t *testing.T) {
	const k = 4
	rel := obsolete.KEnumeration{K: k}
	q := New(rel, 0)
	tr := obsolete.NewItemTracker(obsolete.NewKTracker(k))

	var last ident.Seq
	for i := 0; i < 100; i++ {
		seq, annot := tr.Update(uint32(i % 3))
		it := Item{Kind: Data, View: 1, Meta: obsolete.Msg{Sender: "p", Seq: seq, Annot: annot}}
		if _, err := q.AppendPurge(it); err != nil {
			t.Fatal(err)
		}
		last = seq
		if i%5 == 0 {
			q.PopHead() // churn head so the ring wraps
		}
	}
	// Steady state: one live update per item (minus popped ones); a final
	// update of item 0 must purge exactly the previous update of item 0 if
	// it is still queued — verified against a direct scan.
	seq, annot := tr.Update(0)
	probe := Item{Kind: Data, View: 1, Meta: obsolete.Msg{Sender: "p", Seq: seq, Annot: annot}}
	want := 0
	q.EachRef(func(it *Item) bool {
		if it.Kind == Data && it.View == 1 && rel.Obsoletes(it.Meta, probe.Meta) {
			want++
		}
		return true
	})
	if got := q.CountPurgeableFor(probe); got != want {
		t.Fatalf("CountPurgeableFor = %d, scan says %d (last=%d)", got, want, last)
	}
	if got := len(purged(q, probe)); got != want {
		t.Fatalf("PurgeFor removed %d, want %d", got, want)
	}
	checkSlotsReleased(t, q)
}

// TestIndexDropsDrainedStreamsOfOldViews pins the bound on the sender index
// across view changes at low occupancy, where the ring never fills and so
// compaction (and with it rebuildIndex) never runs: a stream that drained
// under an older view must not keep its key for the life of the group.
func TestIndexDropsDrainedStreamsOfOldViews(t *testing.T) {
	senders := []ident.PID{"a", "b", "c"}
	q, ts := New(tagging, 0), tagStreams{}
	var n uint32
	for view := uint64(1); view <= 1000; view++ {
		for round := 0; round < 2; round++ {
			for _, s := range senders {
				n++
				if _, err := q.AppendPurge(ts.update(view, s, n%2)); err != nil {
					t.Fatal(err)
				}
				for q.Len() > 4 {
					q.PopHead()
				}
			}
		}
		if got := len(q.idx); got > 2*len(senders) {
			t.Fatalf("view %d: %d streams indexed for %d live entries, want at most %d",
				view, got, q.Len(), 2*len(senders))
		}
	}
}
