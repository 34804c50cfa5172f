package core

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
)

func TestStabilityPrunesHistoryAndShrinksFlush(t *testing.T) {
	// Classic VS (no purging) so every message would otherwise stay in
	// the delivery history until the next view change.
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}, stability: 5 * time.Millisecond})

	const count = 50
	var seq ident.Seq
	for i := 0; i < count; i++ {
		seq++
		if err := h.multicast("p0", seq, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count) })
	}

	// Give the gossip a few rounds to converge, then the history must
	// have been pruned at every member.
	deadline := time.After(10 * time.Second)
	for _, p := range h.pids {
		for {
			st := h.members[p].eng.Stats()
			if st.StablePruned > 0 && st.HistoryLen < count/2 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("%s: stability never pruned: %+v", p, h.members[p].eng.Stats())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// A view change now flushes only the unstable tail.
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	if st := h.members["p0"].eng.Stats(); st.LastFlushLen >= count {
		t.Errorf("flush set %d not reduced by stability (multicast %d)", st.LastFlushLen, count)
	}
	h.verify()
}

func TestStabilityDisabledKeepsFullFlush(t *testing.T) {
	// Control experiment: without stability the VS flush carries every
	// message of the view.
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}})
	const count = 30
	var seq ident.Seq
	for i := 0; i < count; i++ {
		seq++
		if err := h.multicast("p0", seq, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count) })
	}
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	if st := h.members["p0"].eng.Stats(); st.LastFlushLen != count {
		t.Errorf("flush set %d, want the full %d without stability", st.LastFlushLen, count)
	}
	h.verify()
}

func TestStabilitySafetyUnderPurging(t *testing.T) {
	// Stability + semantic purging + slow member + view change: the
	// recorded execution must still satisfy every §3.2 property.
	h := newGroup(t, harnessOpts{
		n:            3,
		rel:          obsolete.KEnumeration{K: 64},
		toDeliverCap: 8, outgoingCap: 8, window: 8,
		stability: 3 * time.Millisecond,
	})
	h.members["p2"].slowDown(2 * time.Millisecond)

	it := obsolete.NewItemTracker(obsolete.NewKTracker(64))
	var last ident.Seq
	for i := 0; i < 150; i++ {
		seq, annot := it.Update(uint32(i % 3))
		if err := h.multicast("p0", seq, annot, nil); err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", last) })
	}
	if err := h.members["p1"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	h.verify()
}

func TestStabilityAcrossViewChanges(t *testing.T) {
	// Frontiers are global per sender; pruning must keep working in later
	// views after the per-view gossip table resets.
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}, stability: 3 * time.Millisecond})
	var seq ident.Seq
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			seq++
			if err := h.multicast("p0", seq, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.members["p0"].eng.RequestViewChange(); err != nil {
			t.Fatal(err)
		}
		for _, p := range h.pids {
			h.waitView(p, ident.ViewID(2+round))
		}
	}
	// After the last view change, new traffic must still stabilise.
	for i := 0; i < 10; i++ {
		seq++
		if err := h.multicast("p0", seq, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", seq) })
	}
	deadline := time.After(10 * time.Second)
	for {
		st := h.members["p1"].eng.Stats()
		if st.HistoryLen == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("history never drained in the final view: %+v", st)
		case <-time.After(2 * time.Millisecond):
		}
	}
	h.verify()
}

// TestPruneStablePrefix pins pruneStable's walk: it pops the history's head
// while the head is stable and stops at the first entry that is not, so a
// sender whose frontier lags holds back the stable entries queued behind its
// oldest message — until the report that releases it, which releases them
// too. What is pruned in the end is what a walk over the whole history
// prunes for the same reports (9 of 9 here); only when differs.
func TestPruneStablePrefix(t *testing.T) {
	e := snapEngine(obsolete.Empty{})
	for seq := ident.Seq(1); seq <= 3; seq++ {
		for _, s := range []ident.PID{"a", "b", "me"} {
			e.delivered.ForceAppend(tagged(uint64(e.vc.cv.ID), s, 0, 0, 0)[seq-1])
		}
	}
	// report has every member gossip the same frontiers.
	report := func(a, b, me ident.Seq) {
		for _, from := range e.vc.cv.Members {
			e.onStable(from, StableMsg{View: e.vc.cv.ID, Recv: map[ident.PID]ident.Seq{"a": a, "b": b, "me": me}})
		}
	}
	check := func(when string, pruned uint64, head string) {
		t.Helper()
		got := "empty"
		if it := e.delivered.PeekHead(); it != nil {
			got = ids([]DataMsg{msgOf(it)})[0]
		}
		if e.vc.stats.StablePruned != pruned || got != head {
			t.Fatalf("%s: %d pruned, history head %s; want %d and %s", when, e.vc.stats.StablePruned, got, pruned, head)
		}
	}

	report(0, 3, 3) // somebody has yet to receive a:1
	check("a's frontier lagging", 0, "a:1@4")
	report(2, 3, 3)
	check("a:1 and a:2 stable", 6, "a:3@4")
	report(3, 3, 3)
	check("everything stable", 9, "empty")
}
