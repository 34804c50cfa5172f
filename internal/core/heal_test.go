package core

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obs"
)

// healProbe is the advance step of the fake-clock healing tests: the probe
// interval, so every step fires one round of discovery beacons on each
// engine.
const healProbe = probeInterval

// lastView reads the most recent view p's application loop reported.
func (h *groupHarness) lastView(p ident.PID) View {
	m := h.members[p]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastView
}

// advanceUntil drives the shared fake clock one probe interval per poll
// step until cond holds. The protocol itself is message-driven; the
// clock advances only gate the healing beacons, so each step is one
// probe round.
func (h *groupHarness) advanceUntil(fake *obs.Fake, what string, cond func() bool) {
	h.t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		if cond() {
			return
		}
		fake.Advance(healProbe)
		select {
		case <-deadline:
			h.t.Fatalf("%s: condition never met", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// deliveredBeforeInstall reports whether log delivers (sender, seq)
// strictly before the install of ref.
func deliveredBeforeInstall(log []check.Event, sender ident.PID, seq ident.Seq, ref ident.ViewRef) bool {
	for _, ev := range log {
		switch ev.Kind {
		case check.EvDeliver:
			if ev.Meta.Sender == sender && ev.Meta.Seq == seq {
				return true
			}
		case check.EvInstall:
			if ev.Ref == ref {
				return false
			}
		}
	}
	return false
}

// TestPartitionHealSplitAndMerge is the deterministic healing scenario:
// a five-member group partitions 3|2. The majority completes an ordinary
// eviction on the founding lineage; the reachable minority, which could
// never decide that change (its quorum is unreachable), splits into a
// sub-view under a fresh epoch. Both sides multicast divergent traffic.
// After the network heals, probes rediscover the far side and both
// sub-views merge into a union view carrying each other's backlog —
// delivered before the union marker, exactly as SVS demands across any
// view change. The whole run is then replayed through the oracle.
func TestPartitionHealSplitAndMerge(t *testing.T) {
	fake := obs.NewFake(time.Unix(0, 0))
	h := newGroup(t, harnessOpts{
		n:         5,
		autoEvict: true,
		heal:      true,
		clock:     fake,
	})
	maj, min := h.pids[:3], h.pids[3:] // {p0,p1,p2} | {p3,p4}

	// Partition the sides and let every detector see the far side fail.
	h.faults.Partition(maj, min)
	for _, a := range maj {
		for _, b := range min {
			h.members[a].det.Suspect(b)
			h.members[b].det.Suspect(a)
		}
	}

	// The majority evicts the minority with an ordinary view change on
	// the founding lineage (epoch 0).
	var majView View
	h.advanceUntil(fake, "majority eviction view", func() bool {
		for _, p := range maj {
			v := h.lastView(p)
			if v.ID != 2 || v.Epoch != 0 {
				return false
			}
			majView = v
		}
		return true
	})
	if !majView.Members.Equal(maj) {
		t.Fatalf("majority view members %v, want %v", majView.Members, maj)
	}

	// The minority splits: same view number, fresh lineage epoch derived
	// from (parent ref, member set).
	var minView View
	h.advanceUntil(fake, "minority split view", func() bool {
		for _, p := range min {
			v := h.lastView(p)
			if v.ID != 2 || v.Epoch == 0 {
				return false
			}
			minView = v
		}
		return true
	})
	if !minView.Members.Equal(min) {
		t.Fatalf("split view members %v, want %v", minView.Members, min)
	}
	if want := SplitEpoch(ident.ViewRef{ID: 1}, min); minView.Epoch != want {
		t.Fatalf("split epoch %x, want SplitEpoch %x", minView.Epoch, want)
	}

	// Divergent traffic on both sides of the partition: this is the
	// backlog the merge must carry across.
	for s := ident.Seq(1); s <= 3; s++ {
		if err := h.multicast(maj[0], s, nil, []byte("majority")); err != nil {
			t.Fatalf("majority multicast %d: %v", s, err)
		}
		if err := h.multicast(min[0], s, nil, []byte("minority")); err != nil {
			t.Fatalf("minority multicast %d: %v", s, err)
		}
	}

	// Heal: withdraw the suspicions first (the merge proposal treats a
	// suspected member as excludable), then reconnect the links.
	for _, a := range maj {
		for _, b := range min {
			h.members[a].det.Restore(b)
			h.members[b].det.Restore(a)
		}
	}
	for _, a := range maj {
		for _, b := range min {
			h.faults.HealLink(a, b)
			h.faults.HealLink(b, a)
		}
	}

	// The union ref is deterministic: both initiators normalise the sides
	// the same way, so re-runs land on the same consensus instance.
	la, lb := majView.Ref(), minView.Ref()
	if lb.Less(la) {
		la, lb = lb, la
	}
	wantUnion := mergeRefFor(la, lb)

	h.advanceUntil(fake, "union view "+wantUnion.String(), func() bool {
		for _, p := range h.pids {
			if h.lastView(p).Ref() != wantUnion {
				return false
			}
		}
		return true
	})
	for _, p := range h.pids {
		if v := h.lastView(p); !v.Members.Equal(h.pids) {
			t.Fatalf("%s: union members %v, want %v", p, v.Members, h.pids)
		}
	}

	// The merge's semantic state exchange: each side must deliver the
	// other's relation-surviving backlog before the union-view marker.
	for _, p := range maj {
		for s := ident.Seq(1); s <= 3; s++ {
			if !deliveredBeforeInstall(h.rec.Log(p), min[0], s, wantUnion) {
				t.Errorf("%s: %s:%d not delivered before union view %s", p, min[0], s, wantUnion)
			}
		}
	}
	for _, p := range min {
		for s := ident.Seq(1); s <= 3; s++ {
			if !deliveredBeforeInstall(h.rec.Log(p), maj[0], s, wantUnion) {
				t.Errorf("%s: %s:%d not delivered before union view %s", p, maj[0], s, wantUnion)
			}
		}
	}

	// Every member went through the merge handshake, not a state transfer.
	for _, p := range h.pids {
		st := h.members[p].eng.Stats()
		if st.Merges == 0 {
			t.Errorf("%s: no completed merge in stats: %+v", p, st)
		}
		if st.Epoch != wantUnion.Epoch {
			t.Errorf("%s: stats epoch %x, want %x", p, st.Epoch, wantUnion.Epoch)
		}
	}

	// And the whole execution satisfies §3.2 across the partition.
	h.verify()
}

// TestPartitionHealSingletonMerge: the degenerate sub-view. A single
// member cut off from everyone still splits — a one-member lineage — and
// keeps running; when the network heals, the probe/merge path brings it
// back through the union view like any larger sub-view, rather than the
// evicted-member retirement path (which is only for members a newer view
// of their *own* lineage excludes).
func TestPartitionHealSingletonMerge(t *testing.T) {
	fake := obs.NewFake(time.Unix(0, 0))
	h := newGroup(t, harnessOpts{
		n:         3,
		autoEvict: true,
		heal:      true,
		clock:     fake,
	})
	maj, loner := h.pids[:2], h.pids[2] // {p0,p1} | p2

	// Cut every link in one step before anyone suspects: cut one at a time
	// while the engines run, and an INIT forwarded over a link still up can
	// reach the loner, which then proposes a change it can never decide
	// instead of splitting.
	h.faults.Partition(maj, []ident.PID{loner})
	for _, a := range maj {
		h.members[a].det.Suspect(loner)
		h.members[loner].det.Suspect(a)
	}

	h.advanceUntil(fake, "majority eviction", func() bool {
		for _, p := range maj {
			v := h.lastView(p)
			if v.ID != 2 || v.Epoch != 0 {
				return false
			}
		}
		return true
	})
	// The loner continues alone under a split epoch.
	h.advanceUntil(fake, "singleton split", func() bool {
		v := h.lastView(loner)
		return v.ID == 2 && v.Epoch != 0 && len(v.Members) == 1
	})

	for _, a := range maj {
		h.members[a].det.Restore(loner)
		h.members[loner].det.Restore(a)
	}
	for _, a := range maj {
		h.faults.HealLink(a, loner)
		h.faults.HealLink(loner, a)
	}

	la, lb := h.lastView(maj[0]).Ref(), h.lastView(loner).Ref()
	if lb.Less(la) {
		la, lb = lb, la
	}
	wantUnion := mergeRefFor(la, lb)
	h.advanceUntil(fake, "singleton union view", func() bool {
		for _, p := range h.pids {
			if h.lastView(p).Ref() != wantUnion {
				return false
			}
		}
		return true
	})
	for _, p := range h.pids {
		if v := h.lastView(p); !v.Members.Equal(h.pids) {
			t.Fatalf("%s: union members %v, want %v", p, v.Members, h.pids)
		}
	}
	h.verify()
}
