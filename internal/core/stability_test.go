package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
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
			e.vc.delivered.ForceAppend(tagged(uint64(e.vc.cv.ID), s, 0, 0, 0)[seq-1])
		}
	}
	// report has every member gossip the same frontiers.
	report := func(a, b, me ident.Seq) {
		for _, from := range e.vc.cv.Members {
			e.vc.onStable(from, StableMsg{View: e.vc.cv.ID, Recv: map[ident.PID]ident.Seq{"a": a, "b": b, "me": me}})
		}
	}
	check := func(when string, pruned uint64, head string) {
		t.Helper()
		got := "empty"
		if it := e.vc.delivered.PeekHead(); it != nil {
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

// stableSpy is an endpoint that keeps every StableMsg sent through it.
type stableSpy struct {
	transport.Endpoint
	mu   sync.Mutex
	sent []StableMsg
}

func (s *stableSpy) Send(to ident.PID, g ident.GroupID, ch transport.Channel, msg any) error {
	if m, ok := msg.(StableMsg); ok {
		s.mu.Lock()
		s.sent = append(s.sent, m)
		s.mu.Unlock()
	}
	return s.Endpoint.Send(to, g, ch, msg)
}

// last returns the latest StableMsg sent for view v, if any was.
func (s *stableSpy) last(v ident.ViewID) (StableMsg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.sent) - 1; i >= 0; i-- {
		if s.sent[i].View == v {
			return s.sent[i], true
		}
	}
	return StableMsg{}, false
}

// TestStableGossipCarriesCurrentMembersOnly: five processes join a
// three-member group one after another, multicast once each and leave. The
// stability gossip of the group they left carries a frontier for at most
// its three members — none for a departed sender, whose messages the
// history no longer holds.
func TestStableGossipCarriesCurrentMembersOnly(t *testing.T) {
	net := transport.NewMemNetwork()
	founders := ident.NewPIDs("p0", "p1", "p2")
	var spy *stableSpy
	launch := func(p ident.PID, cfg config) *Engine {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		cfg.Self, cfg.Endpoint, cfg.Detector = p, ep, det
		if p == "p0" {
			spy = &stableSpy{Endpoint: ep}
			cfg.Endpoint = spy
		}
		cfg.StabilityInterval = time.Millisecond
		eng, err := start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			eng.stop()
			det.Stop()
			ep.Close()
		})
		return eng
	}
	var p0 *Engine
	for _, p := range founders {
		e := launch(p, config{GroupConfig: GroupConfig{InitialView: View{ID: 1, Members: founders}}})
		if p == "p0" {
			p0 = e
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		j := ident.PID(fmt.Sprintf("j%d", i))
		joiner := launch(j, config{Join: &JoinSpec{Contacts: ident.NewPIDs("p0")}})
		waitCond(t, fmt.Sprintf("%s admitted", j), func() bool { return p0.View().Includes(j) && joiner.View().Includes(j) })
		if _, err := joiner.Multicast(ctx, obsolete.Msg{Sender: j, Seq: 1}, nil); err != nil {
			t.Fatal(err)
		}
		if err := p0.RequestViewChange(j); err != nil {
			t.Fatal(err)
		}
		waitCond(t, fmt.Sprintf("%s gone", j), func() bool { return !p0.View().Includes(j) })
		joiner.stop()
	}
	v := p0.View().ID
	var m StableMsg
	waitCond(t, "a StableMsg of the last view", func() (ok bool) { m, ok = spy.last(v); return ok })
	if len(m.Recv) > len(founders) {
		t.Fatalf("the gossip of view %d carries %d frontiers, want at most %d: %v", v, len(m.Recv), len(founders), m.Recv)
	}
}
