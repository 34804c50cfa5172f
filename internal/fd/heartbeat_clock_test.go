package fd

import (
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestHeartbeatDeterministicUnderFakeClock drives the heartbeat detector
// with an obs.Fake clock and proves suspicion timing is exact: with
// Interval=20ms, so a 100ms timeout, a peer silent since t=0 is suspected at
// the t=120ms tick (the first beat tick where now-lastSeen > 100ms) and
// at no earlier tick. The beats the detector sends each tick double as
// synchronisation points: receiving the beat of tick N guarantees the
// check of every tick before N has completed, so the "not yet suspected"
// assertions are race-free.
func TestHeartbeatDeterministicUnderFakeClock(t *testing.T) {
	net := transport.NewMemNetwork()
	epA, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	defer epB.Close()

	start := time.Unix(0, 0)
	clock := obs.NewFake(start)
	reg := obs.NewRegistry()
	h := NewHeartbeat(epA, watching("a", "b").get, HeartbeatOptions{
		Interval: 20 * time.Millisecond,
		Obs:      obs.New(clock, reg, nil),
	})
	h.Start()
	defer h.Stop()
	clock.BlockUntil(1) // the beat ticker is created inside beatLoop

	beats := epB.Inbox(ident.NodeGroup, transport.FailureDetector)
	tick := func() time.Time {
		clock.Advance(20 * time.Millisecond)
		select {
		case env := <-beats:
			if env.From != "a" {
				t.Fatalf("beat from %s, want a", env.From)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no beat after advancing to %v", clock.Now().Sub(start))
		}
		return clock.Now()
	}

	// Ticks at 20..100ms: 100-0 = 100 is not > 100, so b must not be
	// suspected at any of them. After the beat of tick N arrives, every
	// check before tick N has run; the clock is frozen, so no later check
	// can race the assertion ahead of the next Advance.
	for i := 0; i < 5; i++ {
		at := tick()
		if h.Suspected("b") {
			t.Fatalf("b suspected at virtual %v, before the timeout", at.Sub(start))
		}
	}

	// Tick at 120ms: 120 > 100 — the suspicion must fire, exactly now.
	at := tick()
	select {
	case ev := <-h.Events():
		if ev.P != "b" || !ev.Suspected {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("suspicion never fired after the timeout tick")
	}
	if got := at.Sub(start); got != 120*time.Millisecond {
		t.Fatalf("suspicion tick at virtual %v, want 120ms", got)
	}
	if !h.Suspected("b") {
		t.Fatal("b not suspected after the suspicion event")
	}

	// A beat from b revises the suspicion and stamps lastSeen from the
	// fake clock.
	if err := epB.Send("a", ident.NodeGroup, transport.FailureDetector, Beat{}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-h.Events():
		if ev.P != "b" || ev.Suspected {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("revival never fired after b's beat")
	}

	// The metrics saw exactly one suspicion and one revival, and the
	// per-peer gauge is back to 0.
	snap := reg.Snapshot()
	if snap.Counters["fd_suspicions_total"] != 1 || snap.Counters["fd_revivals_total"] != 1 {
		t.Fatalf("suspicion counters wrong: %v", snap.Counters)
	}
	if snap.Gauges["fd_suspected{peer=b}"] != 0 {
		t.Fatalf("suspected gauge wrong: %v", snap.Gauges)
	}

	// Silence b again: the next suspicion lands at lastSeen+100ms
	// rounded up to a tick — beat received at 120ms, so the 240ms tick
	// (240-120 = 120 > 100) and not the 220ms one.
	for clock.Now().Sub(start) < 220*time.Millisecond {
		at = tick()
		if h.Suspected("b") {
			t.Fatalf("b re-suspected at virtual %v, before lastSeen+timeout", at.Sub(start))
		}
	}
	at = tick()
	select {
	case ev := <-h.Events():
		if ev.P != "b" || !ev.Suspected {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second suspicion never fired")
	}
	if got := at.Sub(start); got != 240*time.Millisecond {
		t.Fatalf("second suspicion tick at virtual %v, want 240ms", got)
	}
}

// TestSuspectedGaugeFollowsPeers: fd_suspected{peer=p} has a row for each
// peer the detector monitors now, and none, one beat later, for a peer the
// watched set dropped.
func TestSuspectedGaugeFollowsPeers(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	clock := obs.NewFake(time.Unix(0, 0))
	reg := obs.NewRegistry()
	peers := watching("a", "b", "c")
	h := NewHeartbeat(ep, peers.get, HeartbeatOptions{
		Interval: 20 * time.Millisecond,
		Obs:      obs.New(clock, reg, nil),
	})
	h.Start()
	defer h.Stop()
	clock.BlockUntil(1)

	// One tick past the timeout: b and c never beat, both are suspected.
	clock.Advance(120 * time.Millisecond)
	for i := 0; i < 2; i++ {
		select {
		case ev := <-h.Events():
			if !ev.Suspected {
				t.Fatalf("unexpected event %+v", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no suspicion after the timeout tick")
		}
	}
	gauges := reg.Snapshot().Gauges
	if gauges["fd_suspected{peer=b}"] != 1 || gauges["fd_suspected{peer=c}"] != 1 {
		t.Fatalf("suspected gauges = %v, want b and c at 1", gauges)
	}

	// b leaves the watched set. The clock then moves one beat and stands
	// still, so the row can only go at that beat.
	peers.set("a", "c")
	clock.Advance(20 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := reg.Snapshot().Gauges["fd_suspected{peer=b}"]; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fd_suspected{peer=b} outlived the beat after b's removal")
		}
		time.Sleep(time.Millisecond)
	}
	gauges = reg.Snapshot().Gauges
	if _, ok := gauges["fd_suspected{peer=b}"]; ok {
		t.Fatalf("fd_suspected{peer=b} outlived b's removal: %v", gauges)
	}
	if gauges["fd_suspected{peer=c}"] != 1 {
		t.Fatalf("suspected gauges = %v, want c still at 1", gauges)
	}
}
