package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

func TestDeliverContextCancel(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}})
	// Pause the driver so we can race our own Deliver against it... the
	// driver already consumes; use a second caller with a cancelled ctx.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.members["p0"].eng.Deliver(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMulticastContextTimeoutWhileParked(t *testing.T) {
	// Stopped consumer + tiny buffers: the multicast parks; its context
	// expiry must release the caller with ctx.Err.
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}, toDeliverCap: 2, outgoingCap: 2, window: 2})
	m := h.members["p1"]
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()

	var seq ident.Seq
	deadline := time.Now().Add(20 * time.Second)
	for {
		seq++
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := h.members["p0"].eng.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: seq}, nil)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			break // parked and timed out, as intended
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: seq}, 1)
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked against a paused consumer")
		}
	}
	// The engine survives: un-pause and verify the group still works. The
	// timed-out message was never committed, so the tracker retries the
	// same sequence number.
	m.mu.Lock()
	m.paused = false
	m.mu.Unlock()
	retry := seq
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := h.members["p0"].eng.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: retry}, nil); err != nil {
		t.Fatalf("retry after timeout: %v", err)
	}
	h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: retry}, 1)
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", retry) })
	h.verify()
}

func TestStopWhileParkedReleasesCallers(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}, toDeliverCap: 1, outgoingCap: 1, window: 1})
	m := h.members["p1"]
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()

	errC := make(chan error, 1)
	go func() {
		var seq ident.Seq
		for {
			seq++
			_, err := h.members["p0"].eng.Multicast(context.Background(), obsolete.Msg{Sender: "p0", Seq: seq}, nil)
			if err != nil {
				errC <- err
				return
			}
		}
	}()
	// Give the producer time to park, then stop the engine under it.
	time.Sleep(100 * time.Millisecond)
	h.members["p0"].eng.stop()
	select {
	case err := <-errC:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked multicast not released by stop")
	}
}

// TestStopReleasesEveryCall: stopping an engine fails every call its value
// holds with ErrStopped — a Deliver waiting on an empty queue, and a
// joiner's Multicast, parked because its one contact is dead and it never
// gives up — and so does a call racing the stop. The stop's turn releases
// them: the last turn the joiner publishes has nothing parked.
func TestStopReleasesEveryCall(t *testing.T) {
	net := transport.NewMemNetwork()
	det := fd.NewManual()
	defer det.Stop()
	launch := func(self ident.PID, cfg config) *Engine {
		ep, err := net.Endpoint(self)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		cfg.Self, cfg.Endpoint, cfg.Detector, cfg.Relation = self, ep, det, tagging
		eng, err := start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	solo := launch("solo", config{GroupConfig: GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("solo")}}})
	joiner := launch("j", config{Join: &JoinSpec{Contacts: ident.NewPIDs("ghost")}})

	errC := make(chan error, 4)
	deliver := func() {
		_, err := solo.Deliver(context.Background())
		errC <- err
	}
	multicast := func() {
		_, err := joiner.Multicast(context.Background(), tagStreams{}.next("j", 1), nil)
		errC <- err
	}
	go deliver()
	go multicast()
	joinWaitCond(t, "the joiner's multicast parked", func() bool { return joiner.Stats().Parked == 1 })
	// The Deliver has most likely reached the value by now; if it races the
	// stop instead, it must fail the same way.
	time.Sleep(20 * time.Millisecond)
	go deliver() // racing the stop
	go multicast()
	solo.stop()
	joiner.stop()
	for i := 0; i < 4; i++ {
		select {
		case err := <-errC:
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("call returned %v, want ErrStopped", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 4 calls not released by stop", 4-i)
		}
	}
	if n := joiner.Stats().Parked; n != 0 {
		t.Fatalf("the joiner stopped with %d multicasts parked", n)
	}
}

func TestSingleMemberGroup(t *testing.T) {
	// A group of one: multicast delivers locally; a view change runs
	// consensus with itself.
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("solo")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	det := fd.NewManual()
	defer det.Stop()
	eng, err := start(config{
		Self: "solo", Endpoint: ep, Detector: det,
		GroupConfig: GroupConfig{
			InitialView: View{ID: 1, Members: ident.NewPIDs("solo")},
			Relation:    tagging,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := eng.Multicast(ctx, tagStreams{}.next("solo", 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	d, err := eng.Deliver(ctx)
	if err != nil || d.Kind != DeliverData || string(d.Payload) != "x" {
		t.Fatalf("deliver = %+v, %v", d, err)
	}
	if err := eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	d, err = eng.Deliver(ctx)
	if err != nil || d.Kind != DeliverView || d.NewView.ID != 2 {
		t.Fatalf("view deliver = %+v, %v", d, err)
	}
}

func TestDoubleStopIsSafe(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}})
	h.members["p0"].eng.stop()
	h.members["p0"].eng.stop()
	if _, err := h.members["p0"].eng.Multicast(context.Background(), obsolete.Msg{Sender: "p0", Seq: 1}, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("multicast after stop: %v", err)
	}
	if _, err := h.members["p0"].eng.Deliver(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("deliver after stop: %v", err)
	}
	if err := h.members["p0"].eng.RequestViewChange(); !errors.Is(err, ErrStopped) {
		t.Fatalf("view change after stop: %v", err)
	}
}

func TestRapidBackToBackViewChanges(t *testing.T) {
	// Regression: an initiator that installs view v and immediately
	// INITs the change to v+1 races peers still finishing v. The INIT
	// used to be dropped at those peers, stranding the initiator blocked
	// forever; future-view control traffic is now deferred and replayed.
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	const changes = 6
	for i := 0; i < changes; i++ {
		if err := h.members["p0"].eng.RequestViewChange(); err != nil {
			t.Fatal(err)
		}
		// Wait only for the initiator — the next INIT intentionally races
		// the other members' installs.
		deadline := time.After(15 * time.Second)
		for h.members["p0"].eng.Stats().View < ident.ViewID(2+i) {
			select {
			case <-deadline:
				t.Fatalf("change %d stuck: %+v", i, h.members["p0"].eng.Stats())
			case <-time.After(time.Millisecond):
			}
		}
	}
	for _, p := range h.pids {
		h.waitView(p, ident.ViewID(1+changes))
	}
	h.verify()
}

func TestViewChangeWithUnknownLeaver(t *testing.T) {
	// Asking to remove a non-member is harmless: leave ∩ members = ∅.
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}})
	if err := h.members["p0"].eng.RequestViewChange("ghost"); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		v := h.waitView(p, 2)
		if !v.Members.Equal(h.pids) {
			t.Fatalf("membership changed by ghost leaver: %v", v)
		}
	}
	h.verify()
}

// TestCancelledCallsConsumeNothing cancels a Deliver and a Multicast while
// the loop holds them (both are batches of one on the shared request path)
// and checks that the engine neither hands the abandoned calls anything nor
// loses what they were waiting for.
func TestCancelledCallsConsumeNothing(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("solo")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	det := fd.NewManual()
	defer det.Stop()
	eng, err := start(config{
		Self: "solo", Endpoint: ep, Detector: det,
		GroupConfig: GroupConfig{
			InitialView:  View{ID: 1, Members: ident.NewPIDs("solo")},
			ToDeliverCap: 1, // the second multicast parks until the first is delivered
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()
	live, done := context.WithTimeout(context.Background(), 10*time.Second)
	defer done()

	// A Deliver waiting on the empty queue, then cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := eng.Deliver(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Deliver: %v, want context.Canceled", err)
	}

	if _, err := eng.Multicast(live, obsolete.Msg{Sender: "solo", Seq: 1}, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// A Multicast parked behind the full queue, then cancelled.
	ctx, cancel = context.WithCancel(context.Background())
	errC := make(chan error, 1)
	go func() {
		_, err := eng.Multicast(ctx, obsolete.Msg{Sender: "solo", Seq: 2}, []byte("lost"))
		errC <- err
	}()
	waitCond(t, "the second multicast to park", func() bool { return eng.Stats().Parked == 1 })
	cancel()
	if err := <-errC; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Multicast: %v, want context.Canceled", err)
	}

	// The abandoned Deliver must not have swallowed message 1, and the
	// abandoned Multicast must not have committed sequence number 2.
	d, err := eng.Deliver(live)
	if err != nil || d.Kind != DeliverData || string(d.Payload) != "one" {
		t.Fatalf("deliver = %+v, %v; want message 1", d, err)
	}
	if _, err := eng.Multicast(live, obsolete.Msg{Sender: "solo", Seq: 2}, []byte("two")); err != nil {
		t.Fatalf("reusing the cancelled sequence number: %v", err)
	}
	d, err = eng.Deliver(live)
	if err != nil || string(d.Payload) != "two" {
		t.Fatalf("deliver = %+v, %v; want message 2", d, err)
	}
}

// TestStagePrunedAtInstall admits and evicts a series of distinct peers
// while multicasting: of a process that left, the peer table keeps the
// frontiers and nothing that belongs to a view — no staged run, no outgoing
// queue, no credits.
func TestStagePrunedAtInstall(t *testing.T) {
	net := transport.NewMemNetwork()
	launch := func(p ident.PID, cfg config) *Engine {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		cfg.Self, cfg.Endpoint, cfg.Detector = p, ep, det
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
	founder := launch("p0", config{GroupConfig: GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("p0")}}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var seq ident.Seq
	const peers = 4
	for i := 1; i <= peers; i++ {
		p := ident.PID(fmt.Sprintf("j%d", i))
		joiner := launch(p, config{Join: &JoinSpec{Contacts: ident.NewPIDs("p0")}})
		waitCond(t, fmt.Sprintf("%s admitted", p), func() bool {
			return founder.View().Includes(p) && joiner.View().Includes(p)
		})
		for k := 0; k < 3; k++ {
			seq++
			if _, err := founder.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: seq}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := founder.RequestViewChange(p); err != nil {
			t.Fatal(err)
		}
		waitCond(t, fmt.Sprintf("%s evicted", p), func() bool { return !founder.View().Includes(p) })
		joiner.stop()
	}
	founder.stop() // the loop has exited: its state is safe to read
	if len(founder.vc.others) != 0 || len(founder.vc.peers) < peers {
		t.Fatalf("%d other members and %d records after %d peers came and went", len(founder.vc.others), len(founder.vc.peers), peers)
	}
	for id, p := range founder.vc.peers {
		if !reflect.DeepEqual(p.link, link{}) {
			t.Fatalf("%s left, yet its record keeps per-view state: %+v", id, p.link)
		}
	}
}
