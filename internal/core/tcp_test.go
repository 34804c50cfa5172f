package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// TestGroupOverTCP runs a full group — nodes with their heartbeat failure
// detectors, engines, consensus — over real TCP sockets on localhost:
// multicast with purging semantics, then a view change.
func TestGroupOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration skipped in -short mode")
	}
	pids := ident.NewPIDs("t0", "t1", "t2")
	view := View{ID: 1, Members: pids}
	rel := obsolete.KEnumeration{K: 32}

	nodes, _ := tcpNodes(t, pids)
	engines := make(map[ident.PID]*Group, len(pids))
	for _, p := range pids {
		g, err := nodes[p].Create(1, GroupConfig{
			InitialView:  view,
			Relation:     rel,
			ToDeliverCap: 16, OutgoingCap: 16, Window: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[p] = g
	}

	// Delivery loops counting data and watching for the new view.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	gotLast := make(map[ident.PID]bool)
	gotView := make(map[ident.PID]ident.ViewID)
	var wg sync.WaitGroup
	const count = 40
	for _, p := range pids {
		wg.Add(1)
		go func(p ident.PID) {
			defer wg.Done()
			for {
				d, err := engines[p].Deliver(ctx)
				if err != nil {
					return
				}
				mu.Lock()
				switch d.Kind {
				case DeliverData:
					if d.Meta.Seq == count {
						gotLast[p] = true
					}
				case DeliverView, DeliverExpelled:
					gotView[p] = d.NewView.ID
				}
				mu.Unlock()
			}
		}(p)
	}
	defer wg.Wait()
	defer cancel()

	// t0 multicasts item updates over the wire.
	tr := obsolete.NewItemTracker(obsolete.NewKTracker(32))
	for i := 0; i < count; i++ {
		seq, annot := tr.Update(uint32(i % 4))
		meta := obsolete.Msg{Sender: "t0", Seq: seq, Annot: annot}
		mctx, mcancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := engines["t0"].Multicast(mctx, meta, []byte(fmt.Sprintf("v%d", i)))
		mcancel()
		if err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}

	waitCond(t, "final message everywhere", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pids {
			if !gotLast[p] {
				return false
			}
		}
		return true
	})

	// A view change over TCP: INIT/PRED/consensus all cross the sockets.
	if err := engines["t0"].RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "view 2 everywhere", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pids {
			if gotView[p] < 2 {
				return false
			}
		}
		return true
	})
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
