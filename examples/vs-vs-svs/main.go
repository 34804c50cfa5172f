// VS vs SVS, head to head on the live protocol: the paper's core trade-off
// in one run.
//
// The same bursty workload is pushed through two groups with identical
// tiny buffers — one running classic View Synchrony (empty obsolescence
// relation), one running Semantic View Synchrony (k-enumeration). Each
// group has the same deliberately slow member. The program reports how
// long the producer took (flow-control blocking), what the slow member
// actually saw, and the view-change flush size.
//
// Run with: go run ./examples/vs-vs-svs
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/trace"
	"repro/internal/transport"
)

const (
	buffer = 8
	k      = 2 * buffer
)

func main() {
	tr := genTrace()
	fmt.Printf("workload: %d messages of the calibrated game trace, replayed at full speed\n\n", len(tr.Events))

	vs, err := runGroup(tr, obsolete.Empty{}, "vs")
	if err != nil {
		log.Fatal(err)
	}
	svs, err := runGroup(tr, obsolete.KEnumeration{K: k}, "svs")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-28s %-14s %-14s\n", "", "VS (reliable)", "SVS (semantic)")
	fmt.Printf("%-28s %-14v %-14v\n", "production wall time", vs.wall.Round(time.Millisecond), svs.wall.Round(time.Millisecond))
	fmt.Printf("%-28s %-14d %-14d\n", "slow member: delivered", vs.slowDelivered, svs.slowDelivered)
	fmt.Printf("%-28s %-14d %-14d\n", "slow member: purged", vs.slowPurged, svs.slowPurged)
	fmt.Printf("%-28s %-14d %-14d\n", "producer: multicast parks", vs.parks, svs.parks)
	fmt.Printf("%-28s %-14d %-14d\n", "view-change flush size", vs.flush, svs.flush)
	fmt.Println("\nSVS finishes sooner with the same buffers: obsolete messages are purged")
	fmt.Println("instead of blocking the producer, yet the slow member still converges and")
	fmt.Println("the view change flushes a consistent cut (§2.2's goals i–iv).")
}

func genTrace() *trace.Trace {
	p := trace.DefaultParams()
	p.Rounds = 900 // ~30 seconds of game time, replayed as fast as possible
	return trace.Generate(p)
}

type outcome struct {
	wall          time.Duration
	slowDelivered int
	slowPurged    uint64
	parks         uint64
	flush         int
}

func runGroup(tr *trace.Trace, rel obsolete.Relation, label string) (outcome, error) {
	var out outcome
	net := transport.NewMemNetwork()
	group := ident.NewPIDs("a-producer", "b-fast", "c-slow")
	view := core.View{ID: 1, Members: group}

	nodes := make(map[ident.PID]*core.Node)
	engines := make(map[ident.PID]*core.Group)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, p := range group {
		ep, err := net.Endpoint(p)
		if err != nil {
			return out, err
		}
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: ep})
		if err != nil {
			return out, err
		}
		nodes[p] = node
		eng, err := node.Create(1, core.GroupConfig{
			InitialView:  view,
			Relation:     rel,
			ToDeliverCap: buffer, OutgoingCap: buffer, Window: buffer,
		})
		if err != nil {
			return out, err
		}
		engines[p] = eng
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	slowCount := 0
	for _, p := range group {
		slow := p == "c-slow"
		wg.Add(1)
		go func(p ident.PID, slow bool) {
			defer wg.Done()
			for {
				d, err := engines[p].Deliver(ctx)
				if err != nil {
					return
				}
				if d.Kind == core.DeliverData && slow {
					mu.Lock()
					slowCount++
					mu.Unlock()
					// The slow machine: 2ms of work per message.
					select {
					case <-time.After(2 * time.Millisecond):
					case <-ctx.Done():
						return
					}
				}
			}
		}(p, slow)
	}

	// Replay the trace as fast as flow control admits.
	msgs := tr.Annotate("a-producer", k)
	start := time.Now()
	for _, m := range msgs {
		if _, err := engines["a-producer"].Multicast(ctx, m.Meta, nil); err != nil {
			return out, err
		}
	}
	out.wall = time.Since(start)

	// One view change to compare flush sizes.
	if err := engines["a-producer"].RequestViewChange(); err != nil {
		return out, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for engines["a-producer"].Stats().View < 2 {
		if time.Now().After(deadline) {
			return out, fmt.Errorf("%s: view change stuck", label)
		}
		time.Sleep(2 * time.Millisecond)
	}

	time.Sleep(100 * time.Millisecond) // let the slow member drain
	mu.Lock()
	out.slowDelivered = slowCount
	mu.Unlock()
	slowSt := engines["c-slow"].Stats()
	prodSt := engines["a-producer"].Stats()
	out.slowPurged = slowSt.PurgedToDeliver + prodSt.PurgedOutgoing
	out.parks = prodSt.MulticastParks
	out.flush = prodSt.LastFlushLen
	cancel()
	wg.Wait()
	return out, nil
}
