// Quickstart: a three-member SVS group over the in-memory transport.
//
// It shows the core API end to end: building a group, multicasting
// item-tagged messages, pulling deliveries, watching a slow member skip
// obsolete updates, and installing a new view.
//
// Run with: go run ./examples/quickstart
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
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A network and the agreed initial view.
	net := transport.NewMemNetwork()
	group := ident.NewPIDs("alice", "bob", "carol")
	view := core.View{ID: 1, Members: group}

	// 2. One node per member, each hosting group 1. The node owns the
	//    endpoint and runs the heartbeat failure detector. The
	//    k-enumeration relation with window 32 lets later updates of an
	//    item obsolete earlier ones.
	rel := obsolete.KEnumeration{K: 32}
	nodes := make(map[ident.PID]*core.Node)
	engines := make(map[ident.PID]*core.Group)
	for _, p := range group {
		ep, err := net.Endpoint(p)
		if err != nil {
			return err
		}
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: ep})
		if err != nil {
			return err
		}
		nodes[p] = node
		eng, err := node.Create(1, core.GroupConfig{
			InitialView:  view,
			Relation:     rel,
			ToDeliverCap: 4, OutgoingCap: 4, Window: 4, // tiny buffers to make purging visible
		})
		if err != nil {
			return err
		}
		engines[p] = eng
	}

	// 3. Delivery loops. Carol is slow: she naps between deliveries, so
	//    obsolete updates are purged from her buffers before she sees them.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	delivered := map[ident.PID][]string{}
	for _, p := range group {
		wg.Add(1)
		go func(p ident.PID) {
			defer wg.Done()
			for {
				d, err := engines[p].Deliver(ctx)
				if err != nil {
					return
				}
				switch d.Kind {
				case core.DeliverData:
					mu.Lock()
					delivered[p] = append(delivered[p], string(d.Payload))
					mu.Unlock()
					if p == "carol" {
						time.Sleep(10 * time.Millisecond)
					}
				case core.DeliverView:
					fmt.Printf("%s installed %v\n", p, d.NewView)
				case core.DeliverExpelled:
					fmt.Printf("%s was expelled\n", p)
					return
				}
			}
		}(p)
	}

	// 4. Alice multicasts a stream of updates to two items; each update
	//    obsoletes the item's previous one.
	tracker := obsolete.NewItemTracker(obsolete.NewKTracker(32))
	for i := 0; i < 30; i++ {
		item := uint32(i % 2)
		seq, annot := tracker.Update(item)
		meta := obsolete.Msg{Sender: "alice", Seq: seq, Annot: annot}
		payload := []byte(fmt.Sprintf("item%d=v%d", item, i))
		if _, err := engines["alice"].Multicast(ctx, meta, payload); err != nil {
			return err
		}
	}

	// 5. Install a new view: SVS guarantees everyone has (a cover of)
	//    every delivered message before the view appears.
	time.Sleep(300 * time.Millisecond)
	if err := engines["alice"].RequestViewChange(); err != nil {
		return err
	}
	time.Sleep(300 * time.Millisecond)

	mu.Lock()
	for _, p := range group {
		msgs := delivered[p]
		last := ""
		if len(msgs) > 0 {
			last = msgs[len(msgs)-1]
		}
		fmt.Printf("%s delivered %2d messages (last: %s)\n", p, len(msgs), last)
	}
	mu.Unlock()
	st := engines["carol"].Stats()
	fmt.Printf("carol's engine purged %d obsolete messages — she skipped stale updates but never lost a current one\n",
		st.PurgedToDeliver)

	cancel()
	for _, p := range group {
		nodes[p].Close()
	}
	wg.Wait()
	return nil
}
