// Distributed monitoring: the "distributed control and monitoring
// applications which exhibit a highly interactive behavior" the paper
// cites as its second motivating workload (§1).
//
// A field gateway multicasts sensor readings at high rate to a group of
// dashboards. Each sensor is a data item: a newer reading makes older ones
// obsolete, while alarm messages are reliable and must never be dropped.
// One dashboard runs on a struggling machine — with SVS it stays in the
// group, sees every alarm and the freshest readings, and never stalls the
// gateway.
//
// Run with: go run ./examples/monitoring
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

const (
	sensors = 8
	k       = 64
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := transport.NewMemNetwork()
	group := ident.NewPIDs("gateway", "dash-main", "dash-edge")
	view := core.View{ID: 1, Members: group}
	rel := obsolete.KEnumeration{K: k}

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
			ToDeliverCap: 8, OutgoingCap: 8, Window: 8,
		})
		if err != nil {
			return err
		}
		engines[p] = eng
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Every member must drain its own deliveries — the gateway included:
	// its self-delivered alarms are reliable (never purged) and would
	// otherwise fill its bounded buffer and stall its multicasts.
	var wgGw sync.WaitGroup
	wgGw.Add(1)
	go func() {
		defer wgGw.Done()
		for {
			if _, err := engines["gateway"].Deliver(ctx); err != nil {
				return
			}
		}
	}()
	defer wgGw.Wait()

	// Dashboards consume readings; dash-edge is slow (10ms per message).
	type dashState struct {
		mu       sync.Mutex
		latest   map[uint32]string
		alarms   []string
		readings int
	}
	states := map[ident.PID]*dashState{}
	var wg sync.WaitGroup
	for _, p := range []ident.PID{"dash-main", "dash-edge"} {
		ds := &dashState{latest: make(map[uint32]string)}
		states[p] = ds
		slow := p == "dash-edge"
		wg.Add(1)
		go func(p ident.PID, ds *dashState) {
			defer wg.Done()
			for {
				d, err := engines[p].Deliver(ctx)
				if err != nil {
					return
				}
				if d.Kind != core.DeliverData {
					continue
				}
				ds.mu.Lock()
				var sensor uint32
				var value string
				if _, err := fmt.Sscanf(string(d.Payload), "s%d=%s", &sensor, &value); err == nil {
					ds.latest[sensor] = value
					ds.readings++
				} else {
					ds.alarms = append(ds.alarms, string(d.Payload))
				}
				ds.mu.Unlock()
				if slow {
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(p, ds)
	}

	// The gateway publishes 400 readings round-robin across sensors and
	// raises 3 alarms. Alarms are reliable: SVS never purges them.
	tracker := obsolete.NewItemTracker(obsolete.NewKTracker(k))
	gw := engines["gateway"]
	for i := 0; i < 400; i++ {
		sensor := uint32(i % sensors)
		seq, annot := tracker.Update(sensor)
		payload := []byte(fmt.Sprintf("s%d=%d.%02d", sensor, 20+i%5, i%100))
		meta := obsolete.Msg{Sender: "gateway", Seq: seq, Annot: annot}
		if _, err := gw.Multicast(ctx, meta, payload); err != nil {
			return err
		}
		if i%150 == 75 {
			seq, annot := tracker.Reliable()
			alarm := []byte(fmt.Sprintf("ALARM: sensor %d over threshold", sensor))
			if _, err := gw.Multicast(ctx, obsolete.Msg{Sender: "gateway", Seq: seq, Annot: annot}, alarm); err != nil {
				return err
			}
		}
	}

	// Wait until both dashboards have the final reading of every sensor.
	deadline := time.Now().Add(15 * time.Second)
	final := map[uint32]string{}
	for i := 400 - sensors; i < 400; i++ {
		final[uint32(i%sensors)] = fmt.Sprintf("%d.%02d", 20+i%5, i%100)
	}
	for _, p := range []ident.PID{"dash-main", "dash-edge"} {
		ds := states[p]
		for {
			ds.mu.Lock()
			ok := len(ds.alarms) == 3
			for s, v := range final {
				if ds.latest[s] != v {
					ok = false
					break
				}
			}
			ds.mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never converged", p)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for _, p := range []ident.PID{"dash-main", "dash-edge"} {
		ds := states[p]
		ds.mu.Lock()
		fmt.Printf("%-10s saw %3d readings and %d/3 alarms; final values all current\n",
			p, ds.readings, len(ds.alarms))
		ds.mu.Unlock()
	}
	st := engines["dash-edge"].Stats()
	gwSt := gw.Stats()
	fmt.Printf("\ndash-edge skipped %d stale readings (purged in its buffers);\n", st.PurgedToDeliver)
	fmt.Printf("the gateway purged %d more sender-side (outgoing queues) and was parked %d times.\n",
		gwSt.PurgedOutgoing, gwSt.MulticastParks)
	fmt.Println("Every alarm arrived everywhere — reliability where it matters, freshness elsewhere.")
	cancel()
	wg.Wait()
	return nil
}
