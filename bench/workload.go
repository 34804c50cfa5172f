package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// Engine settings shared by every workload (ISSUE 14, "Common set-up").
const (
	bufferCap = 1024 // ToDeliverCap = OutgoingCap = Window
	// stabilityInterval must be non-zero: without stability gossip the
	// delivery history (the view-change flush set) grows without bound and
	// reliable throughput collapses by more than 10x within a run.
	stabilityInterval = 20 * time.Millisecond
	benchGroup        = ident.GroupID(1)
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string

	members int
	tcp     bool // loopback TCPNetwork, else MemNetwork
	game    bool // game relation (k-enumeration), else Empty ("reliable")

	// rate is the offered load in msgs/s of an open-loop generator that
	// sends every tick whatever flow control does; 0 is a closed loop, the
	// next batch following the previous commit.
	rate  int
	tick  time.Duration // open loop: schedule granularity
	batch int           // messages per MulticastBatch (per tick when open)

	// slowRate, when non-zero, token-paces the last member to consume that
	// many msgs/s, slowBatch per DeliverBatch.
	slowRate  int
	slowBatch int

	// vcPeriod is the period of RequestViewChange() calls (membership
	// unchanged), the source of the view_change_* samples.
	vcPeriod time.Duration
}

// workloads is the benchmark's fixed list, in BENCHMARK.json's order; the
// reason for each is recorded there and in README.md.
var workloads = []workload{
	{
		name:    "sat_reliable_tcp_m2",
		members: 2, tcp: true, game: false, batch: 64,
	},
	{
		name:    "slowrecv_game_mem_m3",
		members: 3, tcp: false, game: true, batch: 64,
		slowRate: 5000, slowBatch: 8,
	},
	{
		name:    "paced_game_tcp_m2",
		members: 2, tcp: true, game: true, rate: 10000, tick: 5 * time.Millisecond, batch: 50,
	},
	{
		name:    "viewchange_game_mem_m3",
		members: 3, tcp: false, game: true, rate: 5000, tick: 5 * time.Millisecond, batch: 25,
		vcPeriod: 500 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) relation() obsolete.Relation {
	if w.game {
		return obsolete.KEnumeration{K: kWindow}
	}
	return obsolete.Empty{}
}

// cluster is one group's members in this process: a core.Node per member
// over its own endpoint, fd.Manual detectors (nobody is ever suspected).
type cluster struct {
	pids    ident.PIDs
	initial core.View
	nodes   []*core.Node
	groups  []*core.Group
	dets    []*fd.Manual
	tcp     []*transport.TCPNetwork // nil on memnet
}

func startCluster(w workload) (*cluster, error) {
	c := &cluster{}
	var pids []ident.PID
	for i := 0; i < w.members; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	c.pids = ident.NewPIDs(pids...)
	eps := make([]transport.Endpoint, w.members)
	if w.tcp {
		for i, p := range c.pids {
			n, err := transport.NewTCPNetwork(p, "127.0.0.1:0", nil)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("listen for %s: %w", p, err)
			}
			c.tcp = append(c.tcp, n)
			eps[i] = n
		}
		for i, n := range c.tcp {
			for j, m := range c.tcp {
				if i != j {
					n.AddPeer(c.pids[j], m.Addr())
				}
			}
		}
	} else {
		net := transport.NewMemNetwork()
		for i, p := range c.pids {
			ep, err := net.Endpoint(p)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("endpoint for %s: %w", p, err)
			}
			eps[i] = ep
		}
	}
	c.initial = core.View{ID: 1, Members: c.pids}
	for i, p := range c.pids {
		det := fd.NewManual()
		c.dets = append(c.dets, det)
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: eps[i], Detector: det})
		if err != nil {
			_ = eps[i].Close() // the node never took ownership
			c.close()
			return nil, fmt.Errorf("node %s: %w", p, err)
		}
		c.nodes = append(c.nodes, node)
		g, err := node.Create(benchGroup, core.GroupConfig{
			InitialView: c.initial, Relation: w.relation(),
			ToDeliverCap: bufferCap, OutgoingCap: bufferCap, Window: bufferCap,
			StabilityInterval: stabilityInterval,
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("create group at %s: %w", p, err)
		}
		c.groups = append(c.groups, g)
	}
	return c, nil
}

// close stops every node (which closes its endpoint) and detector. It
// returns once every engine loop has exited.
func (c *cluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // crash-stop shutdown; nothing to report
	}
	// Endpoints whose node was never built.
	for i := len(c.nodes); i < len(c.tcp); i++ {
		_ = c.tcp[i].Close()
	}
	for _, d := range c.dets {
		d.Stop()
	}
}
