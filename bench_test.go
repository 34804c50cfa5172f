// Package repro_test is the benchmark harness regenerating every table and
// figure of the paper's evaluation (§5), plus micro-benchmarks of the
// mechanisms (purging, k-enumeration, consensus, view changes) and
// ablations of the design choices called out in DESIGN.md.
//
// Figure benchmarks report their headline numbers as custom metrics, e.g.
//
//	BenchmarkFig5aThreshold  ... reliable-msgs/s 57.7  semantic-msgs/s 28.4
//
// and cmd/svs-sim and cmd/svs-trace print the full series. EXPERIMENTS.md
// records paper-vs-measured for each.
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// benchTrace is the short calibrated session used by the sweep benchmarks;
// the full 11696-round session is used by the trace-statistics benchmarks.
func benchTrace(rounds int) *trace.Trace {
	p := trace.DefaultParams()
	if rounds > 0 {
		p.Rounds = rounds
	}
	return trace.Generate(p)
}

// ---- Fig. 3: workload characterisation --------------------------------------

func BenchmarkFig3aItemModificationFrequency(b *testing.B) {
	tr := benchTrace(0) // full paper-length session
	var st trace.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = trace.Characterize(tr)
	}
	b.ReportMetric(st.RankFreq[0], "top-rank-%rounds")   // paper: ~22
	b.ReportMetric(st.MeanModifiedPerRound, "mod/round") // paper: 1.39
	b.ReportMetric(st.MeanActiveItems, "active-items")   // paper: 42.33
}

func BenchmarkFig3bObsolescenceDistance(b *testing.B) {
	tr := benchTrace(0)
	var st trace.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = trace.Characterize(tr)
	}
	within10 := 0.0
	for d := 0; d < 10; d++ {
		within10 += st.DistanceHist[d]
	}
	b.ReportMetric(within10, "within10-%msgs")
	b.ReportMetric(100*st.NeverObsoleteShare, "never-obsolete-%") // paper: 41.88
}

// BenchmarkTraceGenerate times the §5.2 session generator at its paper
// calibration; every benchmark run, figure and tool starts from one call.
func BenchmarkTraceGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Generate(trace.DefaultParams())
	}
}

// ---- Fig. 4: rate sweeps -----------------------------------------------------

func BenchmarkFig4aProducerIdle(b *testing.B) {
	tr := benchTrace(3000)
	rates := []float64{30, 50, 73}
	var rel, sem sim.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel = sim.ProducerIdleSweep(tr, sim.Reliable, 15, rates)
		sem = sim.ProducerIdleSweep(tr, sim.Semantic, 15, rates)
	}
	b.ReportMetric(rel.Points[0].Y, "rel-idle%@30")
	b.ReportMetric(sem.Points[0].Y, "sem-idle%@30")
	b.ReportMetric(rel.Points[2].Y, "rel-idle%@73") // paper: ≤5% at 73
	b.ReportMetric(sem.Points[2].Y, "sem-idle%@73")
}

func BenchmarkFig4bBufferOccupancy(b *testing.B) {
	tr := benchTrace(3000)
	rates := []float64{30, 50, 73}
	var rel, sem sim.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel = sim.OccupancySweep(tr, sim.Reliable, 15, rates)
		sem = sim.OccupancySweep(tr, sim.Semantic, 15, rates)
	}
	b.ReportMetric(rel.Points[1].Y, "rel-occ@50")
	b.ReportMetric(sem.Points[1].Y, "sem-occ@50")
}

// ---- Fig. 5: buffer sweeps ---------------------------------------------------

func BenchmarkFig5aThreshold(b *testing.B) {
	tr := benchTrace(3000)
	var rel, sem float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel = sim.Threshold(tr, sim.Reliable, 15, 5)
		sem = sim.Threshold(tr, sim.Semantic, 15, 5)
	}
	b.ReportMetric(rel, "reliable-msgs/s") // paper: 73 at buffer 15
	b.ReportMetric(sem, "semantic-msgs/s") // paper: 28 at buffer 15
}

func BenchmarkFig5bPerturbation(b *testing.B) {
	tr := benchTrace(3000)
	var rel, sem float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel = sim.Perturbation(tr, sim.Reliable, 24, 8)
		sem = sim.Perturbation(tr, sim.Semantic, 24, 8)
	}
	b.ReportMetric(rel*1000, "reliable-ms") // paper: 342 ms at buffer 24
	b.ReportMetric(sem*1000, "semantic-ms") // paper: 857 ms at buffer 24
}

// ---- ablations ---------------------------------------------------------------

// BenchmarkAblationKWindow quantifies the sensitivity of the semantic
// threshold to the k-enumeration window (the paper fixes k = 2×buffer).
func BenchmarkAblationKWindow(b *testing.B) {
	tr := benchTrace(3000)
	const buffer = 15
	for _, mult := range []int{1, 2, 4} {
		mult := mult
		b.Run(fmt.Sprintf("k=%dxBuffer", mult), func(b *testing.B) {
			msgs := tr.Annotate("producer", mult*buffer)
			var th float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo, hi := 0.5, 400.0
				for hi-lo > 0.5 {
					mid := (lo + hi) / 2
					res := sim.Run(sim.Config{
						Mode: sim.Semantic, Buffer: buffer, K: mult * buffer,
						Msgs: msgs, ConsumerRate: mid,
					})
					if res.ProducerIdlePct <= 5 {
						hi = mid
					} else {
						lo = mid
					}
				}
				th = hi
			}
			b.ReportMetric(th, "threshold-msgs/s")
		})
	}
}

// ---- micro-benchmarks --------------------------------------------------------

func BenchmarkKEnumTrackerNext(b *testing.B) {
	tr := obsolete.NewKTracker(64)
	var prev ident.Seq
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if prev == 0 {
			prev, _ = tr.Next()
			continue
		}
		prev, _ = tr.Next(prev)
	}
}

func BenchmarkKEnumObsoletes(b *testing.B) {
	const k = 64
	rel := obsolete.KEnumeration{K: k}
	tr := obsolete.NewKTracker(k)
	s1, a1 := tr.Next()
	s2, a2 := tr.Next(s1)
	old := obsolete.Msg{Sender: "p", Seq: s1, Annot: a1}
	new_ := obsolete.Msg{Sender: "p", Seq: s2, Annot: a2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rel.Obsoletes(old, new_) {
			b.Fatal("relation broken")
		}
	}
}

// purgeBenchQueue builds a queue of n entries spread round-robin over
// senders (per-sender streams in seq order, nothing obsolete in the fill)
// and a probe message from the first sender whose annotation obsoletes its
// direct predecessor.
func purgeBenchQueue(b *testing.B, rel obsolete.Relation, n, senders, k int) (*queue.Queue, queue.Item) {
	b.Helper()
	q := queue.New(rel, 0)
	trackers := make([]*obsolete.KTracker, senders)
	for i := range trackers {
		trackers[i] = obsolete.NewKTracker(k)
	}
	for i := 0; i < n; i++ {
		s := i % senders
		seq, annot := trackers[s].Next() // no obsolescence within the fill
		q.ForceAppend(queue.Item{
			Kind: queue.Data, View: 1,
			Meta: obsolete.Msg{Sender: ident.PID(fmt.Sprintf("s%d", s)), Seq: seq, Annot: annot},
		})
	}
	last := trackers[0].Seq()
	seq, annot := trackers[0].Next(last)
	probe := queue.Item{
		Kind: queue.Data, View: 1,
		Meta: obsolete.Msg{Sender: "s0", Seq: seq, Annot: annot},
	}
	return q, probe
}

// BenchmarkQueuePurgeFor measures the arrival-time purge pair the engine
// runs per multicast and per arrival (CountPurgeableFor + PurgeFor) at
// increasing queue lengths, on the queue's one purge path: the lookup of
// what the arrival lists in its own sender's stream. Flat ns/op across sizes
// is the acceptance criterion of the buffer-index work. The k2048 shapes are
// the paper's k = 2 × buffer with a single sender: the window covers the
// whole stream, so only a purge that follows the annotation's set bits, not
// the stream's entries, stays flat from occupancy 64 to 1,024 (CI's
// bench-smoke gates that ratio).
func BenchmarkQueuePurgeFor(b *testing.B) {
	sizes := []struct {
		name          string
		n, senders, k int
	}{
		{"64", 64, 16, 64}, {"1k", 1024, 16, 64}, {"16k", 16384, 16, 64},
		{"k2048/64", 64, 1, 2048}, {"k2048/1k", 1024, 1, 2048},
	}
	for _, sz := range sizes {
		b.Run("indexed/"+sz.name, func(b *testing.B) {
			q, probe := purgeBenchQueue(b, obsolete.KEnumeration{K: sz.k}, sz.n, sz.senders, sz.k)
			var victim queue.Item
			purged := 0
			keep := func(it *queue.Item) { victim = *it; purged++ }
			b.ReportAllocs()
			b.ResetTimer()
			// Each iteration does one real purge: count, remove the
			// probe's predecessor, then re-append it so the next
			// iteration purges it again (steady queue length, removal
			// and index maintenance both on the measured path).
			for i := 0; i < b.N; i++ {
				_ = q.CountPurgeableFor(probe)
				purged = 0
				q.PurgeFor(probe, keep)
				if purged != 1 {
					b.Fatalf("purged %d entries, want 1", purged)
				}
				q.ForceAppend(victim)
			}
		})
	}
}

// BenchmarkQueuePopHead measures the pop cost at steady queue length
// (pop + append of a successor message). ring is the index-free path
// (Empty relation, plain VS); indexed is the path real semantic engines
// run, where each pop also drops the entry from its sender's index. Both
// must stay flat in queue length — the former slice implementation
// memmoved the whole backing array per pop, so its ns/op grew linearly.
func BenchmarkQueuePopHead(b *testing.B) {
	const senders = 16
	const k = 64
	sizes := []struct {
		name string
		n    int
	}{{"1k", 1024}, {"16k", 16384}}
	payload := make([]byte, 64)
	for _, indexed := range []bool{false, true} {
		mode := "ring"
		if indexed {
			mode = "indexed"
		}
		for _, sz := range sizes {
			b.Run(mode+"/"+sz.name, func(b *testing.B) {
				var rel obsolete.Relation = obsolete.Empty{}
				if indexed {
					rel = obsolete.KEnumeration{K: k}
				}
				q := queue.New(rel, 0)
				trackers := make(map[ident.PID]*obsolete.KTracker, senders)
				next := func(p ident.PID) queue.Item {
					tr := trackers[p]
					if tr == nil {
						tr = obsolete.NewKTracker(k)
						trackers[p] = tr
					}
					seq, annot := tr.Next() // no obsolescence: pure pop cost
					return queue.Item{
						Kind: queue.Data, View: 1,
						Meta:    obsolete.Msg{Sender: p, Seq: seq, Annot: annot},
						Payload: payload,
					}
				}
				for i := 0; i < sz.n; i++ {
					q.ForceAppend(next(ident.PID(fmt.Sprintf("s%d", i%senders))))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					it := q.PeekHead()
					if it == nil {
						b.Fatal("queue drained")
					}
					sender := it.Meta.Sender
					q.PopHead()
					q.ForceAppend(next(sender))
				}
			})
		}
	}
}

func BenchmarkQueueAppendPurge(b *testing.B) {
	const k = 32
	rel := obsolete.KEnumeration{K: k}
	tr := obsolete.NewItemTracker(obsolete.NewKTracker(k))
	q := queue.New(rel, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, annot := tr.Update(uint32(i % 4))
		it := queue.Item{Kind: queue.Data, View: 1, Meta: obsolete.Msg{Sender: "p", Seq: seq, Annot: annot}}
		if _, err := q.AppendPurge(it); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensusDecision(b *testing.B) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("p0", "p1", "p2")
	svcs := make(map[ident.PID]*consensus.Service)
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			b.Fatal(err)
		}
		det := fd.NewManual()
		svc := consensus.New(ep, det, ident.NodeGroup, nil)
		svc.Start()
		svcs[p] = svc
		defer svc.Stop()
		defer det.Stop()
		defer ep.Close()
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		var wg sync.WaitGroup
		for _, p := range pids {
			wg.Add(1)
			go func(p ident.PID) {
				defer wg.Done()
				if _, err := svcs[p].Propose(ctx, id, pids, []byte(p)); err != nil {
					b.Error(err)
				}
			}(p)
		}
		wg.Wait()
	}
}

// liveGroup spins up an n-member group, one node per member, with fast
// consumer loops, returning the producer's group and a shutdown func.
func liveGroup(b *testing.B, rel obsolete.Relation, buffer int) (*core.Group, func()) {
	return liveGroupObs(b, rel, buffer, nil)
}

// liveGroupObs is liveGroup with an obs bundle factory: mk is called once
// per node (each gets a private registry so in-process members don't
// share unlabelled instruments); nil means uninstrumented.
func liveGroupObs(b *testing.B, rel obsolete.Relation, buffer int, mk func() *obs.Obs) (*core.Group, func()) {
	b.Helper()
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("p0", "p1", "p2")
	view := core.View{ID: 1, Members: pids}
	ctx, cancel := context.WithCancel(context.Background())
	var nodes []*core.Node
	var groups []*core.Group
	var dets []*fd.Manual
	var wg sync.WaitGroup
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			b.Fatal(err)
		}
		det := fd.NewManual()
		var ob *obs.Obs
		if mk != nil {
			ob = mk()
		}
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: ep, Detector: det, Obs: ob})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := node.Create(1, core.GroupConfig{
			InitialView: view, Relation: rel,
			ToDeliverCap: buffer, OutgoingCap: buffer, Window: buffer,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, node)
		groups = append(groups, eng)
		dets = append(dets, det)
		wg.Add(1)
		go func(eng *core.Group) {
			defer wg.Done()
			for {
				if _, err := eng.Deliver(ctx); err != nil {
					return
				}
			}
		}(eng)
	}
	stop := func() {
		cancel()
		for _, n := range nodes {
			n.Close()
		}
		wg.Wait()
		for _, d := range dets {
			d.Stop()
		}
	}
	return groups[0], stop
}

func BenchmarkEngineMulticastSemantic(b *testing.B) {
	producer, stop := liveGroup(b, obsolete.KEnumeration{K: 64}, 32)
	defer stop()
	tr := obsolete.NewItemTracker(obsolete.NewKTracker(64))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, annot := tr.Update(uint32(i % 8))
		meta := obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot}
		if _, err := producer.Multicast(ctx, meta, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticastInstrumented measures the cost of the metrics/events
// instrumentation on the multicast hot path. "on" gives every engine a
// live private registry (obs.Default()), "off" the nil instruments of
// obs.Nop() — so on/off isolates exactly the atomics and timestamping the
// observability layer adds. The acceptance bar is "on" within 5% of "off".
func BenchmarkMulticastInstrumented(b *testing.B) {
	for _, v := range []struct {
		name string
		mk   func() *obs.Obs
	}{
		{"on", obs.Default},
		{"off", obs.Nop},
	} {
		b.Run(v.name, func(b *testing.B) {
			producer, stop := liveGroupObs(b, obsolete.KEnumeration{K: 64}, 32, v.mk)
			defer stop()
			tr := obsolete.NewItemTracker(obsolete.NewKTracker(64))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq, annot := tr.Update(uint32(i % 8))
				meta := obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot}
				if _, err := producer.Multicast(ctx, meta, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineMulticastReliable(b *testing.B) {
	producer, stop := liveGroup(b, obsolete.Empty{}, 32)
	defer stop()
	var seq ident.Seq
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		meta := obsolete.Msg{Sender: "p0", Seq: seq}
		if _, err := producer.Multicast(ctx, meta, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// multiGroupEndpoints attaches one endpoint per member, either to a
// shared MemNetwork or to real localhost TCPNetworks (one listener per
// member, fully meshed — the shared-connection deployment shape).
func multiGroupEndpoints(b *testing.B, all ident.PIDs, tcp bool) map[ident.PID]transport.Endpoint {
	b.Helper()
	eps := make(map[ident.PID]transport.Endpoint, len(all))
	if !tcp {
		net := transport.NewMemNetwork()
		for _, p := range all {
			ep, err := net.Endpoint(p)
			if err != nil {
				b.Fatal(err)
			}
			eps[p] = ep
		}
		return eps
	}
	nets := make(map[ident.PID]*transport.TCPNetwork, len(all))
	for _, p := range all {
		n, err := transport.NewTCPNetwork(p, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		nets[p] = n
		eps[p] = n
	}
	for _, p := range all {
		for _, q := range all {
			if p != q {
				nets[p].AddPeer(q, nets[q].Addr())
			}
		}
	}
	return eps
}

// multiGroupNodes builds `members` nodes over one shared endpoint each
// (MemNetwork or localhost TCP), every node hosting `groups` independent
// semantic groups, with fast consumer loops on every (member, group). It
// returns the producer-side groups (one per group id, all on node 0),
// the producer node's endpoint (for wire stats), and a shutdown func.
func multiGroupNodes(b *testing.B, members, groups, buffer int, tcp bool) ([]*core.Group, transport.Endpoint, func()) {
	b.Helper()
	var pids []ident.PID
	for i := 0; i < members; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	all := ident.NewPIDs(pids...)
	view := core.View{ID: 1, Members: all}
	ctx, cancel := context.WithCancel(context.Background())

	eps := multiGroupEndpoints(b, all, tcp)
	var nodes []*core.Node
	var dets []*fd.Manual
	var wg sync.WaitGroup
	producers := make([]*core.Group, 0, groups)
	for _, p := range all {
		ep := eps[p]
		det := fd.NewManual()
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: ep, Detector: det})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, node)
		dets = append(dets, det)
		for gid := ident.GroupID(1); gid <= ident.GroupID(groups); gid++ {
			g, err := node.Create(gid, core.GroupConfig{
				InitialView: view, Relation: obsolete.KEnumeration{K: 2 * buffer},
				ToDeliverCap: buffer, OutgoingCap: buffer, Window: buffer,
			})
			if err != nil {
				b.Fatal(err)
			}
			if p == all[0] {
				producers = append(producers, g)
			}
			wg.Add(1)
			go func(g *core.Group) {
				defer wg.Done()
				for {
					if _, err := g.Deliver(ctx); err != nil {
						return
					}
				}
			}(g)
		}
	}
	stop := func() {
		cancel()
		for _, n := range nodes {
			n.Close()
		}
		wg.Wait()
		for _, d := range dets {
			d.Stop()
		}
	}
	return producers, eps[all[0]], stop
}

// BenchmarkMultiGroup drives M groups × 4 members in one process over
// shared endpoints — the Node runtime's sharded deployment shape — with
// one producer goroutine per group. b.N counts messages *per group*, so
// every sub-benchmark does identical per-group work and the numbers
// compose: ns/op is the wall time per per-group message, and agg-msgs/s
// is the node's aggregate multicast throughput, whose growth with the
// group count is the members×groups scaling the multi-group runtime is
// for. The net=mem series isolates protocol cost; net=tcp runs the real
// deployment shape, where sharing one connection pair per peer lets the
// frame batcher coalesce every co-hosted group's traffic into the same
// write syscalls (coalesce-envs/frame reports the achieved factor).
func BenchmarkMultiGroup(b *testing.B) {
	const members = 4
	const buffer = 32
	for _, netKind := range []string{"mem", "tcp"} {
		for _, groups := range []int{1, 4, 16} {
			netKind, groups := netKind, groups
			b.Run(fmt.Sprintf("net=%s/groups=%d", netKind, groups), func(b *testing.B) {
				benchMultiGroup(b, members, groups, buffer, netKind == "tcp")
			})
		}
	}
}

func benchMultiGroup(b *testing.B, members, groups, buffer int, tcp bool) {
	producers, producerEP, stop := multiGroupNodes(b, members, groups, buffer, tcp)
	defer stop()
	var before transport.TCPStats
	tcpNet, _ := producerEP.(*transport.TCPNetwork)
	if tcpNet != nil {
		before = tcpNet.Stats()
	}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for _, g := range producers {
		wg.Add(1)
		go func(g *core.Group) {
			defer wg.Done()
			tr := obsolete.NewItemTracker(obsolete.NewKTracker(2 * buffer))
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				seq, annot := tr.Update(uint32(i % 8))
				meta := obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot}
				if _, err := g.Multicast(ctx, meta, nil); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N*groups)/elapsed.Seconds(), "agg-msgs/s")
	if tcpNet != nil {
		st := tcpNet.Stats()
		frames := st.FramesSent - before.FramesSent
		if frames > 0 {
			b.ReportMetric(float64(st.EnvelopesSent-before.EnvelopesSent)/float64(frames), "coalesce-envs/frame")
		}
	}
}

// ---- saturation: the batched data plane at full tilt ------------------------

// satBatch is the submission granularity of the saturation producers: the
// amortisation unit of the batched data plane (one request round-trip, one
// coalesced envelope per peer, one purge pass per message).
const satBatch = 64

// chainAnnot precomputes the steady-state k-enumeration annotation of a
// chain workload (every message directly obsoletes its predecessor): after
// k messages the transitively closed bitmap is constant all-ones, so one
// shared byte slice serves every message — the producer hot loop mints
// metadata without allocating.
func chainAnnot(k int) []byte {
	tr := obsolete.NewKTracker(k)
	seq, annot := tr.Next()
	for i := 0; i < k+1; i++ {
		seq, annot = tr.Next(seq)
	}
	return annot
}

// saturationNodes is multiGroupNodes with the batched data plane on both
// ends: consumers pull through DeliverBatch into reused buffers, and the
// caller drives producers through MulticastBatch. It returns the per-group
// producer handles for the first `senders` members plus every group of
// every member (for quiescence polling).
func saturationNodes(b *testing.B, members, groups, senders, buffer int, tcp bool) (producers [][]*core.Group, all []*core.Group, stop func()) {
	b.Helper()
	var pids []ident.PID
	for i := 0; i < members; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	set := ident.NewPIDs(pids...)
	view := core.View{ID: 1, Members: set}
	ctx, cancel := context.WithCancel(context.Background())

	eps := multiGroupEndpoints(b, set, tcp)
	var nodes []*core.Node
	var dets []*fd.Manual
	var wg sync.WaitGroup
	producers = make([][]*core.Group, senders)
	for mi, p := range set {
		ep := eps[p]
		det := fd.NewManual()
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: ep, Detector: det})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, node)
		dets = append(dets, det)
		for gid := ident.GroupID(1); gid <= ident.GroupID(groups); gid++ {
			g, err := node.Create(gid, core.GroupConfig{
				InitialView: view, Relation: obsolete.KEnumeration{K: 2 * buffer},
				ToDeliverCap: buffer, OutgoingCap: buffer, Window: buffer,
			})
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, g)
			if mi < senders {
				producers[mi] = append(producers[mi], g)
			}
			wg.Add(1)
			go func(g *core.Group) {
				defer wg.Done()
				dst := make([]core.Delivery, 256)
				for {
					if _, err := g.DeliverBatch(ctx, dst); err != nil {
						return
					}
				}
			}(g)
		}
	}
	stop = func() {
		cancel()
		for _, n := range nodes {
			n.Close()
		}
		wg.Wait()
		for _, d := range dets {
			d.Stop()
		}
	}
	return producers, all, stop
}

// waitQuiesce polls every group's stats until nothing changes anywhere and
// all delivery queues are drained: the run's traffic has fully landed.
func waitQuiesce(b *testing.B, all []*core.Group) {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var prev []core.Stats
	stable := 0
	for stable < 2 {
		if time.Now().After(deadline) {
			b.Fatal("cluster never quiesced")
		}
		cur := make([]core.Stats, 0, len(all))
		drained := true
		for _, g := range all {
			st := g.Stats()
			if st.ToDeliverLen != 0 {
				drained = false
			}
			cur = append(cur, st)
		}
		same := drained && prev != nil && len(prev) == len(cur)
		if same {
			for i := range cur {
				if cur[i] != prev[i] {
					same = false
					break
				}
			}
		}
		if same {
			stable++
		} else {
			stable = 0
		}
		prev = cur
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSaturation is the headline throughput series of the batched
// data plane: every stage — submission, commit, wire, receive, delivery —
// runs at batch granularity, with a chain obsolescence workload (purge
// keeps every queue O(1), the regime SVS is built for). b.N counts
// messages per (group, sender); agg-msgs/s is the node-aggregate multicast
// throughput including full quiescence (all traffic received everywhere),
// and allocs/op is the steady-state allocation cost per message on the
// semantic batched path — the 0-allocs/op acceptance gate of the data
// plane (see scripts/bench.sh and the bench-smoke CI job).
func BenchmarkSaturation(b *testing.B) {
	const buffer = 1024
	cases := []struct {
		net             string
		members, groups int
		senders         int
	}{
		{"mem", 2, 1, 1},
		{"mem", 2, 4, 1},
		{"mem", 2, 16, 1},
		{"mem", 4, 1, 1},
		{"mem", 4, 1, 4},
		{"tcp", 2, 1, 1},
		{"tcp", 2, 4, 1},
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("net=%s/members=%d/groups=%d/senders=%d", c.net, c.members, c.groups, c.senders)
		b.Run(name, func(b *testing.B) {
			benchSaturation(b, c.members, c.groups, c.senders, buffer, c.net == "tcp")
		})
	}
}

func benchSaturation(b *testing.B, members, groups, senders, buffer int, tcp bool) {
	producers, all, stop := saturationNodes(b, members, groups, senders, buffer, tcp)
	defer stop()
	annot := chainAnnot(2 * buffer)
	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for si := range producers {
		self := ident.PID(fmt.Sprintf("p%d", si))
		for _, g := range producers[si] {
			wg.Add(1)
			go func(g *core.Group) {
				defer wg.Done()
				ctx := context.Background()
				batch := make([]core.OutMsg, satBatch)
				for i := range batch {
					batch[i].Payload = payload
				}
				var seq ident.Seq
				for sent := 0; sent < b.N; {
					n := satBatch
					if rem := b.N - sent; n > rem {
						n = rem
					}
					for i := 0; i < n; i++ {
						seq++
						batch[i].Meta = obsolete.Msg{Sender: self, Seq: seq, Annot: annot}
					}
					if _, err := g.MulticastBatch(ctx, batch[:n]); err != nil {
						b.Error(err)
						return
					}
					sent += n
				}
			}(g)
		}
	}
	wg.Wait()
	waitQuiesce(b, all)
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N*groups*senders)/elapsed.Seconds(), "agg-msgs/s")
}

// BenchmarkJoinStateTransfer measures the cost of bringing a newcomer
// into a running 3-member group after a 512-message session. The state
// transfer ships only the relation-purged unstable backlog, so under the
// semantic relation xfer-bytes/op stays O(window) while the reliable
// (empty) relation ships the entire unstable history — the join-time
// face of the buffer-size separation Fig. 4b shows in steady state.
func BenchmarkJoinStateTransfer(b *testing.B) {
	for _, mode := range []string{"semantic", "reliable"} {
		mode := mode
		b.Run("mode="+mode, func(b *testing.B) {
			benchJoinStateTransfer(b, mode == "semantic")
		})
	}
}

func benchJoinStateTransfer(b *testing.B, semantic bool) {
	const produced = 512
	const items = 16
	var rel obsolete.Relation = obsolete.Empty{}
	if semantic {
		rel = obsolete.KEnumeration{K: 64}
	}
	gc := core.GroupConfig{Relation: rel, ToDeliverCap: 64, OutgoingCap: 64, Window: 64}

	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("p0", "p1", "p2")
	newNode := func(p ident.PID) *core.Node {
		ep, err := net.Endpoint(p)
		if err != nil {
			b.Fatal(err)
		}
		det := fd.NewManual()
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: ep, Detector: det})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			node.Close()
			det.Stop()
		})
		return node
	}
	groups := make(map[ident.PID]*core.Group, len(pids))
	for _, p := range pids {
		node := newNode(p)
		gc := gc
		gc.InitialView = core.View{ID: 1, Members: pids}
		g, err := node.Create(1, gc)
		if err != nil {
			b.Fatal(err)
		}
		groups[p] = g
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	last := make(map[ident.PID]ident.Seq, len(pids))
	for _, p := range pids {
		p := p
		go func() {
			for {
				d, err := groups[p].Deliver(ctx)
				if err != nil {
					return
				}
				if d.Kind == core.DeliverData && d.Meta.Sender == "p0" {
					mu.Lock()
					if d.Meta.Seq > last[p] {
						last[p] = d.Meta.Seq
					}
					mu.Unlock()
				}
			}
		}()
	}

	waitSeq := func(want ident.Seq) {
		for {
			mu.Lock()
			done := true
			for _, p := range pids {
				if last[p] < want {
					done = false
				}
			}
			mu.Unlock()
			if done {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	// Each op is one session segment plus the join it feeds: the unstable
	// backlog is per-view state, and the eviction closing each iteration
	// opens a new view, so the segment must be re-produced every time.
	tr := obsolete.NewItemTracker(obsolete.NewKTracker(64))
	var bytes, msgs uint64
	var lastSeq ident.Seq
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < produced; j++ {
			seq, annot := tr.Update(uint32(j % items))
			if !semantic {
				annot = nil
			}
			meta := obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot}
			if _, err := groups["p0"].Multicast(ctx, meta, nil); err != nil {
				b.Fatal(err)
			}
			lastSeq = seq
		}
		waitSeq(lastSeq)

		jpid := ident.PID(fmt.Sprintf("j%d", i))
		jn := newNode(jpid)
		jg, err := jn.Join(1, gc, "p0")
		if err != nil {
			b.Fatal(err)
		}
		for jg.View().ID == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		st := jg.Stats()
		bytes += uint64(st.JoinBytesRecv)
		msgs += uint64(st.JoinBacklogRecv)

		// Evict the joiner again so membership (and consensus quorums)
		// stay constant across iterations.
		want := groups["p0"].View().ID + 1
		if err := groups["p0"].RequestViewChange(jpid); err != nil {
			b.Fatal(err)
		}
		for groups["p0"].Stats().View < want {
			time.Sleep(200 * time.Microsecond)
		}
		jg.Leave()
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)/float64(b.N), "xfer-bytes/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "xfer-msgs/op")
}

// BenchmarkMergeStateTransfer measures the bidirectional semantic state
// exchange of a partition merge (core/merge.go). Each op: a five-member
// group is cut 3|2, the majority evicts the minority while the minority
// splits into its own lineage, both sides multicast `produced` messages
// at each other's backs, and the links heal — the probe/merge handshake
// reconverges everyone into a union view whose flush carries both sides'
// backlogs. Under the semantic relation each contribution is the
// relation-purged backlog — O(window) messages — while the reliable
// (Empty) baseline must carry all of `produced`: merge-bytes/op is the
// wire size of every contribution received by one member, flush-msgs/op
// the union flush length. The semantic/reliable ratio is the point.
func BenchmarkMergeStateTransfer(b *testing.B) {
	for _, mode := range []string{"semantic", "reliable"} {
		mode := mode
		b.Run("mode="+mode, func(b *testing.B) {
			benchMergeStateTransfer(b, mode == "semantic")
		})
	}
}

func benchMergeStateTransfer(b *testing.B, semantic bool) {
	const produced = 512
	const items = 16
	var rel obsolete.Relation = obsolete.Empty{}
	if semantic {
		rel = obsolete.KEnumeration{K: 64}
	}

	net := transport.NewMemNetwork()
	faults := transport.NewFaults(1)
	pids := ident.NewPIDs("p0", "p1", "p2", "p3", "p4")
	maj, min := pids[:3], pids[3:]
	gc := core.GroupConfig{
		Relation: rel, ToDeliverCap: 64, OutgoingCap: 64, Window: 64,
		AutoEvict:   true,
		Heal:        true,
		InitialView: core.View{ID: 1, Members: pids},
	}
	dets := make(map[ident.PID]*fd.Manual, len(pids))
	groups := make(map[ident.PID]*core.Group, len(pids))
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			b.Fatal(err)
		}
		det := fd.NewManual()
		node, err := core.NewNode(core.NodeConfig{Self: p, Endpoint: faults.Wrap(ep), Detector: det})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			node.Close()
			det.Stop()
		})
		g, err := node.Create(1, gc)
		if err != nil {
			b.Fatal(err)
		}
		dets[p], groups[p] = det, g
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range pids {
		p := p
		go func() {
			for {
				if _, err := groups[p].Deliver(ctx); err != nil {
					return
				}
			}
		}()
	}
	waitMembers := func(p ident.PID, n int) {
		for len(groups[p].View().Members) != n {
			time.Sleep(200 * time.Microsecond)
		}
	}
	waitUnion := func() {
		for {
			ref := groups[pids[0]].View().Ref()
			ok := len(groups[pids[0]].View().Members) == len(pids)
			for _, p := range pids[1:] {
				v := groups[p].View()
				if len(v.Members) != len(pids) || v.Ref() != ref {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	send := func(p ident.PID, tr *obsolete.ItemTracker, n int) {
		for j := 0; j < n; j++ {
			seq, annot := tr.Update(uint32(j % items))
			if !semantic {
				annot = nil
			}
			if _, err := groups[p].Multicast(ctx, obsolete.Msg{Sender: p, Seq: seq, Annot: annot}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	trMaj := obsolete.NewItemTracker(obsolete.NewKTracker(64))
	trMin := obsolete.NewItemTracker(obsolete.NewKTracker(64))

	var bytes, flush uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Partition 3|2 and let each side settle into its own view: the
		// majority evicts, the minority splits.
		faults.Partition(maj, min)
		for _, a := range maj {
			for _, z := range min {
				dets[a].Suspect(z)
				dets[z].Suspect(a)
			}
		}
		waitMembers(maj[0], len(maj))
		waitMembers(min[0], len(min))

		// Divergent traffic on both sides: the backlog the merge exchanges.
		send(maj[0], trMaj, produced)
		send(min[0], trMin, produced)

		before := groups[maj[0]].Stats()
		for _, a := range maj {
			for _, z := range min {
				dets[a].Restore(z)
				dets[z].Restore(a)
			}
		}
		for _, a := range maj {
			for _, z := range min {
				faults.HealLink(a, z)
				faults.HealLink(z, a)
			}
		}
		waitUnion()
		after := groups[maj[0]].Stats()
		bytes += after.MergeBytesRecv - before.MergeBytesRecv
		flush += uint64(after.LastFlushLen)
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)/float64(b.N), "merge-bytes/op")
	b.ReportMetric(float64(flush)/float64(b.N), "flush-msgs/op")
}

// BenchmarkViewChangeLatency measures the wall time of a full view change
// (INIT → PRED exchange → consensus → install) in an idle group — the
// protocol's fixed cost; the flush grows with buffered traffic, which
// Fig. 4b shows SVS keeps small.
func BenchmarkViewChangeLatency(b *testing.B) {
	producer, stop := liveGroup(b, obsolete.KEnumeration{K: 64}, 32)
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := producer.RequestViewChange(); err != nil {
			b.Fatal(err)
		}
		want := ident.ViewID(2 + i)
		for producer.Stats().View < want {
			time.Sleep(200 * time.Microsecond)
		}
	}
}
