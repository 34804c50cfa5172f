package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The ladder times each layer's public functions directly, outside any
// group, on the message stream the workloads multicast (same generator,
// same seed). Single-goroutine rungs report wall ns (= CPU ns); rungs that
// need more than one goroutine report process CPU ns, the unit of the
// end-to-end cpu_us_per_msg they are compared with.
const ladderBatch = 64 // messages per DataBatchMsg, the saturation submission unit

// rung shares of the ladder's time budget, in 1/100.
const (
	shareCodec     = 8
	shareObsolete  = 8
	shareQueue     = 8 // each of three
	shareLoopback  = 10
	shareMemSend   = 6
	shareTCPSend   = 10
	shareTCPRTT    = 8
	shareConsensus = 10
	shareTopRung   = 16
)

func share(budget time.Duration, pct int) time.Duration {
	return budget * time.Duration(pct) / 100
}

// ladderMsgs mints n game-stream messages as wire DataMsgs.
func ladderMsgs(st *stream, n int) []core.DataMsg {
	out := make([]core.DataMsg, n)
	batch := make([]core.OutMsg, n)
	st.fill(batch)
	for i, m := range batch {
		out[i] = core.DataMsg{View: 1, Meta: m.Meta, Payload: m.Payload}
	}
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder adds every ladder metric to ms, spending about budget.
func runLadder(ms *metricSet, seed int64, budget time.Duration) error {
	p := trace.DefaultParams()
	p.Seed = seed
	tr := trace.Generate(p)

	if err := codecRung(ms, tr, share(budget, shareCodec)); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	obsoleteRung(ms, tr, share(budget, shareObsolete))
	queueRungs(ms, tr, share(budget, shareQueue))
	loopNs, err := loopbackRung(ms, tr, share(budget, shareLoopback))
	if err != nil {
		return fmt.Errorf("core loopback: %w", err)
	}
	if err := memSendRung(ms, tr, share(budget, shareMemSend)); err != nil {
		return fmt.Errorf("memnet: %w", err)
	}
	tcpNs, err := tcpRungs(ms, tr, share(budget, shareTCPSend), share(budget, shareTCPRTT))
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	if err := consensusRung(ms, share(budget, shareConsensus)); err != nil {
		return fmt.Errorf("consensus: %w", err)
	}

	// Top rung: the end-to-end CPU cost of one message on the reliable TCP
	// saturation workload, from a short run of the real harness.
	top, _ := findWorkload("sat_reliable_tcp_m2")
	d := share(budget, shareTopRung)
	m, err := runWorkload(top, runOpts{seed: seed, windows: 2, window: d * 2 / 5, warmup: d / 5, setupReps: 1})
	if err != nil {
		return fmt.Errorf("top rung: %w", err)
	}
	if m.verdict.count > 0 {
		return fmt.Errorf("top rung: %s", m.verdict.first[0])
	}
	e2eNs := 1000 * median(m.perWindow(func(int) bool { return true }).cpuUs)
	// One engine pass per member plus the wire; the TCP rung carries
	// DataBatchMsg runs and so already contains the codec rung, and the
	// loopback rung already contains the queue rung.
	sum := 2*loopNs + tcpNs/ladderBatch
	ms.set("ladder.e2e_cpu_ns_per_msg", e2eNs, uNs, 2)
	ms.set("ladder.sum_ns_per_msg", sum, uNs, 0)
	cover := 0.0
	if e2eNs > 0 {
		cover = sum / e2eNs
	}
	ms.set("ladder.coverage_frac", cover, uRatio, 0)
	return nil
}

// codecRung times codec.Marshal / Unmarshal of DataBatchMsg runs of 64.
func codecRung(ms *metricSet, tr *trace.Trace, d time.Duration) error {
	batches := ladderBatches(tr)
	nBatches := len(batches)
	encoded := make([][]byte, nBatches)
	for i, b := range batches {
		enc, err := codec.Marshal(nil, b)
		if err != nil {
			return err
		}
		encoded[i] = enc
	}
	buf := make([]byte, 0, 2*len(encoded[0]))
	m0 := mallocs()
	var encMsgs, bytes int
	start := time.Now()
	for time.Since(start) < d/2 {
		for _, b := range batches {
			var err error
			if buf, err = codec.Marshal(buf[:0], b); err != nil {
				return err
			}
			bytes += len(buf)
		}
		encMsgs += nBatches * ladderBatch
	}
	encNs := float64(time.Since(start))
	var decMsgs int
	start = time.Now()
	for time.Since(start) < d/2 {
		for _, e := range encoded {
			v, err := codec.UnmarshalBytes(e)
			if err != nil {
				return err
			}
			if got := len(v.(*core.DataBatchMsg).Msgs); got != ladderBatch {
				return fmt.Errorf("decoded %d messages, want %d", got, ladderBatch)
			}
		}
		decMsgs += nBatches * ladderBatch
	}
	decNs := float64(time.Since(start))
	allocs := float64(mallocs() - m0)
	ms.set("codec.encode_ns_per_msg", encNs/float64(encMsgs), uNs, encMsgs)
	ms.set("codec.decode_ns_per_msg", decNs/float64(decMsgs), uNs, decMsgs)
	ms.set("codec.bytes_per_msg", float64(bytes)/float64(encMsgs), uBytes, encMsgs)
	ms.set("codec.allocs_per_msg", allocs/float64(encMsgs+decMsgs), uCount, encMsgs+decMsgs)
	return nil
}

// obsoleteRung times the sender-side annotation (ItemTracker over KTracker)
// and the relation test the purge paths call.
func obsoleteRung(ms *metricSet, tr *trace.Trace, d time.Duration) {
	it := obsolete.NewItemTracker(obsolete.NewKTracker(kWindow))
	var n int
	start := time.Now()
	for time.Since(start) < d/2 {
		for _, ev := range tr.Events {
			switch ev.Kind {
			case trace.Create:
				it.Create(ev.Item)
			case trace.Update:
				it.Update(ev.Item)
			case trace.Destroy:
				it.Destroy(ev.Item)
			}
		}
		n += len(tr.Events)
	}
	ms.set("obsolete.annotate_ns_per_msg", float64(time.Since(start))/float64(n), uNs, n)

	msgs := ladderMsgs(newStream("p0", tr, true, 4096), 4096)
	rel := obsolete.KEnumeration{K: kWindow}
	var calls, hits int
	start = time.Now()
	for time.Since(start) < d/2 {
		for i := 16; i < len(msgs); i++ {
			for back := 1; back <= 16; back++ {
				if rel.Obsoletes(msgs[i-back].Meta, msgs[i].Meta) {
					hits++
				}
			}
		}
		calls += (len(msgs) - 16) * 16
	}
	ms.set("obsolete.obsoletes_ns_per_call", float64(time.Since(start))/float64(calls), uNs, calls)
	_ = hits // the relation's answers only keep the loop from being optimised away
}

// queueItems mints n game-stream queue items continuing st.
func queueItems(st *stream, n int) []queue.Item {
	items := make([]queue.Item, n)
	for i, m := range ladderMsgs(st, n) {
		items[i] = queue.Item{Kind: queue.Data, View: 1, Meta: m.Meta, Payload: m.Payload}
	}
	return items
}

// queueRungs times AppendPurge + PopHead on the game stream with the queue
// held at 16 and at 1024 entries (the near-empty and the full-buffer regime),
// and PopHead alone; the append cost is the combined loop minus its pops.
// Minting the items costs several times the queue operations, so each rung
// is bounded by elapsed time and only the queue operations are timed.
func queueRungs(ms *metricSet, tr *trace.Trace, d time.Duration) {
	const chunk = 8192
	rel := obsolete.KEnumeration{K: kWindow}

	// PopHead alone: fill 1024, time popping them all.
	st := newStream("p0", tr, true, 0)
	var popNs time.Duration
	var pops int
	for begin := time.Now(); time.Since(begin) < d/2 || pops == 0; {
		q := queue.New(rel, 0)
		for _, it := range queueItems(st, 1024) {
			_, _ = q.AppendPurge(it) // unbounded queue: never full
		}
		n := q.Len()
		start := time.Now()
		for q.Len() > 0 {
			q.PopHead()
		}
		popNs += time.Since(start)
		pops += n
		st.log = st.log[:0]
	}
	popCost := float64(popNs) / float64(pops)
	ms.set("queue.pop_ns_per_msg", popCost, uNs, pops)

	for _, occ := range []int{16, 1024} {
		st := newStream("p0", tr, true, 0)
		q := queue.New(rel, 0)
		var timed time.Duration
		var n, popped, purged int
		for begin := time.Now(); time.Since(begin) < d*5/4; {
			items := queueItems(st, chunk)
			st.log = st.log[:0]
			start := time.Now()
			for _, it := range items {
				p, _ := q.AppendPurge(it) // unbounded queue: never full
				purged += p
				if q.Len() > occ {
					q.PopHead()
					popped++
				}
			}
			timed += time.Since(start)
			n += chunk
		}
		appendNs := (float64(timed) - float64(popped)*popCost) / float64(n)
		ms.set(fmt.Sprintf("queue.append_purge_ns_per_msg_occ%d", occ), appendNs, uNs, n)
		if occ == 1024 {
			ms.set("queue.purged_per_msg_occ1024", float64(purged)/float64(n), uMsgs, n)
		}
	}
}

// discardEndpoint is a transport.Endpoint with no peers: sends vanish and
// no inbox ever yields. Under a one-member group it isolates the engine
// loop (request hand-off, commit, queue, delivery) from any transport.
type discardEndpoint struct {
	self ident.PID
	mu   sync.Mutex
	one  map[[2]uint32]chan transport.Envelope
	many map[[2]uint32]chan []transport.Envelope
}

func newDiscardEndpoint(self ident.PID) *discardEndpoint {
	return &discardEndpoint{
		self: self,
		one:  make(map[[2]uint32]chan transport.Envelope),
		many: make(map[[2]uint32]chan []transport.Envelope),
	}
}

func (e *discardEndpoint) Self() ident.PID { return e.self }
func (e *discardEndpoint) Send(ident.PID, ident.GroupID, transport.Channel, any) error {
	return nil
}
func (e *discardEndpoint) Inbox(g ident.GroupID, ch transport.Channel) <-chan transport.Envelope {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := [2]uint32{uint32(g), uint32(ch)}
	if e.one[k] == nil {
		e.one[k] = make(chan transport.Envelope)
	}
	return e.one[k]
}
func (e *discardEndpoint) InboxBatch(g ident.GroupID, ch transport.Channel) <-chan []transport.Envelope {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := [2]uint32{uint32(g), uint32(ch)}
	if e.many[k] == nil {
		e.many[k] = make(chan []transport.Envelope)
	}
	return e.many[k]
}
func (e *discardEndpoint) Register(ident.GroupID)   {}
func (e *discardEndpoint) Deregister(ident.GroupID) {}
func (e *discardEndpoint) Close() error             { return nil }

var _ transport.Endpoint = (*discardEndpoint)(nil)

// loopbackRung runs a one-member reliable group over the discard endpoint:
// one sender in batches of 64, one DeliverBatch consumer. It returns (and
// reports) process CPU ns per message.
func loopbackRung(ms *metricSet, tr *trace.Trace, d time.Duration) (float64, error) {
	self := ident.PID("p0")
	det := fd.NewManual()
	defer det.Stop()
	node, err := core.NewNode(core.NodeConfig{Self: self, Endpoint: newDiscardEndpoint(self), Detector: det})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	g, err := node.Create(benchGroup, core.GroupConfig{
		InitialView:  core.View{ID: 1, Members: ident.NewPIDs(self)},
		Relation:     obsolete.Empty{},
		ToDeliverCap: bufferCap, OutgoingCap: bufferCap, Window: bufferCap,
		StabilityInterval: stabilityInterval,
	})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		dst := make([]core.Delivery, fastDeliverCap)
		for {
			if _, err := g.DeliverBatch(ctx, dst); err != nil {
				return
			}
		}
	}()
	st := newStream(self, tr, false, 0)
	batch := make([]core.OutMsg, ladderBatch)
	send := func(until time.Duration) (int, error) {
		n := 0
		for start := time.Now(); time.Since(start) < until; {
			st.fill(batch)
			st.log = st.log[:0]
			if _, err := g.MulticastBatch(ctx, batch); err != nil {
				return n, err
			}
			n += ladderBatch
		}
		return n, nil
	}
	if _, err := send(d / 5); err != nil { // warm-up
		return 0, err
	}
	cpu0 := cpuTimeNs()
	n, err := send(d * 4 / 5)
	if err != nil {
		return 0, err
	}
	perMsg := float64(cpuTimeNs()-cpu0) / float64(n)
	cancel()
	<-consumed
	ms.set("core.loopback_ns_per_msg", perMsg, uNs, n)
	return perMsg, nil
}

// blast sends DataBatchMsg envelopes from a to b in rounds, the receiver
// acknowledging each round over a channel so the unbounded transport queue
// stays short; it returns process CPU ns per envelope.
func blast(a, b transport.Endpoint, to ident.PID, batches []*core.DataBatchMsg, d time.Duration) (float64, int, error) {
	const round = 128
	a.Register(benchGroup)
	b.Register(benchGroup)
	in := b.InboxBatch(benchGroup, transport.Data)
	ack := make(chan struct{}, 1) // one round in flight
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		got := 0
		for {
			select {
			case envs, ok := <-in:
				if !ok {
					return
				}
				got += len(envs)
				for got >= round {
					got -= round
					ack <- struct{}{}
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); <-drained }()
	sendRound := func() error {
		for i := 0; i < round; i++ {
			if err := a.Send(to, benchGroup, transport.Data, batches[i%len(batches)]); err != nil {
				return err
			}
		}
		select {
		case <-ack:
			return nil
		case <-time.After(viewTimeout):
			return fmt.Errorf("round of %d envelopes not received within %v", round, viewTimeout)
		}
	}
	if err := sendRound(); err != nil { // warm-up: dials TCP
		return 0, 0, err
	}
	envs := 0
	cpu0 := cpuTimeNs()
	for start := time.Now(); time.Since(start) < d; envs += round {
		if err := sendRound(); err != nil {
			return 0, 0, err
		}
	}
	return float64(cpuTimeNs()-cpu0) / float64(envs), envs, nil
}

// ladderBatches mints 64 game-stream DataBatchMsg runs of 64 messages.
func ladderBatches(tr *trace.Trace) []*core.DataBatchMsg {
	const nBatches = 64
	msgs := ladderMsgs(newStream("p0", tr, true, nBatches*ladderBatch), nBatches*ladderBatch)
	out := make([]*core.DataBatchMsg, nBatches)
	for i := range out {
		out[i] = &core.DataBatchMsg{Msgs: msgs[i*ladderBatch : (i+1)*ladderBatch]}
	}
	return out
}

func memSendRung(ms *metricSet, tr *trace.Trace, d time.Duration) error {
	net := transport.NewMemNetwork()
	a, err := net.Endpoint("p0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.Endpoint("p1")
	if err != nil {
		return err
	}
	defer b.Close()
	ns, envs, err := blast(a, b, "p1", ladderBatches(tr), d)
	if err != nil {
		return err
	}
	ms.set("transport.mem.send_ns_per_env", ns, uNs, envs)
	return nil
}

// tcpRungs times envelope sends over loopback TCP (encode, frame, write,
// read, decode, deposit: process CPU ns per envelope of 64 messages) and the
// round trip of a small control envelope. It returns the send cost.
func tcpRungs(ms *metricSet, tr *trace.Trace, dSend, dRTT time.Duration) (float64, error) {
	a, err := transport.NewTCPNetwork("p0", "127.0.0.1:0", nil)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.NewTCPNetwork("p1", "127.0.0.1:0", nil)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	a.AddPeer("p1", b.Addr())
	b.AddPeer("p0", a.Addr())
	ns, envs, err := blast(a, b, "p1", ladderBatches(tr), dSend)
	if err != nil {
		return 0, err
	}
	ms.set("transport.tcp.send_ns_per_env", ns, uNs, envs)

	// Ping-pong on the control channel; both sides block on their inbox.
	ping := core.CreditMsg{View: 1, Credits: 1}
	inA, inB := a.Inbox(benchGroup, transport.Ctl), b.Inbox(benchGroup, transport.Ctl)
	stop := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			select {
			case _, ok := <-inB:
				if !ok || b.Send("p0", benchGroup, transport.Ctl, ping) != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); <-echoed }()
	var rtts []float64
	for start := time.Now(); time.Since(start) < dRTT; {
		t := time.Now()
		if err := a.Send("p1", benchGroup, transport.Ctl, ping); err != nil {
			return 0, err
		}
		select {
		case <-inA:
		case <-time.After(viewTimeout):
			return 0, fmt.Errorf("ping not echoed within %v", viewTimeout)
		}
		rtts = append(rtts, float64(time.Since(t))/1e3)
	}
	sort.Float64s(rtts)
	ms.set("transport.tcp.rtt_p50_us", percentile(rtts, 50), uUs, len(rtts))
	return ns, nil
}

// consensusRung times Propose to decision with three members on memnet,
// every member proposing at once — what a view change waits for.
func consensusRung(ms *metricSet, d time.Duration) error {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("p0", "p1", "p2")
	var svcs []*consensus.Service
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			return err
		}
		defer ep.Close()
		det := fd.NewManual()
		defer det.Stop()
		svc := consensus.New(ep, det, ident.NodeGroup, nil)
		svc.Start()
		defer svc.Stop()
		svcs = append(svcs, svc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+viewTimeout)
	defer cancel()
	var us []float64
	errs := make([]error, len(svcs))
	for start, i := time.Now(), 0; time.Since(start) < d; i++ {
		id := fmt.Sprintf("ladder-%d", i)
		var wg sync.WaitGroup
		t := time.Now()
		for j, svc := range svcs {
			wg.Add(1)
			go func(j int, svc *consensus.Service) {
				defer wg.Done()
				_, errs[j] = svc.Propose(ctx, id, pids, []byte(pids[j]))
			}(j, svc)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	sort.Float64s(us)
	ms.set("consensus.decide_p50_us", percentile(us, 50), uUs, len(us))
	ms.set("consensus.decide_p90_us", percentile(us, 90), uUs, len(us))
	return nil
}
