package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/trace"
	"repro/internal/transport"
)

// runOpts shapes one run of one workload.
type runOpts struct {
	seed      int64
	windows   int           // measured windows after the warm-up
	window    time.Duration // length of one window
	warmup    time.Duration // fixed, discarded
	setupReps int           // set-ups timed (all but the last torn down again)
	// traced alternates untraced (even) and traced (odd) windows on one
	// cluster: in traced windows the harness records a span around every
	// engine call and samples Stats() every 10 ms; the untraced windows of
	// the same run are the overhead baseline.
	traced bool
}

const (
	latencyMember  = 1 // latency is taken at p1: remote from the sender p0, never the slow member
	fastDeliverCap = 256
	sampleEvery    = 10 * time.Millisecond
	slowResetAfter = 50 * time.Millisecond
	// quiesceTimeout bounds the wait for the final marker to reach every
	// member; the slow member may hold a full 1024-message queue (0.2 s).
	quiesceTimeout = 30 * time.Second
	viewTimeout    = 10 * time.Second
	// idleViewChanges is the number of back-to-back view changes timed on
	// the quiesced cluster by workloads without view changes in their
	// windows: enough for a p90 with ten samples beyond it.
	idleViewChanges = 100
)

// receiver is one member's DeliverBatch goroutine and what it saw.
type receiver struct {
	idx       int
	g         *core.Group
	view      ident.ViewRef // the last view delivered (the initial view until then)
	delivered []uint32      // data sequence numbers in delivery order
	count     atomic.Int64  // data messages delivered (read at window edges)
	lat       [][]uint32    // per window: multicast-call-to-delivery ns (latencyMember only)
	corrupt   int           // payloads that failed the integrity check
	calls     int64         // traced DeliverBatch calls and the data messages they returned
	callMsgs  int64
	spans     spanBuf
}

type viewEvent struct {
	member int
	view   ident.ViewRef
	at     int64
}

// session is a started cluster with its receivers and message stream.
type session struct {
	w    workload
	o    runOpts
	base time.Time
	c    *cluster
	st   *stream

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // receivers
	closed sync.Once
	recv   []*receiver

	markC chan int       // a member delivered a marker message
	viewC chan viewEvent // a member delivered a view notification
	// view is the last view every member was seen to deliver, from viewC.
	// The harness never asks Group.View() or Stats().View what the current
	// view is: those are snapshots the engine loop refreshes at the end of
	// an iteration, after it has served DeliverView, so they can still name
	// the view before.
	view ident.ViewRef

	t0      atomic.Int64 // ns since base at which window 0 starts; 0 = not measuring
	stop    atomic.Bool  // generator and view-change driver finish up
	tracing atomic.Bool  // current window is traced
	sent    atomic.Int64 // messages committed by the sender (MulticastBatch returned nil)

	traceGenMs, clusterStartMs float64

	// Written by the sender goroutine, read after it is done.
	attempted, sendFailed int64
	sendErr               error
	late                  [][]uint32 // per window: generator lateness against its schedule, ns
	sendSpans             spanBuf

	// Written by the view-change driver, read after it is done.
	vcRequested, vcFailed int64
	vcMs                  []float64 // request to DeliverView at every member, inside the windows
	flushLens             []float64 // Stats().LastFlushLen after each of those changes
	vcSpans               spanBuf
}

func (s *session) now() int64 { return int64(time.Since(s.base)) }

// windowOf maps a run-clock instant to its window index, -1 outside the
// measured windows.
func (s *session) windowOf(at int64) int {
	t0 := s.t0.Load()
	if t0 == 0 || at < t0 {
		return -1
	}
	i := int((at - t0) / int64(s.o.window))
	if i >= s.o.windows {
		return -1
	}
	return i
}

// newSession generates the message stream, starts the cluster and its
// receivers, and multicasts one hello marker that every member must
// deliver — which dials every TCP connection and runs every goroutine once.
func newSession(w workload, o runOpts) (*session, error) {
	s := &session{w: w, o: o, base: time.Now()}
	p := trace.DefaultParams()
	p.Seed = o.seed
	tr := trace.Generate(p)
	expect := 4096
	if w.rate > 0 {
		expect += int(float64(w.rate) * (o.warmup + time.Duration(o.windows)*o.window).Seconds() * 1.1)
	}
	s.traceGenMs = float64(s.now()) / 1e6

	c, err := startCluster(w)
	if err != nil {
		return nil, err
	}
	s.c = c
	s.st = newStream(c.pids[0], tr, w.game, expect)
	total := o.warmup + time.Duration(o.windows)*o.window
	s.ctx, s.cancel = context.WithTimeout(context.Background(), total+quiesceTimeout+30*time.Second)
	s.markC = make(chan int, 2*w.members)       // hello + final marker per member
	s.viewC = make(chan viewEvent, 4*w.members) // the driver drains it; room for one change in flight
	s.late = make([][]uint32, o.windows)
	s.view = c.initial.Ref()
	for i, g := range c.groups {
		r := &receiver{idx: i, g: g, view: s.view}
		if i == latencyMember {
			r.lat = make([][]uint32, o.windows)
		}
		s.recv = append(s.recv, r)
		s.wg.Add(1)
		go s.receive(r)
	}
	if !s.multicast(c.groups[0], s.st.markerMsg()) {
		s.close()
		return nil, fmt.Errorf("hello multicast: %w", s.sendErr)
	}
	if err := s.awaitMarkers(quiesceTimeout); err != nil {
		s.close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	s.clusterStartMs = float64(s.now())/1e6 - s.traceGenMs
	return s, nil
}

// awaitMarkers waits until every member has signalled a marker delivery.
func (s *session) awaitMarkers(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for got := 0; got < s.w.members; got++ {
		select {
		case <-s.markC:
		case <-t.C:
			return fmt.Errorf("%d of %d members delivered the marker within %v", got, s.w.members, timeout)
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	return nil
}

// close stops the receivers and the cluster and waits for both.
func (s *session) close() {
	s.closed.Do(func() {
		s.cancel()
		s.c.close()
		s.wg.Wait()
	})
}

// receive is one member's delivery loop. The slow member paces itself by
// schedule: its next-due time advances by the messages it took, so timer
// overshoot is absorbed by the next sleep and the consumption rate is exact.
func (s *session) receive(r *receiver) {
	defer s.wg.Done()
	slow := s.w.slowRate > 0 && r.idx == s.w.members-1
	dst := make([]core.Delivery, fastDeliverCap)
	var perMsg, nextDue int64
	if slow {
		dst = dst[:s.w.slowBatch]
		perMsg = int64(time.Second) / int64(s.w.slowRate)
	}
	sender := s.c.pids[0]
	for {
		traced := s.tracing.Load()
		var start int64
		if traced {
			start = s.now()
		}
		n, err := r.g.DeliverBatch(s.ctx, dst)
		if err != nil {
			return
		}
		now := s.now()
		win := s.windowOf(now)
		data, first := 0, uint64(0)
		for i := 0; i < n; i++ {
			d := &dst[i]
			switch d.Kind {
			case core.DeliverData:
				seq := uint64(d.Meta.Seq)
				p := d.Payload
				if d.Meta.Sender != sender || len(p) != payloadLen || binary.LittleEndian.Uint64(p[8:16]) != seq {
					r.corrupt++
					continue
				}
				if data == 0 {
					first = seq
				}
				data++
				r.delivered = append(r.delivered, uint32(seq))
				if r.lat != nil && win >= 0 {
					r.lat[win] = append(r.lat[win], clampU32(now-int64(binary.LittleEndian.Uint64(p[0:8]))))
				}
				if p[16] == msgMarker {
					select {
					case s.markC <- r.idx:
					case <-s.ctx.Done():
						return
					}
				}
			case core.DeliverView:
				r.view = d.NewView.Ref()
				select {
				case s.viewC <- viewEvent{member: r.idx, view: r.view, at: now}:
				case <-s.ctx.Done():
					return
				}
			}
		}
		r.count.Add(int64(data))
		if traced {
			r.spans.add(spanDeliver, r.idx, start, now, first, data)
			r.calls++
			r.callMsgs += int64(data)
		}
		if slow && data > 0 {
			if nextDue == 0 || now-nextDue > int64(slowResetAfter) {
				nextDue = now
			}
			nextDue += int64(data) * perMsg
			if !sleepUntil(s.ctx, s.base, nextDue) {
				return
			}
		}
	}
}

// sleepUntil blocks until the run clock reads at least due (ns since base)
// or ctx is done; it reports whether the deadline was reached.
func sleepUntil(ctx context.Context, base time.Time, due int64) bool {
	d := time.Duration(due) - time.Since(base)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}

// generate is the sender: closed loop (the next batch follows the previous
// commit) or open loop (one batch per tick of a fixed schedule, whatever
// flow control does — a stall makes the following batches late, and their
// lateness is recorded). It ends with the final marker.
func (s *session) generate(startNs int64, done chan<- struct{}) {
	defer close(done)
	g := s.c.groups[0]
	batch := make([]core.OutMsg, s.w.batch)
	due := startNs
	for !s.stop.Load() {
		if s.w.rate > 0 {
			due += int64(s.w.tick)
			if !sleepUntil(s.ctx, s.base, due) {
				return
			}
		}
		s.st.fill(batch)
		if win := s.windowOf(s.now()); win >= 0 && s.w.rate > 0 {
			s.late[win] = append(s.late[win], clampU32(s.now()-due))
		}
		if !s.multicast(g, batch) {
			return
		}
	}
	s.multicast(g, s.st.markerMsg())
}

// multicast stamps the batch with the instant of the call and submits it.
func (s *session) multicast(g *core.Group, batch []core.OutMsg) bool {
	traced := s.tracing.Load()
	s.attempted += int64(len(batch))
	now := s.now()
	for i := range batch {
		binary.LittleEndian.PutUint64(batch[i].Payload[0:8], uint64(now))
	}
	if _, err := g.MulticastBatch(s.ctx, batch); err != nil {
		s.sendFailed += int64(len(batch))
		s.sendErr = err
		return false
	}
	if traced {
		s.sendSpans.add(spanMulticast, 0, now, s.now(), uint64(batch[0].Meta.Seq), len(batch))
	}
	s.sent.Add(int64(len(batch)))
	return true
}

// driveViewChanges requests a view change (membership unchanged) every
// vcPeriod at the sender while the windows last. A change that overruns its
// period delays the next request; requests are never stacked.
func (s *session) driveViewChanges(startNs int64, done chan<- struct{}) {
	defer close(done)
	next := startNs
	for {
		next += int64(s.w.vcPeriod)
		if now := s.now(); next < now {
			next = now
		}
		if !sleepUntil(s.ctx, s.base, next) || s.stop.Load() {
			return
		}
		if !s.viewChange(false) {
			return
		}
	}
}

// viewChange requests one view change at the sender and waits, on the
// receivers' channel, until every member has delivered the new view. The
// sample is kept when the request fell inside a measured window, or always
// for an idle change.
func (s *session) viewChange(idle bool) bool {
	g := s.c.groups[0]
	traced := s.tracing.Load()
	t0 := s.now()
	s.vcRequested++
	if err := g.RequestViewChange(); err != nil {
		s.vcFailed++
		return false
	}
	timeout := time.NewTimer(viewTimeout)
	defer timeout.Stop()
	var next ident.ViewRef
	var last int64
	for got := 0; got < s.w.members; {
		select {
		case ev := <-s.viewC:
			if got == 0 {
				next = ev.view
			}
			if ev.view != next || next.ID <= s.view.ID {
				s.vcFailed++ // members installed different views, or an old one again
				return false
			}
			got++
			if ev.at > last {
				last = ev.at
			}
			if traced {
				s.vcSpans.add(spanInstall, ev.member, t0, ev.at, uint64(next.ID), 1)
			}
		case <-timeout.C:
			s.vcFailed++
			return false
		case <-s.ctx.Done():
			s.vcFailed++
			return false
		}
	}
	s.view = next
	if idle || s.windowOf(t0) >= 0 {
		s.vcMs = append(s.vcMs, float64(last-t0)/1e6)
		// LastFlushLen is set at the decision, before the install; a
		// snapshot that already names the new view therefore carries this
		// change's flush set. One that does not is stale and is skipped.
		if st := g.Stats(); st.View == next.ID {
			s.flushLens = append(s.flushLens, float64(st.LastFlushLen))
		}
	}
	if traced {
		s.vcSpans.add(spanViewChange, 0, t0, last, uint64(next.ID), s.w.members)
	}
	return true
}

// edge is what the coordinator reads at a window boundary.
type edge struct {
	at        int64
	sent      int64
	delivered []int64
	cpuNs     int64
	// traced runs only
	stats            []core.Stats
	tcp              []transport.TCPStats
	mallocs, gcPause uint64 // runtime.MemStats Mallocs, PauseTotalNs
}

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (s *session) snapshot() edge {
	e := edge{at: s.now(), sent: s.sent.Load(), cpuNs: cpuTimeNs()}
	for _, r := range s.recv {
		e.delivered = append(e.delivered, r.count.Load())
	}
	if s.o.traced {
		for _, g := range s.c.groups {
			e.stats = append(e.stats, g.Stats())
		}
		for _, n := range s.c.tcp {
			e.tcp = append(e.tcp, n.Stats())
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.mallocs, e.gcPause = ms.Mallocs, ms.PauseTotalNs
	}
	return e
}

// sampled aggregates the 10 ms Stats() samples of the traced windows.
type sampled struct {
	n        int64
	occSum   []int64 // per member: sum of ToDeliverLen
	occMax   []int
	histMax  int
	heapPeak uint64
}

// sample runs while the run lasts and reads Stats() of every member every
// 10 ms during traced windows (heap every tenth sample: ReadMemStats stops
// the world).
func (s *session) sample(agg *sampled, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-tick.C:
		case <-s.ctx.Done():
			return
		}
		if s.stop.Load() {
			return
		}
		if !s.tracing.Load() {
			continue
		}
		for i, g := range s.c.groups {
			st := g.Stats()
			agg.occSum[i] += int64(st.ToDeliverLen)
			if st.ToDeliverLen > agg.occMax[i] {
				agg.occMax[i] = st.ToDeliverLen
			}
			if st.HistoryLen > agg.histMax {
				agg.histMax = st.HistoryLen
			}
		}
		if agg.n%10 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > agg.heapPeak {
				agg.heapPeak = ms.HeapInuse
			}
		}
		agg.n++
	}
}

// measured is everything one run observed, before it is reduced to metrics.
type measured struct {
	w       workload
	setupS  []float64 // one per timed set-up, without the warm-up
	warmupS float64
	s       *session
	edges   []edge
	agg     sampled
	verdict verdict
}

// runWorkload executes one run: timed set-ups, the fixed warm-up, the
// measured windows, then quiesce and the correctness oracle. The returned
// session is closed.
func runWorkload(w workload, o runOpts) (*measured, error) {
	m := &measured{w: w}
	var s *session
	for i := 0; i < o.setupReps; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = newSession(w, o); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	m.s = s
	defer s.close()

	startNs := s.now()
	t0 := startNs + int64(o.warmup)
	s.t0.Store(t0)
	genDone, vcDone, sampleDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go s.generate(startNs, genDone)
	if w.vcPeriod > 0 {
		go s.driveViewChanges(startNs, vcDone)
	} else {
		close(vcDone)
	}
	m.agg = sampled{occSum: make([]int64, w.members), occMax: make([]int, w.members)}
	if o.traced {
		go s.sample(&m.agg, sampleDone)
	} else {
		close(sampleDone)
	}

	// The coordinator sleeps to each window edge; rates use the instant it
	// actually read the counters, so timer overshoot does not bias them.
	for i := 0; i <= o.windows; i++ {
		if !sleepUntil(s.ctx, s.base, t0+int64(i)*int64(o.window)) {
			break
		}
		s.tracing.Store(o.traced && i%2 == 1 && i < o.windows)
		m.edges = append(m.edges, s.snapshot())
		if i == 0 {
			m.warmupS = float64(m.edges[0].at-startNs) / 1e9
		}
	}
	s.tracing.Store(false)
	s.stop.Store(true)
	<-genDone
	<-vcDone
	<-sampleDone

	v := &m.verdict
	if len(m.edges) != o.windows+1 {
		v.addf("run cut short after %d of %d windows: %v", len(m.edges)-1, o.windows, s.ctx.Err())
	}
	if s.sendErr != nil {
		v.addf("multicast failed: %v", s.sendErr)
	} else if err := s.awaitMarkers(quiesceTimeout); err != nil {
		v.addf("quiesce: %v", err)
	} else if w.vcPeriod == 0 && o.traced {
		// A traced run of a workload that keeps view changes out of its
		// windows times them on the quiesced cluster instead: the fixed
		// cost of a change on this cluster shape.
		for i := 0; i < idleViewChanges && s.viewChange(true); i++ {
		}
	}
	s.close() // receivers have exited: their records are safe to read
	for _, r := range s.recv {
		if r.view != s.recv[0].view {
			v.addf("view disagreement after quiesce: p0 last delivered %v, p%d %v", s.recv[0].view, r.idx, r.view)
		}
		if r.corrupt > 0 {
			v.addf("p%d: %d deliveries failed the payload integrity check", r.idx, r.corrupt)
		}
		checkReceiver(fmt.Sprintf("p%d", r.idx), s.st.log, r.delivered, !w.game, v)
	}
	return m, nil
}
