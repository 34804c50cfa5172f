package main

import (
	"math"
	"sort"
)

// Units, as BENCHMARK.json declares them.
const (
	uS      = "s"
	uMs     = "ms"
	uUs     = "us"
	uNs     = "ns"
	uRate   = "msgs/s"
	uRatio  = "ratio"
	uCount  = "count"
	uMsgs   = "msgs"
	uBytes  = "bytes"
	uMB     = "MB"
	uMsPerS = "ms/s"
)

// metricSet is an ordered name -> metric map: insertion order is report
// order.
type metricSet struct {
	names []string
	m     map[string]metric
	n     map[string]int // samples behind the value, where that means something
}

func newMetricSet() *metricSet {
	return &metricSet{m: make(map[string]metric), n: make(map[string]int)}
}

func (ms *metricSet) set(name string, v float64, unit string, samples int) {
	if _, dup := ms.m[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
	ms.n[name] = samples
}

// windowStats is the per-window reduction of one run's edges, over all
// windows or only the traced / untraced half of a traced run.
type windowStats struct {
	goodput, cpuUs, gain, latP50Us []float64
}

func (m *measured) perWindow(use func(i int) bool) windowStats {
	var ws windowStats
	lat := m.s.recv[latencyMember].lat
	for i := 0; i+1 < len(m.edges); i++ {
		if !use(i) {
			continue
		}
		a, b := m.edges[i], m.edges[i+1]
		dt := float64(b.at-a.at) / 1e9
		dsent := float64(b.sent - a.sent)
		if dt <= 0 {
			continue
		}
		ws.goodput = append(ws.goodput, dsent/dt)
		if dsent > 0 {
			ws.cpuUs = append(ws.cpuUs, float64(b.cpuNs-a.cpuNs)/1e3/dsent)
		}
		slowest := float64(b.delivered[0] - a.delivered[0])
		for j := range a.delivered {
			if d := float64(b.delivered[j] - a.delivered[j]); d < slowest {
				slowest = d
			}
		}
		if slowest > 0 {
			ws.gain = append(ws.gain, dsent/slowest)
		}
		if len(lat[i]) > 0 {
			ws.latP50Us = append(ws.latP50Us, percentile(sortedCopy(nsToUs(lat[i])), 50))
		}
	}
	return ws
}

// endToEnd reduces an untraced run to the end-to-end metrics. The ratio is
// computed per window and the median across windows is reported, so one
// noisy-neighbour burst cannot move a run.
func (m *measured) endToEnd() *metricSet {
	ms := newMetricSet()
	ws := m.perWindow(func(int) bool { return true })
	ms.set("setup_s", median(m.setupS)+m.warmupS, uS, len(m.setupS))
	ms.set("slow_gain_ratio", median(ws.gain), uRatio, len(ws.gain))
	return ms
}

// flat concatenates the given windows of a per-window sample set, in µs.
func flat(per [][]uint32, use func(i int) bool) []float64 {
	var out []float64
	for i, w := range per {
		if use(i) {
			out = append(out, nsToUs(w)...)
		}
	}
	sort.Float64s(out)
	return out
}

// workloadLayers reduces the traced windows of a traced run to the harness,
// core, transport-counter and process metrics. Counts are deltas over the
// traced windows only; the untraced windows of the same run give the
// tracing overhead.
func (m *measured) workloadLayers(ms *metricSet) {
	traced := func(i int) bool { return i%2 == 1 }
	untraced := func(i int) bool { return i%2 == 0 }
	s := m.s

	late := flat(s.late, traced)
	ms.set("gen.late_p50_us", percentile(late, 50), uUs, len(late))
	ms.set("gen.late_p99_us", percentile(late, 99), uUs, len(late))
	lat := flat(s.recv[latencyMember].lat, traced)
	ms.set("e2e.latency_p99_us", percentile(lat, 99), uUs, len(lat))
	ms.set("e2e.latency_p999_us", percentile(lat, 99.9), uUs, len(lat))

	// Overhead: the worse of the goodput lost and the CPU cost added in
	// traced windows against the untraced windows of the same run.
	tw, uw := m.perWindow(traced), m.perWindow(untraced)
	// Goodput, latency and CPU cost as an end-to-end run would see them:
	// from the windows of this run in which tracing was off.
	ms.set("e2e.goodput_msgs_s", median(uw.goodput), uRate, len(uw.goodput))
	ms.set("e2e.latency_p50_us", median(uw.latP50Us), uUs, len(uw.latP50Us))
	ms.set("e2e.cpu_us_per_msg", median(uw.cpuUs), uUs, len(uw.cpuUs))
	overhead := 0.0
	if g := median(uw.goodput); g > 0 {
		overhead = 1 - median(tw.goodput)/g
	}
	if c := median(uw.cpuUs); c > 0 {
		if o := median(tw.cpuUs)/c - 1; o > overhead {
			overhead = o
		}
	}
	ms.set("trace.overhead_frac", overhead, uRatio, len(tw.goodput))
	ms.set("setup.trace_gen_ms", s.traceGenMs, uMs, 1)
	ms.set("setup.cluster_start_ms", s.clusterStartMs, uMs, 1)

	// Deltas over the traced windows.
	var sent, secs, parks, purgedTD, purgedOut, dropped, delivered float64
	var mallocs, gcPauseNs float64
	var tcpBytes, tcpEnvs, tcpFrames float64
	for i := 0; i+1 < len(m.edges); i++ {
		if !traced(i) {
			continue
		}
		a, b := m.edges[i], m.edges[i+1]
		sent += float64(b.sent - a.sent)
		secs += float64(b.at-a.at) / 1e9
		parks += float64(b.stats[0].MulticastParks - a.stats[0].MulticastParks)
		purgedOut += float64(b.stats[0].PurgedOutgoing - a.stats[0].PurgedOutgoing)
		for j := range a.stats {
			purgedTD += float64(b.stats[j].PurgedToDeliver - a.stats[j].PurgedToDeliver)
			dropped += float64(b.stats[j].DroppedStale-a.stats[j].DroppedStale) +
				float64(b.stats[j].DroppedCovered-a.stats[j].DroppedCovered)
			delivered += float64(b.stats[j].Delivered - a.stats[j].Delivered)
		}
		mallocs += float64(b.mallocs - a.mallocs)
		gcPauseNs += float64(b.gcPause - a.gcPause)
		// The sender's endpoint carries the data; peers' carry credits.
		if len(a.tcp) > 0 {
			tcpBytes += float64(b.tcp[0].BytesSent - a.tcp[0].BytesSent)
			tcpEnvs += float64(b.tcp[0].EnvelopesSent - a.tcp[0].EnvelopesSent)
			tcpFrames += float64(b.tcp[0].FramesSent - a.tcp[0].FramesSent)
		}
	}
	per := func(x, by float64) float64 {
		if by == 0 {
			return 0
		}
		return x / by
	}

	var callUs []float64
	for _, sp := range s.sendSpans.spans {
		callUs = append(callUs, float64(sp.end-sp.start)/1e3)
	}
	sort.Float64s(callUs)
	ms.set("core.multicast_call_p50_us", percentile(callUs, 50), uUs, len(callUs))
	ms.set("core.multicast_call_p99_us", percentile(callUs, 99), uUs, len(callUs))
	ms.set("core.parks_per_kmsg", 1000*per(parks, sent), uCount, int(sent))
	r := s.recv[latencyMember]
	var waitNs float64
	for _, sp := range r.spans.spans {
		waitNs += float64(sp.end - sp.start)
	}
	ms.set("core.deliver_wait_frac", per(waitNs/1e9, secs), uRatio, len(r.spans.spans))
	ms.set("core.deliver_batch_mean_msgs", per(float64(r.callMsgs), float64(r.calls)), uMsgs, int(r.calls))
	ms.set("core.purged_todeliver_per_msg", per(purgedTD, sent), uMsgs, int(sent))
	ms.set("core.purged_outgoing_per_msg", per(purgedOut, sent), uMsgs, int(sent))
	// Useful-work ratio: of the (message, member) copies multicast, the
	// share that was purged somewhere instead of delivered.
	// Deliveries of the window before can land in this one, so the raw
	// difference may dip a hair below zero.
	copies := sent * float64(m.w.members)
	ms.set("core.purge_ratio", math.Max(0, per(copies-delivered, copies)), uRatio, int(copies))
	slowest := 0
	for j := range m.agg.occSum {
		if m.agg.occSum[j] > m.agg.occSum[slowest] {
			slowest = j
		}
	}
	ms.set("core.occupancy_mean_msgs", per(float64(m.agg.occSum[slowest]), float64(m.agg.n)), uMsgs, int(m.agg.n))
	ms.set("core.occupancy_max_msgs", float64(m.agg.occMax[slowest]), uMsgs, int(m.agg.n))
	ms.set("core.history_len_max", float64(m.agg.histMax), uMsgs, int(m.agg.n))
	ms.set("core.dropped_per_kmsg", 1000*per(dropped, sent), uCount, int(sent))
	flush := 0.0
	for _, f := range s.flushLens {
		flush += f
	}
	ms.set("core.flush_msgs_mean", per(flush, float64(len(s.flushLens))), uMsgs, len(s.flushLens))
	vc := sortedCopy(s.vcMs)
	ms.set("core.view_change_p50_ms", percentile(vc, 50), uMs, len(vc))
	ms.set("core.view_change_p90_ms", percentile(vc, 90), uMs, len(vc))

	ms.set("transport.tcp.bytes_per_msg", per(tcpBytes, sent), uBytes, int(sent))
	ms.set("transport.tcp.envs_per_frame", per(tcpEnvs, tcpFrames), uCount, int(tcpFrames))
	ms.set("transport.tcp.frames_per_kmsg", 1000*per(tcpFrames, sent), uCount, int(sent))

	ms.set("proc.allocs_per_msg", per(mallocs, sent), uCount, int(sent))
	ms.set("proc.gc_pause_ms_per_s", per(gcPauseNs/1e6, secs), uMsPerS, 0)
	ms.set("proc.heap_peak_mb", float64(m.agg.heapPeak)/(1<<20), uMB, 0)
}

// spanBufs lists every goroutine's spans of the run.
func (m *measured) spanBufs() []*spanBuf {
	bufs := []*spanBuf{&m.s.sendSpans, &m.s.vcSpans}
	for _, r := range m.s.recv {
		bufs = append(bufs, &r.spans)
	}
	return bufs
}

// operations counts what the run attempted and what failed: a multicast
// error, a view change that failed or timed out, and every oracle violation
// is a failed operation.
func (m *measured) operations() (attempted, failed int64) {
	attempted = m.s.attempted + m.s.vcRequested
	failed = m.s.sendFailed + m.s.vcFailed + int64(m.verdict.count)
	if attempted < 1 {
		attempted = 1
	}
	return attempted, failed
}
