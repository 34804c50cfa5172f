package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension of a metric. Per-group and per-node
// labels are how one registry serves a whole multi-group node (or a whole
// in-process cluster in tests and svs-demo).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Histogram is a fixed-boundary cumulative-free histogram: bounds[i] is
// the inclusive upper edge of bucket i, and one overflow bucket catches
// everything above the last bound. Observations are two atomic adds (the
// bucket and the bit-packed sum); snapshots read without stopping writers,
// so a snapshot taken mid-observation may be off by the observation in
// flight — fine for monitoring, and torn reads are impossible because
// every word is read atomically.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	sum    atomic.Uint64   // math.Float64bits-packed running sum
	count  atomic.Uint64
}

// Observe records v. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive upper edges
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: counts,
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
}

// DurationBuckets is the default boundary set for latency histograms:
// exponential from 50µs to ~26s, in seconds.
var DurationBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 26,
}

// CountBuckets is the default boundary set for small-cardinality count
// histograms (consensus rounds, flush sizes).
var CountBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 512, 1024}

// Registry holds a process's histograms and the sources it reads counters
// and gauges from. A histogram is keyed by name plus sorted labels; lookup
// takes the registry lock and is meant for construction time, after which
// the histogram is updated lock-free. Asking twice for the same name and
// labels returns the same histogram.
//
// Every counter and gauge is kept by the component it counts, in a plain
// record of its own (the engine's Stats, the TCP endpoint's TCPStats, a
// fault controller's FaultStats): the component registers a source, and the
// registry reads the component's numbers when it is asked for its own.
// Nothing is recorded twice.
type Registry struct {
	mu         sync.Mutex
	histograms map[string]*Histogram
	sources    []func(Emit)
}

// Kind is the section of a Snapshot a sourced value lands in.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

// Emit reports one value from a source to the snapshot being taken.
// Counters reported under one name and label set add up across sources;
// of several gauges under one key the last reported stands (a negative
// gauge travels as uint64(int64(v))).
type Emit func(name string, kind Kind, value uint64, labels ...Label)

// AddSource registers fn to be called by every Snapshot, in registration
// order and outside the registry lock. fn should close over the small
// published state it reads, not over the component that publishes it: the
// registry keeps fn, and with it everything fn references, for good (a
// stopped component's last counts stay in the totals).
func (r *Registry) AddSource(fn func(Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, fn)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{histograms: make(map[string]*Histogram)}
}

// metricKey renders name{k1=v1,k2=v2} with labels sorted by key.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Histogram returns (creating if needed) the histogram name with labels.
// bounds must be sorted ascending; they are only consulted on creation
// (the first caller wins), so every caller should pass the same set —
// typically DurationBuckets or CountBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.histograms[key] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every histogram and sourced value,
// marshalable to JSON. It is what Node.Metrics returns and what svs-demo's
// -metrics endpoint serves.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's state: Counts[i] observations fell
// at or below Bounds[i] (and above the previous bound); the final entry of
// Counts is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the average observation, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot copies every histogram, then asks every source. Writers are
// not stopped: each value is read atomically, so the snapshot is
// per-histogram (and per-source) consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for k, h := range r.histograms {
		s.Histograms[k] = h.snapshot()
	}
	sources := r.sources // append-only: the prefix read here never changes
	r.mu.Unlock()
	emit := func(name string, kind Kind, value uint64, labels ...Label) {
		if key := metricKey(name, labels); kind == KindGauge {
			s.Gauges[key] = int64(value)
		} else {
			s.Counters[key] += value
		}
	}
	for _, src := range sources {
		src(emit)
	}
	return s
}

// Sum adds up every counter whose name (ignoring labels) equals name —
// handy for aggregating one counter across groups or nodes.
func (s Snapshot) Sum(name string) uint64 {
	var total uint64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
