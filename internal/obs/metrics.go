package obs

import (
	"encoding/json"
	"io"
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

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe: a nil *Counter records nothing and reads zero, so callers
// handed no registry pay only a nil check.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

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

// Registry holds a process's instruments, keyed by name plus sorted
// labels. Lookup (Counter/Gauge/Histogram) takes the registry lock and is
// meant for construction time; the returned instruments are then updated
// lock-free. Asking twice for the same name and labels returns the same
// instrument, so independent components can share a counter.
//
// A component that already keeps its counts in a snapshot of its own (the
// engine's Stats, the TCP endpoint's TCPStats) registers a source instead
// of instruments: nothing is recorded twice, and the registry reads the
// component's numbers when it is asked for its own.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
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
// Counters reported under one name and label set add up — across sources
// and with an instrument of that key — exactly as components sharing one
// Counter do; of several gauges under one key the last reported stands,
// as with Gauge.Set (a negative gauge travels as uint64(int64(v))).
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
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
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

// Counter returns (creating if needed) the counter name with labels. A
// nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge name with labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
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

// Snapshot is a point-in-time copy of every instrument, marshalable to
// JSON. It is what Node.Metrics returns and what svs-demo's -metrics
// endpoint serves.
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

// Snapshot copies every instrument, then asks every source. Writers are
// not stopped: each value is read atomically, so the snapshot is
// per-instrument (and per-source) consistent.
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
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
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

// WriteJSON writes the snapshot as indented JSON — the expvar-style
// export svs-demo serves on its -metrics endpoint.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
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
