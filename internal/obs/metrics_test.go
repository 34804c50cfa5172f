package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 5})
	// Upper edges are inclusive: v == bound lands in that bound's bucket.
	cases := []struct {
		v      float64
		bucket int
	}{
		{0.5, 0}, {1, 0}, // at the first edge: bucket 0
		{1.0001, 1}, {2, 1}, // at the second edge: bucket 1
		{3, 2}, {5, 2}, // at the last edge: bucket 2
		{5.0001, 3}, {1e9, 3}, // overflow bucket
		{-1, 0}, // below every edge: first bucket
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := r.Snapshot().Histograms["h"]
	want := make([]uint64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i := range want {
		if snap.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], want[i], snap.Counts)
		}
	}
	if snap.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(cases))
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if math.Abs(snap.Sum-sum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", snap.Sum, sum)
	}
}

func TestHistogramDurationAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", DurationBuckets)
	h.ObserveDuration(100 * time.Millisecond)
	h.ObserveDuration(300 * time.Millisecond)
	snap := r.Snapshot().Histograms["d"]
	if got := snap.Mean(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("mean = %v, want 0.2", got)
	}
}

func TestRegistryLabelsAndIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("lat", CountBuckets, L("group", "1"), L("node", "p0"))
	// Same name, same labels in a different order: the same histogram.
	b := r.Histogram("lat", CountBuckets, L("node", "p0"), L("group", "1"))
	if a != b {
		t.Fatal("label order changed histogram identity")
	}
	if c := r.Histogram("lat", CountBuckets, L("group", "2"), L("node", "p0")); a == c {
		t.Fatal("different labels shared a histogram")
	}
	// A source's labels are sorted into the key the same way.
	r.AddSource(func(emit Emit) {
		emit("msgs", KindCounter, 3, L("node", "p0"), L("group", "1"))
		emit("msgs", KindCounter, 1, L("group", "2"), L("node", "p0"))
	})
	snap := r.Snapshot()
	if snap.Counters["msgs{group=1,node=p0}"] != 3 {
		t.Fatalf("unexpected snapshot %v", snap.Counters)
	}
	if got := snap.Sum("msgs"); got != 4 {
		t.Fatalf("Sum(msgs) = %d, want 4", got)
	}
	if got := snap.Sum("msg"); got != 0 {
		t.Fatalf("Sum(msg) must not prefix-match msgs, got %d", got)
	}
}

func TestObsWithDerivesLabels(t *testing.T) {
	r := NewRegistry()
	root := New(Wall{}, r, nil)
	g1 := root.With(L("group", "1"))
	g1.Histogram("lat", CountBuckets).Observe(1)
	g1.AddSource(func(emit Emit) {
		emit("delivered", KindCounter, 7)
		emit("suspected", KindGauge, 1, L("peer", "p1"))
	})
	snap := r.Snapshot()
	if snap.Histograms["lat{group=1}"].Count != 1 {
		t.Fatalf("unexpected histograms %v", snap.Histograms)
	}
	if snap.Counters["delivered{group=1}"] != 7 {
		t.Fatalf("unexpected counters %v", snap.Counters)
	}
	if snap.Gauges["suspected{group=1,peer=p1}"] != 1 {
		t.Fatalf("unexpected gauges %v", snap.Gauges)
	}
	// The parent bundle is unaffected by the derivation.
	root.AddSource(func(emit Emit) { emit("delivered", KindCounter, 1) })
	if got := r.Snapshot().Counters["delivered"]; got != 1 {
		t.Fatalf("parent counter = %d, want 1", got)
	}
}

// TestWriteJSONRoundTrips: a snapshot survives encoding/json both ways,
// which is how svs-demo serves its merged snapshot.
func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	depth := int64(-4)
	r.AddSource(func(emit Emit) {
		emit("c", KindCounter, 2)
		emit("g", KindGauge, uint64(depth))
	})
	r.Histogram("h", CountBuckets).Observe(3)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if s.Counters["c"] != 2 || s.Gauges["g"] != -4 || s.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}

// TestMetricsRaceHammer observes histograms and bumps a sourced counter
// from many goroutines while snapshots are taken concurrently; under -race
// this proves the lock-free histograms, the source reads and snapshot
// copying are torn-read free.
func TestMetricsRaceHammer(t *testing.T) {
	r := NewRegistry()
	const (
		writers  = 8
		perLoop  = 1000
		snappers = 3
	)
	var total atomic.Uint64 // a component's own counter, read by its source
	r.AddSource(func(emit Emit) {
		emit("hammer_total", KindCounter, total.Load())
		emit("hammer_depth", KindGauge, total.Load())
	})
	var writeWG, snapWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			// Half the writers resolve histograms per iteration (exercising
			// registry lookup under contention), half hold them.
			h := r.Histogram("hammer_lat", DurationBuckets)
			for i := 0; i < perLoop; i++ {
				if w%2 == 0 {
					h = r.Histogram("hammer_lat", DurationBuckets)
					r.Histogram("hammer_w", CountBuckets, L("w", fmt.Sprint(w))).Observe(1)
				}
				total.Add(1)
				h.Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	for s := 0; s < snappers; s++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				h := snap.Histograms["hammer_lat"]
				var bucketSum uint64
				for _, c := range h.Counts {
					bucketSum += c
				}
				// Count and the bucket sum race benignly (two separate
				// atomics), but bucket counts must never exceed Count+writers
				// in-flight increments.
				if bucketSum > h.Count+writers {
					panic(fmt.Sprintf("bucket sum %d far ahead of count %d", bucketSum, h.Count))
				}
			}
		}()
	}
	// Writers finish, then stop the snappers.
	writeWG.Wait()
	close(stop)
	snapWG.Wait()
	final := r.Snapshot()
	if got := final.Counters["hammer_total"]; got != writers*perLoop {
		t.Fatalf("hammer_total = %d, want %d", got, writers*perLoop)
	}
	h := final.Histograms["hammer_lat"]
	if h.Count != writers*perLoop {
		t.Fatalf("histogram count = %d, want %d", h.Count, writers*perLoop)
	}
	var bucketSum uint64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d after quiescence", bucketSum, h.Count)
	}
}

func TestSourcesAreReadAtSnapshot(t *testing.T) {
	r := NewRegistry()
	root := New(nil, r, nil)
	var sent uint64 // the component's own counter; the registry only reads it
	for _, node := range []string{"a", "b"} {
		root.With(L("node", node)).AddSource(func(emit Emit) {
			emit("sent_total", KindCounter, sent)
			emit("dropped_total", KindCounter, 1, L("reason", "stale"))
			emit("depth", KindGauge, 1)
		})
	}
	// Two sources under one unlabelled key add up; of the gauges the last
	// registered stands.
	for _, v := range []uint64{3, 4} {
		v := v
		root.AddSource(func(emit Emit) {
			emit("shared_total", KindCounter, v)
			emit("level", KindGauge, v)
		})
	}
	sent = 5
	snap := r.Snapshot()
	for key, want := range map[string]uint64{
		"sent_total{node=a}": 5, "sent_total{node=b}": 5,
		"dropped_total{node=a,reason=stale}": 1, "shared_total": 7,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d (counters %v)", key, got, want, snap.Counters)
		}
	}
	if snap.Gauges["depth{node=b}"] != 1 || snap.Gauges["level"] != 4 {
		t.Errorf("gauges = %v, want depth{node=b}=1 level=4", snap.Gauges)
	}
	sent = 6
	if got := r.Snapshot().Counters["sent_total{node=a}"]; got != 6 {
		t.Errorf("second snapshot read %d, want 6", got)
	}

	// No registry, no source: nothing to call, nothing to panic on.
	var none *Obs
	none.AddSource(func(Emit) { t.Error("a nil bundle called its source") })
	Nop().AddSource(func(Emit) { t.Error("a bundle without a registry called its source") })
	(*Registry)(nil).AddSource(nil)
	_ = Nop().Registry().Snapshot()
}
