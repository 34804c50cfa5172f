package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obsolete"
	"repro/internal/trace"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {100, 90}, {150, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR(1..5) = %v, want 1", got)
	}
}

// oracleLog is: 1 create(7), 2 update(7), 3 update(7), 4 update(9),
// 5 update(7), 6 destroy(7), 7 update(9).
var oracleLog = []sentMsg{
	{7, uint8(trace.Create)}, {7, uint8(trace.Update)}, {7, uint8(trace.Update)}, {9, uint8(trace.Update)},
	{7, uint8(trace.Update)}, {7, uint8(trace.Destroy)}, {9, uint8(trace.Update)},
}

func TestOracle(t *testing.T) {
	for _, c := range []struct {
		name      string
		delivered []uint32
		reliable  bool
		wantBad   string // substring of the first violation; "" = clean
	}{
		{"everything delivered", []uint32{1, 2, 3, 4, 5, 6, 7}, false, ""},
		{"covered updates purged", []uint32{1, 5, 6, 7}, false, ""},
		{"dropped create", []uint32{2, 3, 4, 5, 6, 7}, false, "reliable message seq 1"},
		{"dropped destroy", []uint32{1, 2, 3, 4, 5, 7}, false, "reliable message seq 6"},
		{"reordered pair", []uint32{1, 3, 2, 4, 5, 6, 7}, false, "out of order"},
		{"duplicate", []uint32{1, 2, 2, 3, 4, 5, 6, 7}, false, "out of order"},
		{"missing last update before destroy", []uint32{1, 2, 3, 4, 6, 7}, false, "no covering update"},
		{"missing last update at end of run", []uint32{1, 2, 3, 4, 5, 6}, false, "last update of item 9"},
		{"never sent", []uint32{1, 2, 3, 4, 5, 6, 7, 8}, false, "never sent"},
		{"reliable relation delivers all", []uint32{1, 2, 3, 4, 5, 6, 7}, true, ""},
		{"reliable relation purged something", []uint32{1, 5, 6, 7}, true, "not delivered under the reliable"},
	} {
		var v verdict
		checkReceiver("p1", oracleLog, c.delivered, c.reliable, &v)
		switch {
		case c.wantBad == "" && v.count != 0:
			t.Errorf("%s: unexpected violation: %s", c.name, v.first[0])
		case c.wantBad != "" && v.count == 0:
			t.Errorf("%s: oracle missed it", c.name)
		case c.wantBad != "" && !strings.Contains(v.first[0], c.wantBad):
			t.Errorf("%s: violation %q does not mention %q", c.name, v.first[0], c.wantBad)
		}
	}
}

// The looped stream must stay a well-formed k-enumeration stream: contiguous
// sequence numbers, every Update obsoleting exactly the item's previous
// Update of the same life when that is within the window, and nothing
// reaching beyond the window or across a Create/Destroy.
func TestStreamLoopStaysWithinWindow(t *testing.T) {
	p := trace.DefaultParams()
	p.Rounds, p.Seed = 600, 3
	tr := trace.Generate(p)
	st := newStream("p0", tr, true, 0)
	rel := obsolete.KEnumeration{K: kWindow}
	n := 3*len(tr.Events) + 17 // three wraps and a bit
	metas := make([]obsolete.Msg, 0, n)
	prevUpdate := map[uint32]int{} // item -> index of its latest update in this life
	for i := 0; i < n; i++ {
		meta, rec := st.next()
		if int(meta.Seq) != i+1 {
			t.Fatalf("message %d has seq %d", i, meta.Seq)
		}
		if len(meta.Annot) > kWindow/8 {
			t.Fatalf("seq %d: annotation of %d bytes exceeds the %d-bit window", meta.Seq, len(meta.Annot), kWindow)
		}
		metas = append(metas, meta)
		switch trace.EventKind(rec.kind) {
		case trace.Update:
			if j, ok := prevUpdate[rec.item]; ok {
				if want := i-j <= kWindow; rel.Obsoletes(metas[j], meta) != want {
					t.Fatalf("seq %d obsoletes previous update seq %d of item %d: got %v, want %v", meta.Seq, metas[j].Seq, rec.item, !want, want)
				}
			}
			prevUpdate[rec.item] = i
		default:
			delete(prevUpdate, rec.item)
			if len(meta.Annot) != 0 {
				t.Fatalf("seq %d (kind %d) is reliable but carries annotation %x", meta.Seq, rec.kind, meta.Annot)
			}
		}
		if i > kWindow && rel.Obsoletes(metas[i-kWindow-1], meta) {
			t.Fatalf("seq %d reaches %d messages back, beyond the window", meta.Seq, kWindow+1)
		}
	}
	if len(st.log) != n {
		t.Fatalf("stream logged %d messages, minted %d", len(st.log), n)
	}
}

// TestSmoke runs every workload once at 2 windows x 200 ms (one untraced,
// one traced) and the ladder once on a small budget. It asserts names, units
// and zero failed operations only — no timing.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	ladder := newMetricSet()
	if err := runLadder(ladder, 1, 600*time.Millisecond); err != nil {
		t.Fatalf("ladder: %v", err)
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, sp.Workloads[i].Name)
		}
		o := runOpts{seed: 1, windows: 2, window: 200 * time.Millisecond, warmup: 100 * time.Millisecond, setupReps: 1, traced: true}
		m, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if attempted, failed := m.operations(); failed != 0 || attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, failed, attempted, m.verdict.first)
		}
		layers := newMetricSet()
		m.workloadLayers(layers)
		for _, name := range ladder.names {
			layers.set(name, ladder.m[name].Value, ladder.m[name].Unit, 0)
		}
		for trace, ms := range []*metricSet{m.endToEnd(), layers} {
			if err := checkNames(sp, trace, &report{Metrics: ms.m}); err != nil {
				t.Errorf("%s trace=%d: %v", w.name, trace, err)
			}
			for name, v := range ms.m {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
			}
		}
	}
}
