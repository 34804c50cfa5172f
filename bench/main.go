// Command bench is the SVS benchmark: four long workloads driven through the
// live engine (core.Node / Group over MemNetwork and loopback TCPNetwork)
// from one process, two noise-bounded end-to-end metrics, a correctness
// oracle on every run, and — in a separate traced run — per-layer metrics
// from harness spans, Stats() samples and a single-goroutine layer ladder.
// BENCHMARK.json at the repository root declares the names; README.md in
// this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Run shape. A run is a fixed warm-up plus seconds/windowLen windows.
const (
	windowLen   = 2 * time.Second
	warmupLen   = 2 * time.Second
	setupReps   = 5
	defaultSecs = 24
	quickWindow = time.Second
	quickWarmup = 500 * time.Millisecond
	outDir      = "bench/out"
	ladderShare = 4 // a traced run spends 1/ladderShare of --seconds on the ladder
	// benchProcs is the benchmark's GOMAXPROCS, recorded with every result.
	// One P, not min(NumCPU, 4): on the 2-vCPU VM this repository is
	// measured on, every goroutine hand-off between two Ps is a futex wake
	// of a halted vCPU, whose cost swings with the host; at 2 Ps goodput,
	// latency and CPU per message spread 8-34 % between runs, at 1 P two to
	// three times less, and saturation goodput is higher. The price: engine,
	// sender and receivers never run in parallel, so contention between
	// cores is not measured.
	benchProcs = 1
)

// report is the last line of standard output of a single run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type cli struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	relation string
	aa       int
	quick    bool
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run one workload and print its result as one JSON line (default: the full benchmark)")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same message stream")
	flag.IntVar(&c.seconds, "seconds", defaultSecs, "measured seconds per run (2 s windows after a 2 s warm-up)")
	flag.IntVar(&c.trace, "trace", 0, "1: traced run, per-layer metrics and the ladder; 0: end-to-end metrics")
	flag.StringVar(&c.relation, "relation", "", "debugging: override the workload's relation with 'reliable' or 'game'")
	flag.IntVar(&c.aa, "aa", 0, "noise protocol: two interleaved sets of N full runs of the same code")
	flag.BoolVar(&c.quick, "quick", false, "2 windows of 1 s per workload, end-to-end only (CI smoke, < 15 s)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	runtime.GOMAXPROCS(benchProcs)
	var err error
	switch {
	case c.aa > 0:
		err = runAA(c)
	case c.workload == "":
		err = runFull(c)
	default:
		err = runSingle(c)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// options turns the command line into the shape of one run.
func (c cli) options() runOpts {
	o := runOpts{seed: c.seed, window: windowLen, warmup: warmupLen, setupReps: setupReps, traced: c.trace == 1}
	secs := time.Duration(c.seconds) * time.Second
	if c.quick {
		o.window, o.warmup, o.setupReps = quickWindow, quickWarmup, 1
	}
	if o.traced {
		secs -= secs / ladderShare
	}
	o.windows = int(secs / o.window)
	if o.traced {
		o.windows -= o.windows % 2 // traced and untraced windows pair up
	}
	if o.windows < 2 {
		o.windows = 2
	}
	return o
}

// runSingle is the driver contract: one workload, one seed, one JSON line.
func runSingle(c cli) error {
	w, ok := findWorkload(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	switch c.relation {
	case "":
	case "reliable":
		w.game = false
	case "game":
		w.game = true
	default:
		return fmt.Errorf("unknown relation %q", c.relation)
	}
	o := c.options()
	ctx := machineContext(c.seed)
	fmt.Printf("# %s seed=%d windows=%dx%v warmup=%v traced=%v relation=%s\n# %s\n",
		w.name, o.seed, o.windows, o.window, o.warmup, o.traced, w.relation().Name(), ctx)

	m, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	var ms *metricSet
	if o.traced {
		ms = newMetricSet()
		m.workloadLayers(ms)
		budget := time.Duration(c.seconds) * time.Second / ladderShare
		if c.quick {
			budget = time.Second
		}
		if err := runLadder(ms, c.seed, budget); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		if err := writeTrace(outDir, w.name, m.spanBufs()); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	} else {
		ms = m.endToEnd()
	}
	attempted, failed := m.operations()
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms.m}

	for _, name := range ms.names {
		v := ms.m[name]
		fmt.Printf("%-36s %14.4f %-7s", name, v.Value, v.Unit)
		if n := ms.n[name]; n > 0 {
			fmt.Printf(" (n=%d)", n)
		}
		fmt.Println()
	}
	if !o.traced {
		// Per-layer metrics (README.md, "What is not end-to-end"); printed
		// here for the reader, reported by name in a traced run.
		ws := m.perWindow(func(int) bool { return true })
		fmt.Printf("# goodput %.4f msgs/s, latency p50 %.4f us, CPU %.4f us/msg (medians of %d windows)\n",
			median(ws.goodput), median(ws.latP50Us), median(ws.cpuUs), len(ws.goodput))
	}
	if vc := sortedCopy(m.s.vcMs); len(vc) > 0 && !o.traced {
		fmt.Printf("# view changes in the windows: n=%d p50=%.4f ms p90=%.4f ms (per-layer in a traced run; highest percentile with >= 10 samples beyond: p%g)\n",
			len(vc), percentile(vc, 50), percentile(vc, 90), highestSupported(len(vc)))
	}
	for _, msg := range m.verdict.first {
		fmt.Printf("# VIOLATION: %s\n", msg)
	}
	if err := writeResult(w.name, o.traced, ctx, rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, failed, attempted)
	}
	return nil
}

// writeResult stores the run's report with its machine context under
// bench/out/.
func writeResult(workload string, traced bool, ctx string, rep report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	blob, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Context  string `json:"context"`
		report
	}{workload, ctx, rep}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result-"+workload+"-"+kind+".json"), append(blob, '\n'), 0o644)
}

// machineContext is recorded with every result: numbers from different
// machines or toolchains are not comparable.
func machineContext(seed int64) string {
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it where git is available
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("commit=%s go=%s gomaxprocs=%d cpu=%q seed=%d",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), cpuModel(), seed)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
