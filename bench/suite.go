package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The full benchmark, --quick and the --aa noise protocol run every single
// run as a child process of this binary, the way the driver does: each run
// starts from a fresh heap and a fresh scheduler.

// spec mirrors the parts of BENCHMARK.json the suite reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// specPath is where BENCHMARK.json is when run from the repository root.
const specPath = "BENCHMARK.json"

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// child runs one single run of this binary, echoing its report lines when
// show is set, and returns the parsed last line.
func child(show bool, args ...string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		last = sc.Text()
		if show && !strings.HasPrefix(last, "{") {
			fmt.Println("  " + last)
		}
	}
	_, _ = io.Copy(io.Discard, out) // a line beyond the scanner's limit: keep the child unblocked
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("%s: last line is not a report: %w", strings.Join(args, " "), err)
	}
	return &rep, nil
}

func (c cli) childArgs(w string, seed int64, trace int) []string {
	args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(c.seconds), "--trace", strconv.Itoa(trace)}
	if c.quick {
		args = append(args, "--quick")
	}
	if c.relation != "" {
		args = append(args, "--relation", c.relation)
	}
	return args
}

// runFull is the one command: the four workloads with tracing off, then the
// traced run and ladder of each, every metric printed by name with its
// unit, results and spans under bench/out/. --quick runs the untraced half
// only, at 2 windows of 1 s.
func runFull(c cli) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if c.quick {
		c.seconds = 2
	}
	passes := []int{0, 1}
	if c.quick {
		passes = passes[:1]
	}
	summary := make(map[string]map[string]metric)
	for _, trace := range passes {
		for _, w := range workloads {
			fmt.Printf("== %s  trace=%d seed=%d\n", w.name, trace, c.seed)
			rep, err := child(true, c.childArgs(w.name, c.seed, trace)...)
			if err != nil {
				return err
			}
			if err := checkNames(sp, trace, rep); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if summary[w.name] == nil {
				summary[w.name] = make(map[string]metric)
			}
			for name, v := range rep.Metrics {
				summary[w.name][name] = v
			}
		}
	}
	fmt.Printf("\n%-20s", "end-to-end")
	for _, w := range workloads {
		fmt.Printf(" %24s", w.name)
	}
	fmt.Println()
	for _, e := range sp.EndToEnd {
		fmt.Printf("%-20s", e.Name+" ["+e.Unit+"]")
		for _, w := range workloads {
			fmt.Printf(" %24.4f", summary[w.name][e.Name].Value)
		}
		fmt.Println()
	}
	blob, err := json.MarshalIndent(struct {
		Context string                       `json:"context"`
		Results map[string]map[string]metric `json:"results"`
	}{machineContext(c.seed), summary}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "summary.json"), append(blob, '\n'), 0o644)
}

// checkNames verifies a report carries exactly the metric names and units
// BENCHMARK.json declares for its kind of run.
func checkNames(sp *spec, trace int, rep *report) error {
	want := make(map[string]string)
	if trace == 1 {
		for _, p := range sp.PerLayer {
			want[p.Name] = p.Unit
		}
	} else {
		for _, e := range sp.EndToEnd {
			want[e.Name] = e.Unit
		}
	}
	for name, unit := range want {
		got, ok := rep.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not reported", name)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s reported in %q, declared in %q", name, got.Unit, unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s reported but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// Noise protocol limits (ISSUE 14): a bound must be at least three times the
// relative IQR of the metric over all runs and three times the gap between
// the two sets' medians, on every workload, and at most a tenth.
const (
	noiseFactor = 3.0
	maxBound    = 0.10
)

// runAA runs two interleaved sets, A and B, of N full untraced runs of the
// same code, each run on another seed, and checks every (workload,
// end-to-end metric) pair against its bound. A pair that fails is fixed in
// the harness or demoted to per-layer, never shipped with a wider bound.
func runAA(c cli) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	type key struct{ w, m string }
	vals := map[key][2][]float64{}
	for i := 0; i < c.aa; i++ {
		for set := 0; set < 2; set++ {
			seed := c.seed + int64(2*i+set)
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "aa: round %d/%d set %c %s seed=%d\n", i+1, c.aa, 'A'+set, w.name, seed)
				rep, err := child(false, c.childArgs(w.name, seed, 0)...)
				if err != nil {
					return err
				}
				for _, e := range sp.EndToEnd {
					v, ok := rep.Metrics[e.Name]
					if !ok {
						return fmt.Errorf("%s: metric %s not reported", w.name, e.Name)
					}
					k := key{w.name, e.Name}
					pair := vals[k]
					pair[set] = append(pair[set], v.Value)
					vals[k] = pair
				}
			}
		}
	}
	var table bytes.Buffer
	fmt.Fprintf(&table, "| workload | metric | unit | median | q1 | q3 | rel IQR | A/A gap | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range workloads {
		for _, e := range sp.EndToEnd {
			pair := vals[key{w.name, e.Name}]
			all := append(append([]float64(nil), pair[0]...), pair[1]...)
			med := median(all)
			q1, q3 := quartiles(all)
			noise := relIQR(all)
			gap := 0.0
			if med != 0 {
				gap = math.Abs(median(pair[0])-median(pair[1])) / math.Abs(med)
			}
			worst := math.Max(noise, gap)
			verdict := "ok"
			if e.Bound > maxBound || e.Bound < noiseFactor*worst {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(&table, "| %s | %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, e.Name, e.Unit, med, q1, q3, 100*noise, 100*gap, 100*e.Bound, verdict)
		}
	}
	fmt.Printf("A/A noise protocol: 2 sets x %d runs, --seconds %d, %s\n\n%s", c.aa, c.seconds, machineContext(c.seed), table.String())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "aa.md"), table.Bytes(), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("noise protocol: %d (workload, metric) pairs have a bound below %g x their relative IQR or A/A gap, or above %g", bad, noiseFactor, maxBound)
	}
	return nil
}
