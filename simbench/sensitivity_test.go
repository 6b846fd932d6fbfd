package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func bound(t *testing.T, f benchmarkFile, metric string) float64 {
	t.Helper()
	for _, m := range f.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", metric)
	return 0
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return w
}

// sensitivityScale shrinks each input so one pass takes a fraction of a
// second.
const sensitivityScale = 8

// simRPSChange measures sim_rps on w with and without the hooks, alternating
// the two over reps passes each, and returns the relative change of the
// hooked median against the plain one (negative is slower). Every hooked
// pass must reproduce the plain output exactly: busy-work changes host time
// only.
func simRPSChange(t *testing.T, w *workload, h hooks, reps int) float64 {
	t.Helper()
	b := newBench(w, 1, 0, w.requests/sensitivityScale)
	b.timed("reference", b.opts(b.nproc), false)
	var plain, hooked []float64
	for i := 0; i < reps; i++ {
		s := b.timed("plain", b.opts(b.nproc), true)
		plain = append(plain, float64(s.requests)/s.wall.Seconds())
		o := b.opts(b.nproc)
		o.hooks = h
		s = b.timed("hooked", o, true)
		hooked = append(hooked, float64(s.requests)/s.wall.Seconds())
	}
	if len(b.problems) > 0 {
		t.Fatalf("%s: output checks failed: %v", w.name, b.problems)
	}
	change := median(hooked)/median(plain) - 1
	t.Logf("%s: sim_rps %.0f plain, %.0f hooked (%+.1f%%)", w.name, median(plain), median(hooked), 100*change)
	return change
}

// Busy-work in the benchmark's DesiredHardware wrapper is Algorithm 1 made
// slower: azure-grid, chosen for its per-tick selection work, must slow
// beyond the sim_rps bound, and twitter-clone-spot, which never runs
// Algorithm 1, must stay within it.
func TestSelectionDelayMovesAzureGridOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole simulations")
	}
	limit := bound(t, readBenchmarkFile(t), "sim_rps")
	h := hooks{selectSpin: 50 * time.Microsecond}
	if c := simRPSChange(t, mustWorkload(t, "azure-grid"), h, 5); c > -limit {
		t.Errorf("azure-grid sim_rps moved %+.1f%% with slower selection; want a fall beyond the %.0f%% bound",
			100*c, 100*limit)
	}
	if c := simRPSChange(t, mustWorkload(t, "twitter-clone-spot"), h, 5); math.Abs(c) > limit {
		t.Errorf("twitter-clone-spot sim_rps moved %+.1f%% with slower selection; want within the %.0f%% bound",
			100*c, 100*limit)
	}
}

// A per-event delay in the telemetry sink must slow twitter-spans, the only
// workload with a sink attached, beyond the bound and leave azure-grid
// within it.
func TestTelemetryDelayMovesTwitterSpansOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole simulations")
	}
	limit := bound(t, readBenchmarkFile(t), "sim_rps")
	h := hooks{sinkSpin: 2 * time.Microsecond}
	if c := simRPSChange(t, mustWorkload(t, "twitter-spans"), h, 5); c > -limit {
		t.Errorf("twitter-spans sim_rps moved %+.1f%% with a slower sink; want a fall beyond the %.0f%% bound",
			100*c, 100*limit)
	}
	if c := simRPSChange(t, mustWorkload(t, "azure-grid"), h, 5); math.Abs(c) > limit {
		t.Errorf("azure-grid sim_rps moved %+.1f%% with a slower sink; want within the %.0f%% bound",
			100*c, 100*limit)
	}
}

// Every workload, in both passes and at a small size, passes its output
// checks and reports exactly the metrics BENCHMARK.json declares.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole simulations")
	}
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, decl := range f.Workloads {
		w := mustWorkload(t, decl.Name)
		for _, traced := range []bool{false, true} {
			b := newBench(w, 2, 0, w.requests/50)
			var ms map[string]metric
			want := map[string]bool{}
			if traced {
				ms = b.layers()
				for _, m := range f.PerLayer {
					want[m.Name] = true
				}
			} else {
				ms = b.endToEnd()
				for _, m := range f.EndToEnd {
					want[m.Name] = true
				}
			}
			if len(b.problems) > 0 {
				t.Errorf("%s traced=%v: output checks failed: %v", w.name, traced, b.problems)
			}
			for name := range want {
				if _, ok := ms[name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				}
			}
			for name, m := range ms {
				if !want[name] {
					t.Errorf("%s traced=%v: metric %s not declared", w.name, traced, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}
