// Command simbench is the simulator's benchmark. For one workload it builds
// the inputs from a seed, runs them through the simulator's public entry
// points (shard.Run, core.RunMulti, core.Run) for a fixed host-time budget,
// checks the outputs and prints every metric by name and unit; the last line
// of standard output is one JSON object. Run it through run.sh, which builds
// it with the PGO profile the simulator ships with:
//
//	bash simbench/run.sh --workload azure-grid --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// attached; --trace 1 runs the traced pass, which times each layer's public
// seam, and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// heldOutSeed is the seed no tuning of this benchmark used: a later
// performance claim must also hold with --seed 777.
const heldOutSeed = 777

const (
	// minRuns is the least number of measured entry-point calls per run,
	// whatever the time budget.
	minRuns = 3
	// minSetups is the least number of set-up samples behind setup_s.
	minSetups = 11
	// checkDivisor sizes the invariant-checked pass at 1/checkDivisor of
	// one input's requests.
	checkDivisor = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: azure-grid, twitter-multi, twitter-clone-spot or twitter-spans")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "host seconds to keep measuring")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced pass, per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "simbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "simbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b := newBench(w, *seed, time.Duration(*seconds)*time.Second, w.requests)
	var ms map[string]metric
	if *traced == 1 {
		ms = b.layers()
	} else {
		ms = b.endToEnd()
	}
	b.print(ms, *traced == 1)
	if len(b.problems) > 0 {
		os.Exit(1)
	}
}

// batchInputs is how many inputs a run makes. Each measured pass runs all
// of them in turn: host metrics are taken over the whole batch and simulated
// statistics are medians over its inputs.
//
// Input i's rate curve has a fixed shape, drawn from shapePanelSeed — the
// benchmark's counterpart of the fixed trace samples the paper replays — and
// the run's seed drives every arrival drawn from it. The Twitter curve's
// regime jumps and the Azure curve's surge count move P99 and cost by
// several times from one shape to the next, so with seed-drawn shapes two
// runs' simulated statistics would mostly compare two different traces.
const batchInputs = 8

const shapePanelSeed = 1

// derive returns batchInputs seeds derived from root.
func derive(root uint64, kind string) []uint64 {
	rng := sim.NewRNG(root)
	seeds := make([]uint64, batchInputs)
	for i := range seeds {
		seeds[i] = rng.Child(fmt.Sprintf("%s-%d", kind, i)).Seed()
	}
	return seeds
}

// sample is one measured pass over the batch.
type sample struct {
	setup, wall, cpu time.Duration
	alloc, peak      uint64 // bytes allocated over the batch; largest live heap of any input
	requests         int
	outs             []outcome // per input, results dropped
}

type bench struct {
	w        *workload
	shapes   []uint64 // curve-shape seed per input
	seeds    []uint64 // arrival seed per input
	seed     uint64
	budget   time.Duration
	requests int // per input
	nproc    int
	heap     *heapPeak

	refs     []string // fingerprint of each input's reference output
	arrivals []int    // arrivals each input's streams hold
	duration time.Duration

	attempted, failed int
	problems          []string
	notes             []string
}

func newBench(w *workload, seed uint64, budget time.Duration, requests int) *bench {
	return &bench{w: w, seed: seed, budget: budget, requests: requests,
		shapes: derive(shapePanelSeed, "shape"), seeds: derive(seed, "input"),
		nproc: runtime.NumCPU(), heap: newHeapPeak()}
}

func (b *bench) opts(workers int) opts {
	return opts{requests: b.requests, workers: workers}
}

// prepareBatch prepares every input of the batch and times it: one set-up
// sample.
func (b *bench) prepareBatch(o opts) ([]prepared, time.Duration) {
	runtime.GC()
	start := time.Now()
	ps := make([]prepared, len(b.seeds))
	for i := range ps {
		o.shape, o.seed = b.shapes[i], b.seeds[i]
		ps[i] = b.w.prepare(o)
	}
	return ps, time.Since(start)
}

// timed prepares the batch's inputs, then runs them one entry-point call
// each, measuring both; label names the pass in failed checks. With compare
// unset the outputs become the reference the later passes must reproduce.
func (b *bench) timed(label string, o opts, compare bool) sample {
	ps, setup := b.prepareBatch(o)
	s := sample{setup: setup}
	if !compare {
		b.refs = make([]string, len(ps))
		b.arrivals = make([]int, len(ps))
		for i, p := range ps {
			b.arrivals[i] = p.arrivals()
			b.duration += p.duration
		}
	}
	for i, p := range ps {
		ps[i] = prepared{}
		runtime.GC()
		a0 := allocated()
		b.heap.start()
		c0 := cpuTime()
		t1 := time.Now()
		out := p.run()
		s.wall += time.Since(t1)
		s.cpu += cpuTime() - c0
		s.alloc += allocated() - a0
		if peak := b.heap.stop(); peak > s.peak {
			s.peak = peak
		}
		s.requests += out.stats.Requests
		fp := fingerprint(out.result)
		out.result = nil
		if !compare {
			b.refs[i] = fp
		}
		b.verify(fmt.Sprintf("%s, input %d", label, i), out, b.arrivals[i], fp == b.refs[i])
		s.outs = append(s.outs, out)
	}
	return s
}

// verify applies the output checks to one call: the run's own checks,
// conservation (every arrival the streams hold is recorded, completed or
// failed) and identity with the reference output.
func (b *bench) verify(label string, out outcome, arrivals int, same bool) {
	b.attempted++
	bad := out.problems
	if out.stats.Requests != arrivals {
		bad = append(bad, fmt.Sprintf("%d requests recorded (%d failed) for %d arrivals",
			out.stats.Requests, out.stats.Failed, arrivals))
	}
	if !same {
		bad = append(bad, "output differs from the reference run")
	}
	b.fail(label, bad...)
}

func (b *bench) fail(label string, problems ...string) {
	if len(problems) == 0 {
		return
	}
	b.failed++
	for _, p := range problems {
		b.problems = append(b.problems, label+": "+p)
	}
}

// reference makes the unmeasured first pass, which also warms the process,
// and the invariant-checked pass. On azure-grid the reference runs at one
// worker, so every measured call at nproc workers is checked against the
// single-worker output.
func (b *bench) reference() {
	workers := b.nproc
	if b.w.sharded {
		workers = 1
	}
	b.timed(fmt.Sprintf("reference (%d worker)", workers), b.opts(workers), false)

	o := b.opts(b.nproc)
	o.shape, o.seed = b.shapes[0], b.seeds[0]
	o.requests = b.requests / checkDivisor
	o.check = true
	p := b.w.prepare(o)
	b.attempted++
	out := p.run()
	if n := p.arrivals(); out.stats.Requests != n {
		out.problems = append(out.problems, fmt.Sprintf("%d requests recorded for %d arrivals", out.stats.Requests, n))
	}
	b.fail("invariant pass", out.problems...)
}

// endToEnd measures untraced passes until the budget is spent.
func (b *bench) endToEnd() map[string]metric {
	b.reference()
	var runs []sample
	for start := time.Now(); len(runs) < minRuns || time.Since(start) < b.budget; {
		runs = append(runs, b.timed(fmt.Sprintf("pass %d", len(runs)+1), b.opts(b.nproc), true))
	}
	var setups, rps, cpu, peak, alloc []float64
	for _, s := range runs {
		n := float64(s.requests)
		setups = append(setups, s.setup.Seconds())
		rps = append(rps, n/s.wall.Seconds())
		cpu = append(cpu, float64(s.cpu.Nanoseconds())/1e3/n)
		peak = append(peak, float64(s.peak)/(1<<20))
		alloc = append(alloc, float64(s.alloc)/(1<<20))
	}
	for len(setups) < minSetups {
		_, setup := b.prepareBatch(b.opts(b.nproc))
		setups = append(setups, setup.Seconds())
	}
	// Dollars and SLO compliance pool over the batch; percentiles do not
	// pool, so P50 and P99 are medians over the inputs.
	var p50, p99 []float64
	var cost float64
	served, inSLO, total := 0, 0.0, 0
	for _, o := range runs[0].outs {
		p50 = append(p50, o.stats.P50ms)
		p99 = append(p99, o.stats.P99ms)
		cost += o.stats.CostUSD
		served += o.stats.Requests - o.stats.Failed
		inSLO += o.stats.SLOPct / 100 * float64(o.stats.Requests)
		total += o.stats.Requests
	}
	b.notes = append(b.notes,
		fmt.Sprintf("passes %d; sim_rps per pass %s; cpu_us_per_req per pass %s", len(runs), spreadOf(rps), spreadOf(cpu)),
		fmt.Sprintf("per input: p50_ms %.4g; p99_ms %.4g", p50, p99))
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"sim_rps":        {median(rps), "1/s"},
		"cpu_us_per_req": {median(cpu), "us"},
		"peak_heap_mib":  {median(peak), "MiB"},
		"alloc_mib":      {median(alloc), "MiB"},
		"slo_pct":        {100 * inSLO / float64(total), "%"},
		"p50_ms":         {median(p50), "ms"},
		"p99_ms":         {median(p99), "ms"},
		"cost_usd":       {cost, "USD"},
		"served_pct":     {100 * float64(served) / float64(total), "%"},
	}
}

// spreadOf summarizes samples as min, quartiles and max.
func spreadOf(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", s[0], q(0.25), median(s), q(0.75), s[len(s)-1])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// print writes the human-readable report and, last, the JSON result line.
func (b *bench) print(ms map[string]metric, traced bool) {
	prov := b.provenance(traced)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range b.notes {
		fmt.Println("note", n)
	}
	for _, p := range b.problems {
		fmt.Println("FAILED", p)
	}
	out, err := json.Marshal(result{Correct: len(b.problems) == 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// provenance records which build, host and inputs produced the result.
func (b *bench) provenance(traced bool) map[string]any {
	p := map[string]any{
		"workload":        b.w.name,
		"seed":            b.seed,
		"held_out_seed":   heldOutSeed,
		"traced":          traced,
		"inputs":          len(b.seeds),
		"requests":        sum(b.arrivals),
		"virtual_seconds": b.duration.Seconds(),
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           b.nproc,
		"pgo":             false,
		"vcs_revision":    "unknown",
		"vcs_modified":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "-pgo":
				p["pgo"] = s.Value != "" && s.Value != "off"
				if i := strings.LastIndex(s.Value, "/cmd/"); i >= 0 {
					p["pgo_profile"] = s.Value[i+1:]
				}
			case "vcs.revision":
				p["vcs_revision"] = s.Value
			case "vcs.modified":
				p["vcs_modified"] = s.Value
			}
		}
	}
	return p
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
