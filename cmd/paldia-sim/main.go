// Command paldia-sim runs one serving simulation — a scheme serving a model
// under a trace on the simulated heterogeneous cluster — and prints the full
// metric panel (SLO compliance, latency percentiles, tail breakdown, cost,
// power, utilization, cold starts).
//
// Examples:
//
//	paldia-sim -model "ResNet 50" -scheme paldia
//	paldia-sim -model "VGG 19" -scheme molecule-cost -trace azure -duration 5m
//	paldia-sim -model BERT -scheme all -trace azure -peak 8
//	paldia-sim -model "ResNet 50" -trace wikipedia -forecaster seasonal
//
// Streaming mode (-stream) realizes arrivals lazily from the rate curve and
// aggregates metrics in constant memory, so multi-million-request runs never
// materialize a trace or a per-request record slice:
//
//	paldia-sim -stream -requests 1000000 -max-heap-mib 256
//
// Live mode (-serve) replays the run against the wall clock and serves the
// observability plane while it happens — an embedded dashboard at /, a
// Prometheus text scrape at /metrics, a JSON snapshot at /state and an SSE
// telemetry feed at /events; -speedup paces virtual against wall time,
// -linger keeps serving after the replay, and -progress prints one-line
// reports from the same thread-safe snapshots. -fail-every/-fail-for inject
// periodic node outages and -objective tightens the burn-rate error budget:
//
//	paldia-sim -serve :8080 -speedup 60 -progress 2s
//	paldia-sim -serve :8080 -speedup 60 -fail-every 40s -fail-for 10s -objective 0.999
//
// Telemetry (single-scheme runs): -trace-out writes a Chrome trace_event
// timeline (chrome://tracing, Perfetto) plus a derived series CSV;
// -spans-out / -events-out / -series-out / -timeline-svg export the other
// views; -sample sets the gauge sampling cadence.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		modelName = flag.String("model", "ResNet 50", "workload model name (see -list)")
		schemeArg = flag.String("scheme", "paldia", "scheme: paldia, oracle, infless-cost, infless-perf, molecule-cost, molecule-perf, or all")
		traceName = flag.String("trace", "azure", "trace: azure, wikipedia, twitter, poisson, stable, or file:PATH (paldia-trace -dump format)")
		peak      = flag.Float64("peak", 0, "peak rps (0 = paper default for the model)")
		duration  = flag.Duration("duration", 0, "trace duration (0 = trace default)")
		seed      = flag.Uint64("seed", 42, "random seed")
		slo       = flag.Duration("slo", core.DefaultSLO, "per-request SLO")
		forecast  = flag.String("forecaster", "", "rate forecaster: "+strings.Join(predict.Names(), ", ")+" (empty = ewma; ignored by clairvoyant schemes)")
		list      = flag.Bool("list", false, "list models and exit")
		timeline  = flag.Bool("timeline", false, "print per-30s violation counts")
		csvPath   = flag.String("csv", "", "write per-request records to this CSV file (single-scheme runs)")
		jobs      = flag.Int("j", 1, "concurrent scheme simulations (useful with -scheme all); output is identical at any -j")

		stream     = flag.Bool("stream", false, "realize arrivals lazily from the rate curve with constant-memory metrics (no per-request records)")
		requests   = flag.Int("requests", 0, "with -stream: size the trace so ~N requests arrive in expectation (overrides -duration)")
		maxHeapMiB = flag.Int("max-heap-mib", 0, "fail if sampled heap (runtime HeapAlloc) ever exceeds this many MiB (0 = no limit)")

		tenants = flag.Int("tenants", 1, "partition the workload into this many independent tenant lanes (the logical decomposition; implies -stream when >1)")
		shards  = flag.Int("shards", 1, "worker goroutines executing tenant lanes (0 = all cores); changes wall-clock only, never output")
		check   = flag.Bool("check", false, "run the runtime invariant checker alongside the simulation; fail on any violation")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")

		failEvery = flag.Duration("fail-every", 0, "inject a node failure on this virtual-time period (0 = none)")
		failFor   = flag.Duration("fail-for", 10*time.Second, "how long each injected node failure lasts")

		cloneK       = flag.Int("clone-k", 0, "dispatch k racing copies of every batch on k distinct GPU pools, cancel-on-first-complete (0 = off; overrides -scheme)")
		cloneSync    = flag.Bool("clone-sync", false, "with -clone-k: synchronized-service cloning — complete only when every copy finishes")
		hedgePct     = flag.Float64("hedge-pct", 0, "launch a backup copy once a request's age crosses this online completion-latency percentile (0 = off; overrides -scheme)")
		spotDiscount = flag.Float64("spot-discount", 0, "bill spot nodes at (1-discount) of the catalog rate (0 = all on-demand)")
		spotFraction = flag.Float64("spot-fraction", 0, "fraction of capacity on revocable spot nodes (plain schemes: any positive value makes the serving node spot)")
		revokeEvery  = flag.Duration("revoke-every", 0, "inject a spot revocation on this virtual-time period (0 = none; needs -spot-discount and -spot-fraction)")
		revokeNotice = flag.Duration("revoke-notice", 2*time.Second, "drain notice between a revocation and its kill")

		serveAddr  = flag.String("serve", "", "serve the live observability plane on this address (e.g. :8080) while replaying; implies -stream")
		speedup    = flag.Float64("speedup", 0, "with -serve: virtual seconds replayed per wall second (0 = as fast as possible)")
		objective  = flag.Float64("objective", 0.99, "with -serve/-progress: SLO-compliance objective whose complement is the burn-rate error budget")
		linger     = flag.Duration("linger", 0, "with -serve: keep serving this long after the replay finishes")
		progressIv = flag.Duration("progress", 0, "print a one-line progress report on this wall-clock cadence; implies -stream")

		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON timeline (also derives a series CSV next to it)")
		spansOut    = flag.String("spans-out", "", "write per-request spans as JSONL")
		eventsOut   = flag.String("events-out", "", "write every telemetry event as JSONL")
		seriesOut   = flag.String("series-out", "", "write sampled time series as CSV")
		timelineSVG = flag.String("timeline-svg", "", "render the sampled series as an SVG chart")
		sampleEvery = flag.Duration("sample", time.Second, "telemetry gauge sampling cadence (virtual time)")
	)
	flag.Parse()

	if *list {
		for _, m := range model.Catalog() {
			fmt.Printf("%-20s %-9s maxBatch=%-4d peak=%.0frps\n",
				m.Name, m.Domain, m.MaxBatch, m.DefaultPeakRPS())
		}
		return
	}

	m, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q (try -list)\n", *modelName)
		os.Exit(1)
	}
	if _, err := predict.NewByName(*forecast, time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	red := redFlags{
		cloneK: *cloneK, cloneSync: *cloneSync, hedgePct: *hedgePct,
		spotDiscount: *spotDiscount, spotFraction: *spotFraction,
		revokeEvery: *revokeEvery, revokeNotice: *revokeNotice,
	}
	if err := red.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if *peak == 0 {
		*peak = m.DefaultPeakRPS()
	}

	heap := watchHeap(*maxHeapMiB)
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	// The live plane, the progress line and the tenant grid all ride the
	// streaming path: that is where the shared Online aggregator and the
	// arrival stream live.
	if *serveAddr != "" || *progressIv > 0 || *tenants > 1 {
		*stream = true
	}
	if *tenants < 1 {
		fmt.Fprintln(os.Stderr, "-tenants must be at least 1")
		os.Exit(1)
	}

	if *stream {
		if *csvPath != "" || *timeline || *traceOut != "" {
			fmt.Fprintln(os.Stderr, "-stream keeps no per-request records; -csv, -timeline and -trace-out need a materialized run")
			os.Exit(1)
		}
		runStream(streamRun{
			model: m, trace: *traceName, peak: *peak, dur: *duration,
			requests: *requests, seed: *seed, slo: *slo, schemeArg: *schemeArg,
			forecaster: *forecast,
			jobs:       *jobs, spansOut: *spansOut, eventsOut: *eventsOut,
			seriesOut: *seriesOut, svgOut: *timelineSVG, sample: *sampleEvery,
			serve: *serveAddr, speedup: *speedup, linger: *linger,
			progress: *progressIv, objective: *objective,
			failEvery: *failEvery, failFor: *failFor, red: red,
			tenants: *tenants, shards: *shards, check: *check,
		})
		heap.report()
		return
	}

	rng := sim.NewRNG(*seed)
	tr := buildTrace(rng, *traceName, *peak, *duration)
	fmt.Printf("trace %s: %d requests, mean %.1f rps, peak %.0f rps (1s windows)\n\n",
		tr.Name, tr.Count(), tr.MeanRPS(), tr.PeakRPS(time.Second))

	telemetryOn := *traceOut != "" || *spansOut != "" || *eventsOut != "" ||
		*seriesOut != "" || *timelineSVG != ""
	schemes := red.schemes(pickSchemes(*schemeArg))
	if telemetryOn && len(schemes) > 1 {
		fmt.Fprintln(os.Stderr, "telemetry flags (-trace-out, -spans-out, ...) require a single scheme, not -scheme all")
		os.Exit(1)
	}

	// Every scheme is an independent simulation; -j fans them out over a
	// shared pool. Results are collected by index and printed in scheme
	// order, so the output is byte-identical at any parallelism.
	var pool *experiments.Pool
	if *jobs > 1 {
		pool = experiments.NewPool(*jobs)
	}
	results := make([]core.Result, len(schemes))
	recs := make([]*telemetry.Recorder, len(schemes))
	checks := make([]*invariant.Checker, len(schemes))
	schemeCfg := func(i int) core.Config {
		cfg := core.Config{
			Model:           m,
			Trace:           tr,
			Scheme:          schemes[i],
			SLO:             *slo,
			Seed:            *seed,
			Forecaster:      *forecast,
			FailureEvery:    *failEvery,
			FailureDuration: *failFor,
		}
		red.apply(&cfg)
		return cfg
	}
	for i := range schemes {
		mustValidate(schemeCfg(i))
	}
	pool.Map(len(schemes), func(i int) {
		cfg := schemeCfg(i)
		if telemetryOn {
			recs[i] = telemetry.NewRecorder()
			cfg.Telemetry = recs[i]
			cfg.SampleEvery = *sampleEvery
		}
		if *check {
			checks[i] = invariant.New()
			cfg.Invariants = checks[i]
		}
		results[i] = core.Run(cfg)
	})
	reportInvariants(checks)

	for i, res := range results {
		printResult(res)
		if *timeline {
			printTimeline(res, tr.Duration)
		}
		if *csvPath != "" {
			if err := writeCSV(*csvPath, res); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", res.Requests, *csvPath)
		}
		if rec := recs[i]; rec != nil {
			if err := writeTelemetry(rec, *traceOut, *spansOut, *eventsOut, *seriesOut, *timelineSVG); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
		}
	}
	heap.report()
}

// streamRun carries the flag values the streaming path needs.
type streamRun struct {
	model      model.Spec
	trace      string
	peak       float64
	dur        time.Duration
	requests   int
	seed       uint64
	slo        time.Duration
	schemeArg  string
	forecaster string
	jobs       int
	spansOut   string
	eventsOut  string
	seriesOut  string
	svgOut     string
	sample     time.Duration
	serve      string
	speedup    float64
	linger     time.Duration
	progress   time.Duration
	objective  float64
	failEvery  time.Duration
	failFor    time.Duration
	red        redFlags
	tenants    int
	shards     int
	check      bool
}

// redFlags carries the redundant-dispatch and spot-capacity flags.
type redFlags struct {
	cloneK       int
	cloneSync    bool
	hedgePct     float64
	spotDiscount float64
	spotFraction float64
	revokeEvery  time.Duration
	revokeNotice time.Duration
}

func (rf redFlags) validate() error {
	if rf.cloneK != 0 && (rf.cloneK < 2 || rf.cloneK > 3) {
		return fmt.Errorf("-clone-k must be 0, 2 or 3 (got %d)", rf.cloneK)
	}
	if rf.cloneK != 0 && rf.hedgePct != 0 {
		return fmt.Errorf("-clone-k and -hedge-pct are mutually exclusive")
	}
	if rf.hedgePct != 0 && !(rf.hedgePct > 0 && rf.hedgePct <= 100) {
		return fmt.Errorf("-hedge-pct must be in (0,100] (got %v)", rf.hedgePct)
	}
	if rf.revokeEvery > 0 && (rf.spotDiscount <= 0 || rf.spotFraction <= 0) {
		return fmt.Errorf("-revoke-every needs spot nodes: set -spot-discount and -spot-fraction")
	}
	return nil
}

// schemes replaces the -scheme selection with the redundant variant when
// -clone-k or -hedge-pct is set.
func (rf redFlags) schemes(base []core.Scheme) []core.Scheme {
	switch {
	case rf.cloneK != 0:
		return []core.Scheme{core.NewPaldiaCloneK(rf.cloneK, rf.cloneSync)}
	case rf.hedgePct != 0:
		return []core.Scheme{core.NewPaldiaHedged(rf.hedgePct)}
	}
	return base
}

// apply sets the spot-capacity knobs on one run config.
func (rf redFlags) apply(cfg *core.Config) {
	cfg.SpotDiscount = rf.spotDiscount
	cfg.SpotFraction = rf.spotFraction
	cfg.RevokeEvery = rf.revokeEvery
	cfg.RevokeNotice = rf.revokeNotice
}

// mustValidate refuses to run a config core.Config.Validate rejects: it
// prints the reasons and exits 1 before any simulation starts.
func mustValidate(cfg core.Config) {
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "invalid configuration: %v\n", err)
		os.Exit(1)
	}
}

// runStream is the constant-memory serving path: arrivals come one at a time
// from the rate curve (core.Config.Stream) and metrics aggregate online
// (core.MetricsOnline), so memory is independent of request count. Telemetry,
// when requested, goes through the flush-as-you-go StreamWriter instead of
// the buffering Recorder.
func runStream(o streamRun) {
	if o.tenants > 1 {
		runStreamGrid(o)
		return
	}
	rng := sim.NewRNG(o.seed)
	c := buildCurve(rng, o.trace, o.peak, o.dur, o.requests)
	fmt.Printf("curve %s: ~%.0f requests expected, mean %.1f rps, peak %.0f rps, %v\n\n",
		c.Name, c.ExpectedRequests(), c.MeanRPS(), c.PeakRPS(), c.Duration())

	schemes := o.red.schemes(pickSchemes(o.schemeArg))
	for _, s := range schemes {
		if s.Clairvoyant {
			fmt.Fprintf(os.Stderr, "scheme %s is clairvoyant and needs a materialized trace; drop -stream\n", s.Name())
			os.Exit(1)
		}
	}
	telemetryOn := o.spansOut != "" || o.eventsOut != "" || o.seriesOut != "" || o.svgOut != ""
	if telemetryOn && len(schemes) > 1 {
		fmt.Fprintln(os.Stderr, "telemetry flags (-spans-out, ...) require a single scheme, not -scheme all")
		os.Exit(1)
	}
	live := o.serve != "" || o.progress > 0
	if live && len(schemes) > 1 {
		fmt.Fprintln(os.Stderr, "-serve and -progress attach to a single run, not -scheme all")
		os.Exit(1)
	}

	var sw *telemetry.StreamWriter
	var files []*os.File
	if telemetryOn {
		open := func(path string) io.Writer {
			if path == "" {
				return nil
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
			files = append(files, f)
			return f
		}
		spansW, eventsW := open(o.spansOut), open(o.eventsOut)
		if spansW == nil {
			spansW = io.Discard
		}
		sw = telemetry.NewStreamWriter(spansW, eventsW)
	}

	// The live observability plane attaches through three read-only seams
	// (sink, pacer, shared aggregator), so the run's outputs are identical
	// with or without it; the HTTP server reads mid-run snapshots only.
	var (
		plane  *obs.Plane
		online *metrics.Online
		srv    *http.Server
	)
	if live {
		online = metrics.NewOnline(o.slo, c.Duration(), metrics.DefaultGoodputWindow)
		plane = obs.NewPlane(obs.Options{
			SLO: o.slo, Objective: o.objective, Online: online, Speedup: o.speedup,
		})
		if o.serve != "" {
			ln, err := net.Listen("tcp", o.serve)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				os.Exit(1)
			}
			srv = obs.NewServer(o.serve, plane)
			go func() {
				if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				}
			}()
			fmt.Fprintf(os.Stderr, "live plane on http://%s  (/ dashboard, /metrics, /state, /events)\n", ln.Addr())
		}
	}

	// Curve streams are reproducible: every c.Stream(rng) replays the same
	// seeded realization, so each scheme serves the identical arrival
	// sequence and -j parallelism changes nothing.
	streams := make([]trace.Stream, len(schemes))
	for i := range schemes {
		streams[i] = c.Stream(rng)
	}
	var pool *experiments.Pool
	if o.jobs > 1 {
		pool = experiments.NewPool(o.jobs)
	}
	results := make([]core.Result, len(schemes))
	checks := make([]*invariant.Checker, len(schemes))
	schemeCfg := func(i int) core.Config {
		cfg := core.Config{
			Model:           o.model,
			Stream:          streams[i],
			Scheme:          schemes[i],
			SLO:             o.slo,
			Seed:            o.seed,
			Forecaster:      o.forecaster,
			Metrics:         core.MetricsOnline,
			FailureEvery:    o.failEvery,
			FailureDuration: o.failFor,
		}
		o.red.apply(&cfg)
		return cfg
	}
	for i := range schemes {
		mustValidate(schemeCfg(i))
	}
	runOne := func(i int) {
		cfg := schemeCfg(i)
		if sw != nil {
			cfg.Telemetry = sw
			cfg.SampleEvery = o.sample
		}
		if plane != nil { // live => single scheme
			cfg.Telemetry = telemetry.Combine(cfg.Telemetry, plane.Sink())
			cfg.Pacer = plane.Pacer()
			cfg.Aggregator = online
			cfg.SampleEvery = o.sample
		}
		if o.check {
			checks[i] = invariant.New()
			cfg.Invariants = checks[i]
		}
		results[i] = core.Run(cfg)
	}
	stopProgress := startProgress(o.progress, online, plane, nil)
	pool.Map(len(schemes), runOne)
	stopProgress()
	reportInvariants(checks)
	if plane != nil {
		plane.MarkDone()
		if o.linger > 0 {
			fmt.Fprintf(os.Stderr, "replay done; serving for another %v\n", o.linger)
			time.Sleep(o.linger)
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		cancel()
	}
	for _, res := range results {
		printResult(res)
	}

	if sw != nil {
		if err := sw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		if o.spansOut != "" {
			fmt.Fprintf(os.Stderr, "wrote %d spans to %s (peak %d in flight)\n",
				sw.SpansWritten(), o.spansOut, sw.PeakInFlight())
		}
		if o.eventsOut != "" {
			fmt.Fprintf(os.Stderr, "wrote events to %s\n", o.eventsOut)
		}
		writeSet := func(path, what string, fn func(f *os.File) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err == nil {
				if err = fn(f); err == nil {
					err = f.Close()
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
		}
		writeSet(o.seriesOut, "series", func(f *os.File) error { return sw.Series().WriteCSV(f) })
		writeSet(o.svgOut, "series timeline SVG", func(f *os.File) error {
			return sw.Series().TimelineSVG(f, "sampled runtime series")
		})
		for _, f := range files {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// runStreamGrid is the sharded multi-tenant path: the rate curve is
// partitioned into `-tenants` independent lanes (a workload decision fixed
// before any execution), each lane runs as its own constant-memory streaming
// simulation, and `-shards` worker goroutines execute them under the
// conservative virtual-time barrier. Worker count changes wall-clock only:
// per-lane trajectories, the merged telemetry and the aggregate panel are
// byte-identical at any -shards.
func runStreamGrid(o streamRun) {
	rng := sim.NewRNG(o.seed)
	c := buildCurve(rng, o.trace, o.peak, o.dur, o.requests)
	workers := o.shards
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > o.tenants {
		workers = o.tenants
	}
	fmt.Printf("curve %s: ~%.0f requests expected, mean %.1f rps, peak %.0f rps, %v\n",
		c.Name, c.ExpectedRequests(), c.MeanRPS(), c.PeakRPS(), c.Duration())
	// The lane decomposition is part of the workload, so it prints to
	// stdout; the worker count is an execution detail that must not vary
	// the output, so it goes to stderr.
	fmt.Printf("grid: %d tenant lanes at 1/%d rate each\n\n", o.tenants, o.tenants)
	fmt.Fprintf(os.Stderr, "executing %d lanes on %d workers, lookahead %v\n",
		o.tenants, workers, shard.DefaultLookahead())

	gridSchemes := o.red.schemes(pickSchemes(o.schemeArg))
	if len(gridSchemes) > 1 {
		fmt.Fprintln(os.Stderr, "-tenants runs a single scheme per grid, not -scheme all")
		os.Exit(1)
	}
	if gridSchemes[0].Clairvoyant {
		fmt.Fprintf(os.Stderr, "clairvoyant schemes need a materialized trace; drop -stream/-tenants\n")
		os.Exit(1)
	}

	telemetryOn := o.spansOut != "" || o.eventsOut != "" || o.seriesOut != "" || o.svgOut != ""
	live := o.serve != "" || o.progress > 0

	var files []*os.File
	open := func(path string) io.Writer {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		files = append(files, f)
		return f
	}
	var mw *telemetry.MergeWriter
	if telemetryOn {
		spansW, eventsW := open(o.spansOut), open(o.eventsOut)
		if spansW == nil {
			spansW = io.Discard
		}
		mw = telemetry.NewMergeWriter(spansW, eventsW, o.tenants)
	}

	// The live plane attaches exactly as in the single-lane path — sink,
	// pacer, shared aggregator — all concurrency-safe and read-only toward
	// the simulation, so a sharded -serve perturbs nothing. Lane feeds into
	// the hub carry the lane index as Tenant so spans don't collide.
	var (
		plane  *obs.Plane
		online *metrics.Online
		srv    *http.Server
	)
	if live {
		online = metrics.NewOnline(o.slo, c.Duration(), metrics.DefaultGoodputWindow)
		plane = obs.NewPlane(obs.Options{
			SLO: o.slo, Objective: o.objective, Online: online, Speedup: o.speedup,
		})
		if o.serve != "" {
			ln, err := net.Listen("tcp", o.serve)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				os.Exit(1)
			}
			srv = obs.NewServer(o.serve, plane)
			go func() {
				if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				}
			}()
			fmt.Fprintf(os.Stderr, "live plane on http://%s  (/ dashboard, /metrics, /state, /events)\n", ln.Addr())
		}
	}

	lanes := c.Partition(o.tenants)
	cfgs := make([]core.Config, o.tenants)
	checks := make([]*invariant.Checker, o.tenants)
	for i, lane := range lanes {
		cfg := core.Config{
			Model:           o.model,
			Stream:          lane.Stream(rng),
			Scheme:          gridSchemes[0],
			SLO:             o.slo,
			Seed:            o.seed,
			Forecaster:      o.forecaster,
			Metrics:         core.MetricsOnline,
			FailureEvery:    o.failEvery,
			FailureDuration: o.failFor,
		}
		o.red.apply(&cfg)
		mustValidate(cfg)
		if mw != nil {
			cfg.Telemetry = mw.Lane(i)
			cfg.SampleEvery = o.sample
		}
		if plane != nil {
			// Each lane keeps its own Online (the Result's primary) and
			// mirrors every record into the plane's shared aggregator.
			cfg.Aggregator = metrics.NewTee(
				metrics.NewOnline(o.slo, c.Duration(), metrics.DefaultGoodputWindow), online)
			cfg.Telemetry = telemetry.Combine(cfg.Telemetry, telemetry.WithTenant(plane.Sink(), i))
			cfg.Pacer = plane.Pacer()
			cfg.SampleEvery = o.sample
		}
		if o.check {
			checks[i] = invariant.New()
			cfg.Invariants = checks[i]
		}
		cfgs[i] = cfg
	}

	board := shard.NewVTBoard(o.tenants)
	stopProgress := startProgress(o.progress, online, plane, board)
	results := shard.Run(cfgs, shard.Options{
		Shards: workers, Merge: mw, Board: board,
	})
	stopProgress()
	reportInvariants(checks)
	if plane != nil {
		plane.MarkDone()
		if o.linger > 0 {
			fmt.Fprintf(os.Stderr, "replay done; serving for another %v\n", o.linger)
			time.Sleep(o.linger)
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		cancel()
	}

	agg := shard.Aggregate(results, o.slo)
	printResult(agg)
	fmt.Println("  per-tenant lanes:")
	for i, r := range results {
		fmt.Printf("    tenant %-3d requests %-8d compliance %6.2f%%  p99 %-10v cost $%.4f\n",
			i, r.Requests, r.SLOCompliance*100, r.P99, r.Cost)
	}
	fmt.Println()

	if mw != nil {
		if err := mw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		if o.spansOut != "" {
			fmt.Fprintf(os.Stderr, "wrote %d spans to %s (peak %d queued per lane)\n",
				mw.SpansWritten(), o.spansOut, mw.PeakQueued())
		}
		if o.eventsOut != "" {
			fmt.Fprintf(os.Stderr, "wrote events to %s\n", o.eventsOut)
		}
		writeSet := func(path, what string, fn func(f *os.File) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err == nil {
				if err = fn(f); err == nil {
					err = f.Close()
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
		}
		writeSet(o.seriesOut, "series", func(f *os.File) error { return mw.Series().WriteCSV(f) })
		writeSet(o.svgOut, "series timeline SVG", func(f *os.File) error {
			return mw.Series().TimelineSVG(f, "sampled runtime series")
		})
		for _, f := range files {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// reportInvariants prints any -check violations and exits non-zero; nil
// entries (checking disabled) are skipped.
func reportInvariants(checks []*invariant.Checker) {
	bad := false
	for i, chk := range checks {
		if chk == nil {
			continue
		}
		if err := chk.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "invariants (run %d):\n%v\n", i, err)
			bad = true
		}
	}
	if bad {
		os.Exit(3)
	}
}

// startProfiles starts a CPU profile and arranges for an allocation profile
// at exit; either path may be empty. The returned stop function finishes
// both.
func startProfiles(cpuPath, memPath string) func() {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote cpu profile to %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote allocation profile to %s\n", memPath)
		}
	}
}

// buildCurve builds the unrealized rate curve for -stream. With nReq > 0 the
// duration is sized so ~nReq requests arrive in expectation (a first pass at
// the default duration estimates the curve's mean rate).
func buildCurve(rng *sim.RNG, name string, peak float64, dur time.Duration, nReq int) *trace.Curve {
	mk := func(d time.Duration) *trace.Curve {
		switch name {
		case "azure":
			if d == 0 {
				d = trace.AzureDuration
			}
			return trace.AzureCurve(rng, peak, d)
		case "twitter":
			if d == 0 {
				d = trace.TwitterDuration
			}
			return trace.TwitterCurve(rng, peak/5, d)
		case "poisson":
			if d == 0 {
				d = 10 * time.Minute
			}
			return trace.PoissonCurve(rng, peak, d)
		case "stable":
			if d == 0 {
				d = 10 * time.Minute
			}
			return trace.StableCurve(rng, peak, d)
		default:
			fmt.Fprintf(os.Stderr, "trace %q cannot stream; -stream supports azure, twitter, poisson, stable\n", name)
			os.Exit(1)
			return nil
		}
	}
	c := mk(dur)
	// The curve's mean rate is itself a function of duration (surge count and
	// shape are realized per bucket), so sizing for a request count is a fixed
	// point: re-derive the duration from the latest realized mean until it
	// settles. A few rounds land within a couple percent of nReq.
	for i := 0; nReq > 0 && i < 4; i++ {
		d := trace.DurationForRequests(nReq, c.MeanRPS())
		if d == c.Duration() {
			break
		}
		c = mk(d)
	}
	return c
}

// heapWatch samples runtime.MemStats in the background. If HeapAlloc ever
// exceeds the limit the process fails immediately — the scale-smoke CI
// contract — and the observed peak is reported at exit either way.
type heapWatch struct {
	limit uint64
	peak  atomic.Uint64
	stop  chan struct{}
}

// startProgress prints a one-line report to stderr on a wall-clock cadence,
// reading only thread-safe snapshots (metrics.Online.Snapshot, the replay
// driver, and the shard board's atomics), so the run itself is untouched.
// With a board (sharded grids) the line also reports the slowest lane's
// virtual time and the fastest-to-slowest lag — bounded by the lookahead
// while the barrier loop runs. The returned function stops the reporter and
// waits for it to exit. A non-positive cadence is a no-op.
func startProgress(every time.Duration, online *metrics.Online, plane *obs.Plane, board *shard.VTBoard) func() {
	if every <= 0 || online == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s := online.Snapshot()
				runtime.ReadMemStats(&ms)
				var vt time.Duration
				if plane != nil {
					vt = plane.Driver().VirtualNow()
				}
				lag := ""
				if board != nil {
					lo, hi := board.Bounds()
					lag = fmt.Sprintf(" vt-slowest=%v shard-lag=%v",
						lo.Round(time.Second), (hi - lo).Round(time.Millisecond))
				}
				fmt.Fprintf(os.Stderr,
					"progress: vt=%v requests=%d compliance=%.2f%% p99=%v heap=%dMiB%s\n",
					vt.Round(time.Second), s.Count, 100*s.Compliance,
					s.P99.Round(time.Millisecond), ms.HeapAlloc>>20, lag)
			}
		}
	}()
	return func() { close(stop); <-done }
}

func watchHeap(limitMiB int) *heapWatch {
	if limitMiB <= 0 {
		return nil
	}
	w := &heapWatch{limit: uint64(limitMiB) << 20, stop: make(chan struct{})}
	// Pace the GC against the ceiling rather than GOGC's 2x-live default:
	// without this the watcher trips on floating garbage whenever live state
	// passes half the limit, even though the live set fits comfortably. If
	// live state genuinely exceeds the limit the GC cannot hold HeapAlloc
	// under it and the watcher still fires.
	debug.SetMemoryLimit(int64(w.limit))
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak.Load() {
					w.peak.Store(ms.HeapAlloc)
				}
				if ms.HeapAlloc > w.limit {
					fmt.Fprintf(os.Stderr, "heap %d MiB exceeded -max-heap-mib %d\n",
						ms.HeapAlloc>>20, w.limit>>20)
					os.Exit(2)
				}
			}
		}
	}()
	return w
}

// report stops the watcher, folds in one final reading (a spike between the
// last tick and exit must not escape the ceiling), and prints the peak; nil
// receivers (no limit set) do nothing, so the call sites stay unconditional.
func (w *heapWatch) report() {
	if w == nil {
		return
	}
	close(w.stop)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > w.peak.Load() {
		w.peak.Store(ms.HeapAlloc)
	}
	fmt.Fprintf(os.Stderr, "peak heap %d MiB (limit %d MiB)\n", w.peak.Load()>>20, w.limit>>20)
	if w.peak.Load() > w.limit {
		fmt.Fprintf(os.Stderr, "heap exceeded -max-heap-mib %d\n", w.limit>>20)
		os.Exit(2)
	}
}

// writeTelemetry exports the recorder's views to every requested path. A
// -trace-out without -series-out also writes the sampled series next to the
// trace (<name>_series.csv), so one flag yields both timeline artifacts.
func writeTelemetry(rec *telemetry.Recorder, traceOut, spansOut, eventsOut, seriesOut, svgOut string) error {
	write := func(path, what string, fn func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
		return nil
	}
	if seriesOut == "" && traceOut != "" && rec.Series().Len() > 0 {
		seriesOut = strings.TrimSuffix(traceOut, filepath.Ext(traceOut)) + "_series.csv"
	}
	if err := write(traceOut, "Chrome trace", func(f *os.File) error {
		return rec.WriteChromeTrace(f)
	}); err != nil {
		return err
	}
	if err := write(spansOut, fmt.Sprintf("%d spans", len(rec.Spans())), func(f *os.File) error {
		return rec.WriteSpansJSONL(f)
	}); err != nil {
		return err
	}
	if err := write(eventsOut, fmt.Sprintf("%d events", len(rec.Events())), func(f *os.File) error {
		return rec.WriteEventsJSONL(f)
	}); err != nil {
		return err
	}
	if err := write(seriesOut, fmt.Sprintf("%d series", rec.Series().Len()), func(f *os.File) error {
		return rec.Series().WriteCSV(f)
	}); err != nil {
		return err
	}
	return write(svgOut, "series timeline SVG", func(f *os.File) error {
		return rec.Series().TimelineSVG(f, "sampled runtime series")
	})
}

func writeCSV(path string, res core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return res.Collector.WriteCSV(f)
}

func printTimeline(r core.Result, dur time.Duration) {
	const bucket = 30 * time.Second
	n := int(dur/bucket) + 1
	viol := make([]int, n)
	tot := make([]int, n)
	r.Collector.Each(func(rec metrics.Record) {
		i := int(rec.Arrival / bucket)
		if i >= n {
			i = n - 1
		}
		tot[i]++
		if rec.Failed || rec.Latency > r.Collector.SLO {
			viol[i]++
		}
	})
	fmt.Println("  violations per 30s window (violations/total):")
	for i := range viol {
		if viol[i] > 0 {
			fmt.Printf("    t=%4ds  %6d/%-6d\n", i*30, viol[i], tot[i])
		}
	}
	fmt.Println("  hardware timeline:")
	for i, ev := range r.SwitchHistory {
		end := dur
		if i+1 < len(r.SwitchHistory) {
			end = r.SwitchHistory[i+1].At
		}
		fmt.Printf("    %8v  %-12s (%v)\n", ev.At.Round(time.Second), ev.Spec,
			(end - ev.At).Round(time.Second))
	}
	fmt.Println()
}

func buildTrace(rng *sim.RNG, name string, peak float64, dur time.Duration) *trace.Trace {
	if path, ok := strings.CutPrefix(name, "file:"); ok {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tr, err := trace.Load(f, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		return tr
	}
	switch name {
	case "azure":
		if dur == 0 {
			dur = trace.AzureDuration
		}
		return trace.Azure(rng, peak, dur)
	case "wikipedia":
		return trace.Wikipedia(rng, peak, 5, trace.WikipediaCompression)
	case "twitter":
		if dur == 0 {
			dur = trace.TwitterDuration
		}
		return trace.Twitter(rng, peak/5, dur)
	case "poisson":
		if dur == 0 {
			dur = 10 * time.Minute
		}
		return trace.Poisson(rng, peak, dur)
	case "stable":
		if dur == 0 {
			dur = 10 * time.Minute
		}
		return trace.Stable(rng, peak, dur)
	default:
		fmt.Fprintf(os.Stderr, "unknown trace %q\n", name)
		os.Exit(1)
		return nil
	}
}

func pickSchemes(arg string) []core.Scheme {
	switch strings.ToLower(arg) {
	case "paldia":
		return []core.Scheme{core.NewPaldia()}
	case "oracle":
		return []core.Scheme{core.NewOracle()}
	case "infless-cost":
		return []core.Scheme{core.NewINFlessLlamaCost()}
	case "infless-perf":
		return []core.Scheme{core.NewINFlessLlamaPerf()}
	case "molecule-cost":
		return []core.Scheme{core.NewMoleculeCost()}
	case "molecule-perf":
		return []core.Scheme{core.NewMoleculePerf()}
	case "all":
		return append(core.StandardSchemes(), core.NewOracle())
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", arg)
		os.Exit(1)
		return nil
	}
}

func printResult(r core.Result) {
	fmt.Printf("=== %s — %s ===\n", r.Scheme, r.Model)
	fmt.Printf("  requests        %d (failed %d)\n", r.Requests, r.FailedRequests)
	fmt.Printf("  SLO compliance  %.2f%%\n", r.SLOCompliance*100)
	fmt.Printf("  latency         P50 %v   P99 %v   mean %v\n", r.P50, r.P99, r.MeanLatency)
	if r.Collector != nil {
		b := r.Collector.TailBreakdown(99, 99.9)
		fmt.Printf("  P99 breakdown   min %v | batch %v | queue %v | interf %v | cold %v\n",
			b.MinExec, b.BatchWait, b.QueueDelay, b.Interference, b.ColdStart)
	} else if r.Online != nil {
		b := r.Online.MeanBreakdown()
		fmt.Printf("  mean breakdown  min %v | batch %v | queue %v | interf %v | cold %v\n",
			b.MinExec, b.BatchWait, b.QueueDelay, b.Interference, b.ColdStart)
	}
	fmt.Printf("  cost            $%.4f (cpu $%.4f, gpu $%.4f)\n", r.Cost, r.CPUCost, r.GPUCost)
	fmt.Printf("  power           %.0f W avg, %.1f Wh\n", r.AvgPowerW, r.EnergyWh)
	fmt.Printf("  utilization     cpu %.0f%%  gpu %.0f%%\n", r.UtilCPU*100, r.UtilGPU*100)
	fmt.Printf("  containers      boots %d (sync cold %d), hw switches %d\n",
		r.Boots, r.SyncColdStarts, r.Switches)
	names := make([]string, 0, len(r.HeldBySpec))
	for name := range r.HeldBySpec {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  residency      ")
	for _, name := range names {
		fmt.Printf(" %s:%.0fs", name, r.HeldBySpec[name].Seconds())
	}
	fmt.Printf("\n\n")
}
