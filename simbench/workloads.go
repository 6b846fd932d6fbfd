package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// gridLanes is azure-grid's tenant-lane count, as in `make scale-smoke`.
const gridLanes = 4

// workload is one benchmark input family. prepare builds the inputs from the
// seed — curves with their request-count sizing loop, partitions, configs —
// and is what setup_s times; the prepared run makes one entry-point call.
type workload struct {
	name     string
	requests int // simulated requests per input
	sharded  bool
	prepare  func(o opts) prepared
	// unmeasured names the per-layer metrics whose seam the workload's entry
	// point does not offer, with the reason.
	unmeasured map[string]string
}

// opts is how one entry-point call is prepared.
type opts struct {
	shape    uint64 // seeds the rate curves' shapes
	seed     uint64 // seeds every arrival draw
	requests int
	workers  int     // shard workers (azure-grid only)
	check    bool    // attach a fresh invariant.Checker per lane
	probes   *probes // traced pass; nil for the untraced pass
	hooks    hooks
}

// hooks add fixed busy-work to one seam. Only the sensitivity tests set them.
type hooks struct {
	selectSpin time.Duration // per DesiredHardware call
	sinkSpin   time.Duration // per telemetry event reaching a real sink
}

// prepared is one workload instance, ready to run once.
type prepared struct {
	run      func() outcome
	arrivals func() int // replays fresh copies of the streams and counts them
	duration time.Duration
}

// outcome is what one entry-point call produced.
type outcome struct {
	stats    simStats
	result   any      // the entry point's return value, for fingerprinting
	problems []string // failed output checks found by the run itself
}

// simStats are the simulated statistics the paper reports. They depend only
// on the inputs, never on the host.
type simStats struct {
	Requests, Failed int
	SLOPct           float64
	P50ms, P99ms     float64
	CostUSD          float64
}

func statsOf(r core.Result) simStats {
	return simStats{
		Requests: r.Requests,
		Failed:   r.FailedRequests,
		SLOPct:   r.SLOCompliance * 100,
		P50ms:    ms(r.P50),
		P99ms:    ms(r.P99),
		CostUSD:  r.Cost,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var workloads = []*workload{
	{
		name:     "azure-grid",
		requests: 60_000,
		sharded:  true,
		prepare:  prepareAzureGrid,
		unmeasured: map[string]string{
			"telemetry.bytes":      "no telemetry output; only twitter-spans writes one",
			"telemetry.sink_share": "no sink attached in the untraced pass; only twitter-spans times one",
		},
	},
	{
		name:     "twitter-multi",
		requests: 100_000,
		prepare:  prepareTwitterMulti,
		unmeasured: map[string]string{
			"predict":              "core.MultiConfig has no NewPredictor seam",
			"metrics":              "core.MultiConfig has no Aggregator seam; its exact Collectors show in alloc_mib and peak_heap_mib",
			"sim":                  "core.MultiConfig has no Pacer seam",
			"shard":                "single process, no shard barrier",
			"telemetry.bytes":      "no telemetry output; only twitter-spans writes one",
			"telemetry.sink_share": "no sink attached in the untraced pass; only twitter-spans times one",
		},
	},
	{
		name:     "twitter-clone-spot",
		requests: 150_000,
		prepare:  prepareCloneSpot,
		unmeasured: map[string]string{
			"shard":                "single process, no shard barrier",
			"telemetry.bytes":      "no telemetry output; only twitter-spans writes one",
			"telemetry.sink_share": "no sink attached in the untraced pass; only twitter-spans times one",
		},
	},
	{
		name:     "twitter-spans",
		requests: 60_000,
		prepare:  prepareTwitterSpans,
		unmeasured: map[string]string{
			"shard": "single process, no shard barrier",
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// sizedCurves builds a set of curves whose durations are sized so that about
// n requests arrive in expectation in total: the curves' mean rates depend on
// their duration, so, as paldia-sim does, the duration is re-derived from
// the latest mean until it settles.
func sizedCurves(n int, initial time.Duration, p *probes, mk func(d time.Duration) []*trace.Curve) []*trace.Curve {
	build := func(d time.Duration) (cs []*trace.Curve) {
		p.timeCurves(func() { cs = mk(d) })
		return cs
	}
	cs := build(initial)
	for i := 0; i < 4; i++ {
		mean := 0.0
		for _, c := range cs {
			mean += c.MeanRPS()
		}
		d := trace.DurationForRequests(n, mean)
		if d == cs[0].Duration() {
			break
		}
		cs = build(d)
	}
	return cs
}

// twitterMean is the paper's Twitter rate for a model: five times the mean
// of its Azure sample.
func twitterMean(m model.Spec) float64 {
	return 5 * m.DefaultPeakRPS() / trace.AzurePeakToMean
}

// countArrivals drains fresh replays of the curves' streams.
func countArrivals(rng *sim.RNG, curves ...*trace.Curve) int {
	n := 0
	for _, c := range curves {
		s := c.Stream(rng)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			n++
		}
	}
	return n
}

func newOnline(dur time.Duration) *metrics.Online {
	return metrics.NewOnline(core.DefaultSLO, dur, metrics.DefaultGoodputWindow)
}

// wire attaches the traced pass's decorators, the sensitivity hooks and an
// invariant checker to one single-tenant config, as o asks.
func (o opts) wire(cfg *core.Config, lane int) *invariant.Checker {
	var lp *laneProbe
	if o.probes != nil {
		lp = o.probes.lane(lane)
	}
	if lp != nil || o.hooks.selectSpin > 0 {
		cfg.Scheme.Policy = &timedPolicy{Policy: cfg.Scheme.Policy, lane: lp, selectSpin: o.hooks.selectSpin}
	}
	if cfg.Telemetry != nil && (lp != nil || o.hooks.sinkSpin > 0) {
		cfg.Telemetry = &timedSink{inner: cfg.Telemetry, lane: lp, delay: o.hooks.sinkSpin}
	}
	if lp != nil {
		cfg.Stream = &timedStream{Stream: cfg.Stream, lane: lp}
		forecaster := cfg.Forecaster
		cfg.NewPredictor = func() predict.Predictor {
			f, err := predict.NewByName(forecaster, core.DefaultObserveWindow)
			if err != nil {
				panic(err)
			}
			return &timedForecaster{inner: f, lane: lp}
		}
		if cfg.Metrics == core.MetricsOnline {
			dur := cfg.Stream.Duration()
			cfg.Aggregator = metrics.NewTee(newOnline(dur), &timedMirror{Online: newOnline(dur), lane: lp})
		}
		cfg.Telemetry = telemetry.Combine(cfg.Telemetry, countingSink{lp})
		cfg.Pacer = func(time.Duration) { lp.instants++ }
	}
	if !o.check {
		return nil
	}
	ck := invariant.New()
	cfg.Invariants = ck
	return ck
}

func invariantProblems(checks ...*invariant.Checker) []string {
	var out []string
	for i, ck := range checks {
		if ck == nil {
			continue
		}
		if err := ck.Err(); err != nil {
			out = append(out, fmt.Sprintf("lane %d invariants: %v", i, err))
		}
	}
	return out
}

func prepareAzureGrid(o opts) prepared {
	shapes, rng := sim.NewRNG(o.shape), sim.NewRNG(o.seed)
	m := model.MustByName("ResNet 50")
	c := sizedCurves(o.requests, trace.AzureDuration, o.probes, func(d time.Duration) []*trace.Curve {
		return []*trace.Curve{trace.AzureCurve(shapes, m.DefaultPeakRPS(), d)}
	})[0]
	lanes := c.Partition(gridLanes)
	cfgs := make([]core.Config, len(lanes))
	checks := make([]*invariant.Checker, len(lanes))
	for i, lane := range lanes {
		cfgs[i] = core.Config{
			Model:   m,
			Stream:  lane.Stream(rng),
			Scheme:  core.NewPaldia(),
			Metrics: core.MetricsOnline,
			Seed:    o.seed,
		}
		checks[i] = o.wire(&cfgs[i], i)
	}
	sopt := shard.Options{Shards: o.workers}
	if o.probes != nil {
		sopt.OnBarrier = o.probes.barrierHook()
	}
	return prepared{
		duration: c.Duration(),
		arrivals: func() int { return countArrivals(rng, lanes...) },
		run: func() outcome {
			res := shard.Run(cfgs, sopt)
			return outcome{
				stats:    statsOf(shard.Aggregate(res, core.DefaultSLO)),
				result:   res,
				problems: invariantProblems(checks...),
			}
		},
	}
}

func prepareTwitterMulti(o opts) prepared {
	shapes, rng := sim.NewRNG(o.shape), sim.NewRNG(o.seed)
	models := []model.Spec{
		model.MustByName("ResNet 50"),
		model.MustByName("GoogleNet"),
		model.MustByName("MobileNet"),
	}
	// Each tenant runs at a sixth of its Twitter rate. At full rate, and even
	// at a third, the shared node sat overloaded through whole surges, and
	// P99 then swung fifty-fold with the arrival seed alone.
	curves := sizedCurves(o.requests, trace.TwitterDuration, o.probes, func(d time.Duration) []*trace.Curve {
		cs := make([]*trace.Curve, len(models))
		for i, m := range models {
			cs[i] = trace.TwitterCurve(shapes.Child(m.Name), twitterMean(m)/6, d)
		}
		return cs
	})
	cfg := core.MultiConfig{Scheme: core.NewPaldia()}
	for i, m := range models {
		cfg.Workloads = append(cfg.Workloads, core.Workload{Model: m, Stream: curves[i].Stream(rng.Child(m.Name))})
	}
	var lp *laneProbe
	if o.probes != nil {
		lp = o.probes.lane(0)
		for i := range cfg.Workloads {
			cfg.Workloads[i].Stream = &timedStream{Stream: cfg.Workloads[i].Stream, lane: lp}
		}
		cfg.Telemetry = countingSink{lp}
	}
	if lp != nil || o.hooks.selectSpin > 0 {
		cfg.Scheme.Policy = &timedPolicy{Policy: cfg.Scheme.Policy, lane: lp, selectSpin: o.hooks.selectSpin}
	}
	var ck *invariant.Checker
	if o.check {
		ck = invariant.New()
		cfg.Invariants = ck
	}
	return prepared{
		duration: curves[0].Duration(),
		arrivals: func() int {
			n := 0
			for i, m := range models {
				n += countArrivals(rng.Child(m.Name), curves[i])
			}
			return n
		},
		run: func() outcome {
			res := core.RunMulti(cfg)
			return outcome{stats: multiStats(res), result: res, problems: invariantProblems(ck)}
		},
	}
}

// multiStats pools every tenant's exact records for the latency percentiles.
func multiStats(r core.MultiResult) simStats {
	all := metrics.NewCollector(core.DefaultSLO)
	failed := 0
	for _, c := range r.PerWorkload {
		c.Each(func(rec metrics.Record) {
			if rec.Failed {
				failed++
			}
			all.Add(rec)
		})
	}
	return simStats{
		Requests: all.Count(),
		Failed:   failed,
		SLOPct:   r.SLOCompliance * 100,
		P50ms:    ms(all.Percentile(50)),
		P99ms:    ms(all.Percentile(99)),
		CostUSD:  r.Cost,
	}
}

// The cloning-frontier cell: Twitter traffic on DPN 92, every serving node
// spot at a 65% discount, one revocation every 45 s with 2 s of notice.
const (
	cloneSpotDiscount = 0.65
	cloneRevokeEvery  = 45 * time.Second
	cloneRevokeNotice = 2 * time.Second
)

func prepareCloneSpot(o opts) prepared {
	shapes, rng := sim.NewRNG(o.shape), sim.NewRNG(o.seed)
	m := model.MustByName("DPN 92")
	c := sizedCurves(o.requests, trace.TwitterDuration, o.probes, func(d time.Duration) []*trace.Curve {
		return []*trace.Curve{trace.TwitterCurve(shapes, twitterMean(m), d)}
	})[0]
	cfg := core.Config{
		Model:        m,
		Stream:       c.Stream(rng),
		Scheme:       core.NewPaldiaCloneK(2, false),
		Metrics:      core.MetricsOnline,
		Seed:         o.seed,
		SpotDiscount: cloneSpotDiscount,
		SpotFraction: 1,
		RevokeEvery:  cloneRevokeEvery,
		RevokeNotice: cloneRevokeNotice,
	}
	ck := o.wire(&cfg, 0)
	return prepared{
		duration: c.Duration(),
		arrivals: func() int { return countArrivals(rng, c) },
		run: func() outcome {
			res := core.Run(cfg)
			return outcome{stats: statsOf(res), result: res, problems: invariantProblems(ck)}
		},
	}
}

// byteCounter is an io.Writer that keeps only the count of bytes written.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

// spansResult is twitter-spans' entry-point result plus what its telemetry
// wrote.
type spansResult struct {
	core.Result
	Spans                 int
	SpanBytes, EventBytes int64
}

func prepareTwitterSpans(o opts) prepared {
	shapes, rng := sim.NewRNG(o.shape), sim.NewRNG(o.seed)
	m := model.MustByName("ResNet 50")
	c := sizedCurves(o.requests, trace.TwitterDuration, o.probes, func(d time.Duration) []*trace.Curve {
		return []*trace.Curve{trace.TwitterCurve(shapes, twitterMean(m), d)}
	})[0]
	spans, events := &byteCounter{}, &byteCounter{}
	sw := telemetry.NewStreamWriter(spans, events)
	cfg := core.Config{
		Model:     m,
		Stream:    c.Stream(rng),
		Scheme:    core.NewPaldia(),
		Metrics:   core.MetricsOnline,
		Seed:      o.seed,
		Telemetry: sw,
	}
	ck := o.wire(&cfg, 0)
	return prepared{
		duration: c.Duration(),
		arrivals: func() int { return countArrivals(rng, c) },
		run: func() outcome {
			res := core.Run(cfg)
			out := outcome{stats: statsOf(res), problems: invariantProblems(ck)}
			if err := sw.Close(); err != nil {
				out.problems = append(out.problems, "span writer: "+err.Error())
			}
			if sw.SpansWritten() != res.Requests {
				out.problems = append(out.problems, fmt.Sprintf(
					"span writer wrote %d spans for %d requests", sw.SpansWritten(), res.Requests))
			}
			if o.probes != nil {
				o.probes.telemetryBytes += spans.n + events.n
			}
			out.result = spansResult{Result: res, Spans: sw.SpansWritten(), SpanBytes: spans.n, EventBytes: events.n}
			return out
		},
	}
}

// fingerprint hashes everything an entry point returned — every field of
// every Result, the aggregators' statistics and, for exact Collectors, every
// record — so two runs agree on the fingerprint only if their outputs are
// identical.
func fingerprint(v any) string {
	h := sha256.New()
	writeValue(h, v)
	return hex.EncodeToString(h.Sum(nil))
}

func writeValue(h hash.Hash, v any) {
	switch v := v.(type) {
	case []core.Result:
		for _, r := range v {
			writeResult(h, r)
		}
	case core.Result:
		writeResult(h, v)
	case spansResult:
		writeResult(h, v.Result)
		fmt.Fprintf(h, "spans=%d bytes=%d/%d", v.Spans, v.SpanBytes, v.EventBytes)
	case core.MultiResult:
		fmt.Fprintf(h, "%s %v %v %d %v", v.Scheme, v.SLOCompliance, v.Cost, v.Switches, v.HeldBySpec)
		for _, c := range v.PerWorkload {
			writeCollector(h, c)
		}
	default:
		panic(fmt.Sprintf("fingerprint: unhandled %T", v))
	}
}

func writeResult(h hash.Hash, r core.Result) {
	col, on := r.Collector, r.Online
	r.Collector, r.Online = nil, nil
	fmt.Fprintf(h, "%+v\n", r)
	if on != nil {
		fmt.Fprintf(h, "%+v %v %v\n", on.Snapshot(), on.Percentile(90), on.Percentile(99.9))
	}
	if col != nil {
		writeCollector(h, col)
	}
}

func writeCollector(w io.Writer, c *metrics.Collector) {
	var buf [7*8 + 1]byte
	c.Each(func(r metrics.Record) {
		for i, d := range []time.Duration{r.Arrival, r.Latency, r.BatchWait, r.QueueDelay,
			r.Interference, r.ColdStart, r.MinExec} {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(d))
		}
		buf[56] = 0
		if r.Failed {
			buf[56] = 1
		}
		w.Write(buf[:])
	})
}
