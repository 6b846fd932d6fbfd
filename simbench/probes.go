package main

import (
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The traced pass attaches the decorators in this file to the public seams of
// each layer — core.Policy, core.Config.NewPredictor, trace.Stream, a
// metrics.Tee mirror, telemetry.Sink, core.Config.Pacer and
// shard.Options.OnBarrier — so no program package changes. Every decorator
// forwards to the wrapped value unchanged; the simulated statistics of a
// traced run must equal the untraced run's, and the benchmark checks that
// they do.

// seam accumulates the calls into one seam and the host time spent inside.
type seam struct {
	calls int64
	ns    int64
}

func (s *seam) add(start time.Time) {
	s.calls++
	s.ns += int64(time.Since(start))
}

// hist is a log-linear histogram of nanosecond durations: 16 buckets per
// power of two, so a quantile is within ~4% of the true value. It is
// allocation-free and merges by addition.
type hist [64 * 16]int64

func (h *hist) add(ns int64) {
	if ns < 64 {
		if ns < 0 {
			ns = 0
		}
		h[ns]++
		return
	}
	e := bits.Len64(uint64(ns)) - 1
	m := (uint64(ns) >> (e - 4)) & 15
	h[e*16+int(m)]++
}

func (h *hist) merge(o *hist) {
	for i, n := range o {
		h[i] += n
	}
}

// quantile returns the midpoint of the bucket holding the q-quantile, or 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	var total int64
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	var seen int64
	for i, n := range h {
		seen += n
		if seen < rank {
			continue
		}
		if i < 64 {
			return float64(i)
		}
		e, m := i/16, i%16
		width := float64(uint64(1) << (e - 4))
		return float64(uint64(16+m)<<(e-4)) + width/2
	}
	return 0
}

// laneProbe holds everything one simulation lane's decorators record. Each
// lane runs on one goroutine at a time (shard barriers order the epochs), so
// a laneProbe needs no locking; the lanes are merged after the run.
type laneProbe struct {
	next, sel, split, pred, add, sink seam
	selHist, splitHist                hist
	instants                          int64
	kinds                             [256]int64
	prewarmed, reaped, timeShared     int64
}

// probes is one traced run's instrumentation.
type probes struct {
	lanes    []*laneProbe
	curve    seam // AzureCurve/TwitterCurve calls during set-up
	barriers int64
	epochs   hist // wall time between consecutive shard barriers

	telemetryBytes int64 // JSONL a telemetry.StreamWriter wrote
}

func (p *probes) lane(i int) *laneProbe {
	for len(p.lanes) <= i {
		p.lanes = append(p.lanes, &laneProbe{})
	}
	return p.lanes[i]
}

// total merges every lane's record.
func (p *probes) total() *laneProbe {
	t := &laneProbe{}
	for _, l := range p.lanes {
		for _, pair := range [][2]*seam{{&t.next, &l.next}, {&t.sel, &l.sel},
			{&t.split, &l.split}, {&t.pred, &l.pred}, {&t.add, &l.add}, {&t.sink, &l.sink}} {
			pair[0].calls += pair[1].calls
			pair[0].ns += pair[1].ns
		}
		t.selHist.merge(&l.selHist)
		t.splitHist.merge(&l.splitHist)
		t.instants += l.instants
		for k, n := range l.kinds {
			t.kinds[k] += n
		}
		t.prewarmed += l.prewarmed
		t.reaped += l.reaped
		t.timeShared += l.timeShared
	}
	return t
}

// timeCurves times one set-up call building rate curves (the trace layer's
// share of set-up).
func (p *probes) timeCurves(build func()) {
	if p == nil {
		build()
		return
	}
	start := time.Now()
	build()
	p.curve.add(start)
}

// barrierHook returns a shard.Options.OnBarrier hook for one run: it counts
// barriers and the coordinator's wall time per epoch.
func (p *probes) barrierHook() func(time.Duration) {
	var last time.Time
	return func(time.Duration) {
		now := time.Now()
		if !last.IsZero() {
			p.epochs.add(int64(now.Sub(last)))
		}
		last = now
		p.barriers++
	}
}

// spin burns host CPU for d: the fixed busy-work the sensitivity tests add
// to one seam.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// timedPolicy decorates a core.Policy, timing Algorithm 1 (DesiredHardware)
// and the Eq. (1) split (SplitY). A nil lane skips the timing; selectSpin
// adds busy-work to every DesiredHardware call.
type timedPolicy struct {
	core.Policy
	lane       *laneProbe
	selectSpin time.Duration
}

func (t *timedPolicy) DesiredHardware(s *core.State) hardware.Spec {
	if t.selectSpin > 0 {
		spin(t.selectSpin)
	}
	if t.lane == nil {
		return t.Policy.DesiredHardware(s)
	}
	start := time.Now()
	hw := t.Policy.DesiredHardware(s)
	t.lane.sel.add(start)
	t.lane.selHist.add(int64(time.Since(start)))
	return hw
}

func (t *timedPolicy) SplitY(s *core.State, n int) int {
	if t.lane == nil {
		return t.Policy.SplitY(s, n)
	}
	start := time.Now()
	y := t.Policy.SplitY(s, n)
	t.lane.split.add(start)
	t.lane.splitHist.add(int64(time.Since(start)))
	return y
}

// timedForecaster decorates the rate forecaster. It forwards Confidence so
// the runtime's confidence gate behaves exactly as without the decorator.
type timedForecaster struct {
	inner predict.Forecaster
	lane  *laneProbe
}

func (t *timedForecaster) Observe(now time.Duration, count int) {
	start := time.Now()
	t.inner.Observe(now, count)
	t.lane.pred.add(start)
}

func (t *timedForecaster) PredictRPS(now, horizon time.Duration) float64 {
	start := time.Now()
	v := t.inner.PredictRPS(now, horizon)
	t.lane.pred.add(start)
	return v
}

func (t *timedForecaster) Confidence() float64 { return predict.Confidence(t.inner) }

// timedStream decorates an arrival stream, timing Next.
type timedStream struct {
	trace.Stream
	lane *laneProbe
}

func (t *timedStream) Next() (time.Duration, bool) {
	start := time.Now()
	a, ok := t.Stream.Next()
	t.lane.next.add(start)
	return a, ok
}

// timedMirror is the mirror half of a metrics.Tee: an Online aggregator fed
// the same records as the run's own, timed. The run's Result keeps reading
// the primary, which does identical work, so the mirror's time stands for
// the metrics layer's.
type timedMirror struct {
	*metrics.Online
	lane *laneProbe
}

func (t *timedMirror) Add(r metrics.Record) {
	start := time.Now()
	t.Online.Add(r)
	t.lane.add.add(start)
}

// timedSink decorates a telemetry sink with timing and optional per-event
// busy-work; a nil lane skips the timing.
type timedSink struct {
	inner telemetry.Sink
	lane  *laneProbe
	delay time.Duration
}

func (t *timedSink) Event(e telemetry.Event) {
	if t.delay > 0 {
		spin(t.delay)
	}
	if t.lane == nil {
		t.inner.Event(e)
		return
	}
	start := time.Now()
	t.inner.Event(e)
	t.lane.sink.add(start)
}

// countingSink counts telemetry events by kind: the work counts of the
// core, device, container and cluster layers.
type countingSink struct{ lane *laneProbe }

func (c countingSink) Event(e telemetry.Event) {
	l := c.lane
	l.kinds[e.Kind]++
	switch e.Kind {
	case telemetry.ContainerPrewarm:
		l.prewarmed += int64(e.N)
	case telemetry.ContainerReaped:
		l.reaped += int64(e.N)
	case telemetry.Queued:
		if e.Detail == "queued" {
			l.timeShared++
		}
	}
}
