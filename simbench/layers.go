package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// unmeasuredValue marks a per-layer metric whose seam the workload's entry
// point does not offer; the report's "unmeasured" lines say why.
const unmeasuredValue = -1

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"trace.curve_s":           "s",
	"trace.next_calls":        "count",
	"trace.next_ns":           "ns",
	"trace.next_share":        "fraction",
	"core.select_calls":       "count",
	"core.select_ns_p50":      "ns",
	"core.select_ns_p99":      "ns",
	"core.select_share":       "fraction",
	"core.split_calls":        "count",
	"core.split_ns_p50":       "ns",
	"core.split_share":        "fraction",
	"predict.calls":           "count",
	"predict.ns":              "ns",
	"predict.share":           "fraction",
	"metrics.add_calls":       "count",
	"metrics.add_ns":          "ns",
	"metrics.add_share":       "fraction",
	"telemetry.events":        "count",
	"telemetry.sink_share":    "fraction",
	"telemetry.bytes":         "B",
	"core.dispatched":         "count",
	"core.hw_switches":        "count",
	"device.exec_jobs":        "count",
	"device.timeshare_jobs":   "count",
	"container.boots":         "count",
	"container.reaped":        "count",
	"cluster.acquired":        "count",
	"cluster.revoked":         "count",
	"core.clone_useful_ratio": "fraction",
	"sim.instants":            "count",
	"sim.host_ns_per_instant": "ns",
	"shard.barriers":          "count",
	"shard.epoch_ms_p50":      "ms",
	"shard.epoch_ms_p99":      "ms",
	"shard.speedup":           "x",
	"residual_share":          "fraction",
	"trace_overhead_pct":      "%",
}

// shares are the timed seams whose host time residual_share subtracts.
var shares = []string{"trace.next_share", "core.select_share", "core.split_share",
	"predict.share", "metrics.add_share", "telemetry.sink_share"}

// layers runs cycles of an untraced call, on azure-grid a single-worker
// call, and a traced call until the budget is spent, and reports the median
// of each per-layer metric over the traced calls.
func (b *bench) layers() map[string]metric {
	b.reference()
	perRun := map[string][]float64{}
	for start, cycle := time.Now(), 1; cycle <= 2 || time.Since(start) < b.budget; cycle++ {
		plain := b.timed(fmt.Sprintf("cycle %d untraced", cycle), b.opts(b.nproc), true)
		var single *sample
		if b.w.sharded {
			s := b.timed(fmt.Sprintf("cycle %d single worker", cycle), b.opts(1), true)
			single = &s
		}
		pr := &probes{}
		o := b.opts(b.nproc)
		o.probes = pr
		traced := b.timed(fmt.Sprintf("cycle %d traced", cycle), o, true)
		for i, out := range traced.outs {
			if out.stats != plain.outs[i].stats {
				b.fail(fmt.Sprintf("cycle %d traced, input %d", cycle, i), fmt.Sprintf(
					"simulated statistics %+v differ from the untraced %+v", out.stats, plain.outs[i].stats))
			}
		}
		for k, v := range b.layerMetrics(pr, traced, plain, single) {
			perRun[k] = append(perRun[k], v)
		}
	}
	ms := map[string]metric{}
	for k, unit := range layerUnits {
		ms[k] = metric{median(perRun[k]), unit}
	}
	for _, k := range b.unmeasuredKeys() {
		ms[k] = metric{unmeasuredValue, layerUnits[k]}
	}
	return ms
}

// unmeasuredKeys lists the metrics the workload has no seam for and records
// the reasons as report notes.
func (b *bench) unmeasuredKeys() []string {
	var keys []string
	prefixes := make([]string, 0, len(b.w.unmeasured))
	for p := range b.w.unmeasured {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		var hit []string
		for k := range layerUnits {
			if strings.HasPrefix(k, p) {
				hit = append(hit, k)
			}
		}
		sort.Strings(hit)
		keys = append(keys, hit...)
		what := p
		if len(hit) != 1 || hit[0] != p {
			what = fmt.Sprintf("%s (%s)", p, strings.Join(hit, ", "))
		}
		b.notes = append(b.notes, fmt.Sprintf("unmeasured %s: %s", what, b.w.unmeasured[p]))
	}
	return keys
}

// layerMetrics derives one traced call's per-layer metrics. Shares are of
// the traced call's process CPU time.
func (b *bench) layerMetrics(pr *probes, traced, plain sample, single *sample) map[string]float64 {
	t := pr.total()
	cpu := float64(traced.cpu.Nanoseconds())
	share := func(s seam) float64 { return float64(s.ns) / cpu }
	k := func(kind telemetry.Kind) float64 { return float64(t.kinds[kind]) }
	var events int64
	for _, n := range t.kinds {
		events += n
	}
	m := map[string]float64{
		"trace.curve_s":           time.Duration(pr.curve.ns).Seconds(),
		"trace.next_calls":        float64(t.next.calls),
		"trace.next_ns":           float64(t.next.ns),
		"trace.next_share":        share(t.next),
		"core.select_calls":       float64(t.sel.calls),
		"core.select_ns_p50":      t.selHist.quantile(0.50),
		"core.select_ns_p99":      t.selHist.quantile(0.99),
		"core.select_share":       share(t.sel),
		"core.split_calls":        float64(t.split.calls),
		"core.split_ns_p50":       t.splitHist.quantile(0.50),
		"core.split_share":        share(t.split),
		"predict.calls":           float64(t.pred.calls),
		"predict.ns":              float64(t.pred.ns),
		"predict.share":           share(t.pred),
		"metrics.add_calls":       float64(t.add.calls),
		"metrics.add_ns":          float64(t.add.ns),
		"metrics.add_share":       share(t.add),
		"telemetry.events":        float64(events),
		"telemetry.sink_share":    share(t.sink),
		"telemetry.bytes":         float64(pr.telemetryBytes),
		"core.dispatched":         k(telemetry.Dispatched),
		"core.hw_switches":        k(telemetry.HWSwitch),
		"device.exec_jobs":        k(telemetry.ExecStart),
		"device.timeshare_jobs":   float64(t.timeShared),
		"container.boots":         k(telemetry.ContainerBoot) + float64(t.prewarmed),
		"container.reaped":        float64(t.reaped),
		"cluster.acquired":        k(telemetry.NodeAcquired),
		"cluster.revoked":         k(telemetry.NodeRevoked),
		"core.clone_useful_ratio": ratio(k(telemetry.ExecEnd), k(telemetry.ExecStart)),
		"sim.instants":            float64(t.instants),
		"sim.host_ns_per_instant": ratio(float64(plain.cpu.Nanoseconds()), float64(t.instants)),
		"shard.barriers":          float64(pr.barriers),
		"shard.epoch_ms_p50":      pr.epochs.quantile(0.50) / 1e6,
		"shard.epoch_ms_p99":      pr.epochs.quantile(0.99) / 1e6,
		"trace_overhead_pct":      100 * (traced.wall.Seconds()/plain.wall.Seconds() - 1),
	}
	if single != nil {
		m["shard.speedup"] = single.wall.Seconds() / plain.wall.Seconds()
	}
	residual := 1.0
	for _, s := range shares {
		residual -= m[s]
	}
	m["residual_share"] = residual
	return m
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
