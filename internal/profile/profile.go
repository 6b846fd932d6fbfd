// Package profile is the profiling substrate of the reproduction. In the
// paper, the provider profiles every workload on every hardware generation
// ahead of time and the resulting tables — solo execution latency Solo_M and
// Fractional Bandwidth Requirement FBR_M — feed both Eq. (1) and the
// Hardware Selection module's capable-hardware pool. Here those tables are
// derived from the calibration constants in internal/model and
// internal/hardware; the formulas below play the role of the measurement
// campaign.
//
// The package also defines the GPU contention penalty P(D) shared by the
// device simulator (ground truth) and the scheduler's performance model,
// mirroring how the paper's model is fit to the same hardware it predicts.
package profile

import (
	"math"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
)

// Calibration constants. They are package-level (not per-profile) because
// the paper treats them as properties of the serving stack, not of any one
// workload.
const (
	// GPUEfficiency is the fraction of peak device FLOP/s an inference
	// kernel sustains. Calibrated against the paper's §II observation that
	// a single g3s.xlarge (M60) serves ResNet-50 at ~750 rps: 0.6 puts the
	// M60's batched ResNet-50 throughput at ~670 rps.
	GPUEfficiency = 0.6
	// CPUEfficiency is the analogous fraction for the batched CPU mode.
	CPUEfficiency = 0.9
	// GPULaunchOverhead is the fixed per-batch cost on a GPU (kernel
	// launches, host-device transfer, framework dispatch).
	GPULaunchOverhead = 4 * time.Millisecond
	// CPULaunchOverhead is the fixed per-batch cost of the CPU mode.
	CPULaunchOverhead = 10 * time.Millisecond
	// ContentionAlpha is the exponent of the contention penalty P(D): linear
	// bandwidth sharing would be alpha=1; the excess models the
	// cache/capacity interference MPS co-location adds beyond pure
	// bandwidth contention (the regime Prophet's QoS model covers).
	ContentionAlpha = 1.8
	// MPSClientOverhead is the per-additional-client efficiency loss of MPS
	// co-location (SM partition fragmentation and scheduling overhead):
	// k co-resident jobs all run a further (1 + overhead*(k-1)) slower.
	// This is why consolidating *every* batch onto the GPU (the
	// INFless/Llama strategy) eventually loses to a bounded hybrid even
	// when bandwidth is not saturated.
	MPSClientOverhead = 0.10
	// TargetBatchLatency is the solo-latency budget used when picking a
	// hardware-specific batch size; the paper selects batch sizes so that
	// batch execution stays between ~50 and 200 ms.
	TargetBatchLatency = 150 * time.Millisecond
)

// EffectiveGFLOPs returns the sustained GFLOP/s the node delivers for the
// given workload (device peak x efficiency, x the model's CPU friendliness
// on CPU nodes).
func EffectiveGFLOPs(m model.Spec, hw hardware.Spec) float64 {
	if hw.IsGPU() {
		return hw.ComputeScore * 1000 * GPUEfficiency
	}
	return hw.ComputeScore * 1000 * CPUEfficiency * m.CPUFactor
}

// SoloSample returns the profiled per-sample execution time of the workload
// on the node, in isolation (excluding the fixed per-batch overhead).
func SoloSample(m model.Spec, hw hardware.Spec) time.Duration {
	return Resolve(m, hw).SoloSample
}

func computeSoloSample(m model.Spec, hw hardware.Spec) time.Duration {
	sec := m.GFLOPsPerSample / EffectiveGFLOPs(m, hw)
	return time.Duration(sec * float64(time.Second))
}

// Solo returns the profiled execution latency of one batch of the given size
// run in isolation on the node — the paper's Solo_M. It is the Spec-keyed
// form of Row.Solo for cold callers; hot paths resolve the pair once and
// read through the Row.
func Solo(m model.Spec, hw hardware.Spec, batch int) time.Duration {
	return Resolve(m, hw).Solo(batch)
}

func computeSolo(m model.Spec, hw hardware.Spec, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	overhead := GPULaunchOverhead
	if !hw.IsGPU() {
		overhead = CPULaunchOverhead
	}
	return overhead + time.Duration(batch)*computeSoloSample(m, hw)
}

// FBR returns the workload's Fractional Bandwidth Requirement on the node:
// the fraction of device global-memory bandwidth one batch job demands while
// executing. An FBR of 0.2 means the job wants 20% of the bandwidth; values
// above 1 mean a single job already saturates the device (the language
// models on the cheaper GPUs). CPU nodes return 0 — the paper's interference
// model only covers MPS co-location on GPUs.
func FBR(m model.Spec, hw hardware.Spec) float64 {
	return Resolve(m, hw).FBR
}

func computeFBR(m model.Spec, hw hardware.Spec) float64 {
	if !hw.IsGPU() {
		return 0
	}
	demandGBps := m.TrafficGBPerSample * EffectiveGFLOPs(m, hw) / m.GFLOPsPerSample
	return demandGBps / hw.MemBWGBps
}

// SaturationConst scales how many samples' kernels fill a device: a job
// saturates the GPU's compute units once its batch reaches
// SaturationConst * ComputeScore / GFLOPsPerSample samples. Below that, MPS
// co-location genuinely runs jobs in parallel on spare units — the reason
// spatial sharing helps at all; at or beyond it, co-located jobs split the
// device and slow each other proportionally. Calibrated so the paper's
// fixed batch sizes (e.g. SENet 18 at 128, DenseNet 121 at 64) leave
// meaningful spare compute on the M60 — the premise of the motivation
// experiment — reflecting the modest SM occupancy of PyTorch-v1-era
// inference kernels.
const SaturationConst = 56.0

// SaturationBatch returns the batch size at which one job of the workload
// saturates the device's compute units (at least 1).
func SaturationBatch(m model.Spec, hw hardware.Spec) int {
	b := int(SaturationConst * hw.ComputeScore / m.GFLOPsPerSample)
	if b < 1 {
		b = 1
	}
	return b
}

// ComputeFraction returns the fraction of the device's compute units a batch
// job occupies while executing, in (0, 1]. Spec-keyed form of
// Row.ComputeFraction, like Solo.
func ComputeFraction(m model.Spec, hw hardware.Spec, batch int) float64 {
	return Resolve(m, hw).ComputeFraction(batch)
}

func computeComputeFraction(m model.Spec, hw hardware.Spec, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	sat := SaturationBatch(m, hw)
	if batch >= sat {
		return 1
	}
	return float64(batch) / float64(sat)
}

// Penalty is the contention penalty P(D) for aggregate bandwidth demand D
// (the sum of FBRs of co-located jobs): no penalty below saturation, then a
// superlinear slowdown.
func Penalty(d float64) float64 {
	if d <= 1 {
		return 1
	}
	return math.Pow(d, ContentionAlpha)
}

// Slowdown returns the multiplicative slowdown a job with FBR own suffers
// when the aggregate demand on the device is total (total includes own).
// A job alone on the device always has slowdown 1, because the profiled
// solo latency already reflects whatever bandwidth the device actually
// delivers to it.
func Slowdown(total, own float64) float64 {
	s := Penalty(total) / Penalty(own)
	if s < 1 {
		return 1
	}
	return s
}

// ClientOverhead returns the MPS co-location efficiency factor for k
// co-resident jobs: 1 for a lone job, growing MPSClientOverhead per extra
// client.
func ClientOverhead(k int) float64 {
	if k <= 1 {
		return 1
	}
	return 1 + MPSClientOverhead*float64(k-1)
}

// PreferredBatch returns the batch size the provider would configure for the
// workload on the node: the largest power of two not exceeding the model's
// MaxBatch whose solo latency fits TargetBatchLatency. It is at least 1 even
// if a single sample misses the target (the device is then simply a bad
// candidate; hardware selection will notice via T_max).
func PreferredBatch(m model.Spec, hw hardware.Spec) int {
	return Resolve(m, hw).PreferredBatch
}

func computePreferredBatch(m model.Spec, hw hardware.Spec) int {
	best := 1
	for b := 1; b <= m.MaxBatch; b *= 2 {
		if computeSolo(m, hw, b) <= TargetBatchLatency {
			best = b
		}
	}
	return best
}

// ThroughputRPS returns the sustained request throughput of the node for the
// workload: back-to-back batches at the preferred size, in isolation.
func ThroughputRPS(m model.Spec, hw hardware.Spec) float64 {
	return Resolve(m, hw).ThroughputRPS
}

func computeThroughputRPS(m model.Spec, hw hardware.Spec) float64 {
	b := computePreferredBatch(m, hw)
	solo := computeSolo(m, hw, b)
	if solo <= 0 {
		return 0
	}
	return float64(b) / solo.Seconds()
}

// MPSMaxClients is NVIDIA MPS's limit on concurrently connected client
// processes (48 since Volta).
const MPSMaxClients = 48

// MaxResidentJobs returns how many serving containers of the workload fit on
// the node at once — the hard cap on spatial co-location: device memory,
// further clamped by the MPS client limit on GPUs.
func MaxResidentJobs(m model.Spec, hw hardware.Spec) int {
	return Resolve(m, hw).MaxResidentJobs
}

func computeMaxResidentJobs(m model.Spec, hw hardware.Spec) int {
	n := int(hw.MemGB / m.MemFootprintGB)
	if n < 1 {
		n = 1
	}
	if hw.IsGPU() && n > MPSMaxClients {
		n = MPSMaxClients
	}
	return n
}

// Entry is one row of the profiling table for a (model, hardware) pair —
// everything the scheduling policies consume.
type Entry struct {
	Model    model.Spec
	Hardware hardware.Spec
	// SoloSample is the per-sample latency in isolation.
	SoloSample time.Duration
	// FBR is the fractional bandwidth requirement (0 on CPU nodes).
	FBR float64
	// PreferredBatch is the configured batch size.
	PreferredBatch int
	// SoloBatch is Solo at the preferred batch size.
	SoloBatch time.Duration
	// ThroughputRPS is the sustained isolated throughput.
	ThroughputRPS float64
	// MaxResidentJobs caps spatial co-location by device memory.
	MaxResidentJobs int
	// ComputeFrac is the compute occupancy of one preferred-size batch.
	ComputeFrac float64
	// PenaltyByJobs memoizes Penalty(k*FBR) for k = 0..MPSMaxClients
	// co-located batch jobs: the contention curve Eq. (1) evaluates when
	// probing an otherwise-idle device, precomputed so the probe walk never
	// calls math.Pow. Read-only — catalog entries share one slice.
	PenaltyByJobs []float64
}

// Lookup returns a copy of the profiling entry for a pair — the Spec-keyed
// form of Resolve for cold callers (CLIs, experiments, tests).
func Lookup(m model.Spec, hw hardware.Spec) Entry {
	return Resolve(m, hw).Entry
}

// Row is a resolved (model, hardware) pair: its profiling Entry plus the
// batch-indexed Solo and ComputeFraction memos (batch sizes 1..MaxBatch).
// Hot paths resolve a pair once — a serving node at wiring time, a selection
// candidate when its table is built — and read through the handle instead of
// re-keying by Spec value on every call. Rows are read-only; catalog rows
// are shared by every caller.
type Row struct {
	Entry
	solo []time.Duration
	comp []float64
}

// Resolve returns the row for a pair. A catalog pair resolves to its
// precomputed row (shared; never copied); an unknown or doctored spec is
// profiled on the fly into a fresh row of its own.
func Resolve(m model.Spec, hw hardware.Spec) *Row {
	if i, ok := pairIndex(m, hw); ok {
		return &tableRows[i]
	}
	return newRow(m, hw)
}

// newRow runs the profiling formulas for one pair.
func newRow(m model.Spec, hw hardware.Spec) *Row {
	r := &Row{
		Entry: computeEntry(m, hw),
		solo:  make([]time.Duration, max(m.MaxBatch, 0)),
		comp:  make([]float64, max(m.MaxBatch, 0)),
	}
	for i := range r.solo {
		r.solo[i] = computeSolo(m, hw, i+1)
		r.comp[i] = computeComputeFraction(m, hw, i+1)
	}
	return r
}

// Solo is the pair's Solo_M at the given batch size: a memo read for batch
// sizes up to MaxBatch, the profiling formula beyond it.
func (r *Row) Solo(batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	if batch <= len(r.solo) {
		return r.solo[batch-1]
	}
	return computeSolo(r.Model, r.Hardware, batch)
}

// ComputeFraction is the pair's compute occupancy at the given batch size,
// memoized like Solo.
func (r *Row) ComputeFraction(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	if batch <= len(r.comp) {
		return r.comp[batch-1]
	}
	return computeComputeFraction(r.Model, r.Hardware, batch)
}

// FitsSLO is get_HW_pool's rate-independent filter: one preferred-size
// batch executes within three quarters of the SLO in isolation, leaving the
// rest for batching delay.
func (r *Row) FitsSLO(slo time.Duration) bool { return r.SoloBatch <= slo*3/4 }

func (r *Row) effectiveBatch(rateRPS float64, maxWait time.Duration) int {
	b := int(rateRPS * maxWait.Seconds())
	if b > r.PreferredBatch {
		b = r.PreferredBatch
	}
	if b < 1 {
		b = 1
	}
	return b
}

// SustainedBatch evaluates CanSustain on the resolved pair and also returns
// the effective batch size and its solo latency, which the selection pass
// reuses to cost CPU candidates.
func (r *Row) SustainedBatch(rateRPS float64, maxWait time.Duration) (batch int, solo time.Duration, ok bool) {
	batch = r.effectiveBatch(rateRPS, maxWait)
	solo = r.Solo(batch)
	if rateRPS <= 0 {
		return batch, solo, true
	}
	util := rateRPS * solo.Seconds() / float64(batch)
	return batch, solo, util <= Headroom
}

func computeEntry(m model.Spec, hw hardware.Spec) Entry {
	b := computePreferredBatch(m, hw)
	fbr := computeFBR(m, hw)
	pen := make([]float64, MPSMaxClients+1)
	for k := range pen {
		pen[k] = Penalty(float64(k) * fbr)
	}
	return Entry{
		Model:           m,
		Hardware:        hw,
		SoloSample:      computeSoloSample(m, hw),
		FBR:             fbr,
		PreferredBatch:  b,
		SoloBatch:       computeSolo(m, hw, b),
		ThroughputRPS:   computeThroughputRPS(m, hw),
		MaxResidentJobs: computeMaxResidentJobs(m, hw),
		ComputeFrac:     computeComputeFraction(m, hw, b),
		PenaltyByJobs:   pen,
	}
}

// The profiling campaign, run once at init: every catalog model profiled on
// every catalog node into one Row per pair. pairIndex verifies specs against
// the catalog snapshot by full struct equality, so a modified Spec can never
// be served a stale row.
var (
	tableModels []model.Spec
	tableHW     []hardware.Spec
	modelIndex  map[string]int
	hwIndex     map[string]int
	tableRows   []Row
	fallbackGPU hardware.Spec
)

func init() {
	ms, hws := model.Catalog(), hardware.Catalog()
	rows := make([]Row, 0, len(ms)*len(hws))
	for _, m := range ms {
		for _, hw := range hws {
			rows = append(rows, *newRow(m, hw))
		}
	}
	mi := make(map[string]int, len(ms))
	for i, m := range ms {
		mi[m.Name] = i
	}
	hi := make(map[string]int, len(hws))
	for i, hw := range hws {
		hi[hw.Name] = i
	}
	tableModels, tableHW, tableRows = ms, hws, rows
	modelIndex, hwIndex = mi, hi
	fallbackGPU = hardware.MostPerformant(hardware.GPU)
}

// pairIndex resolves a (model, hardware) pair to its precomputed row. Both
// specs must equal their catalog snapshots exactly — name collisions with
// different field values (tests doctor specs to probe behavior) fall through
// to the compute path.
func pairIndex(m model.Spec, hw hardware.Spec) (int, bool) {
	mi, ok := modelIndex[m.Name]
	if !ok || tableModels[mi] != m {
		return 0, false
	}
	hi, ok := hwIndex[hw.Name]
	if !ok || tableHW[hi] != hw {
		return 0, false
	}
	return mi*len(tableHW) + hi, true
}

// Table returns the full profiling campaign: every catalog model on every
// catalog node.
func Table() []Entry {
	var out []Entry
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			out = append(out, Lookup(m, hw))
		}
	}
	return out
}

// Headroom is the fraction of a node's sustainable throughput the capacity
// probes consider usable; running hotter leaves no slack for burst noise.
const Headroom = 0.85

// EffectiveBatch returns the batch size actually reachable at the given
// arrival rate when requests may only be held for maxWait before dispatch:
// min(PreferredBatch, rate*maxWait), at least 1. Under low rates batches run
// partially filled — the paper's flexible batch sizes.
func EffectiveBatch(m model.Spec, hw hardware.Spec, rateRPS float64, maxWait time.Duration) int {
	return Resolve(m, hw).effectiveBatch(rateRPS, maxWait)
}

// CanSustain reports whether the node keeps up with the arrival rate when
// batches are dispatched at least every maxWait: the per-batch cost
// (including launch overhead, which dominates for small batches) must fit in
// the batch's arrival budget with headroom.
func CanSustain(m model.Spec, hw hardware.Spec, rateRPS float64, maxWait time.Duration) bool {
	_, _, ok := Resolve(m, hw).SustainedBatch(rateRPS, maxWait)
	return ok
}

// CapabilityMaxWait is the batching-delay budget used by the capability
// probes: a quarter of the SLO, leaving the rest for execution.
func CapabilityMaxWait(slo time.Duration) time.Duration { return slo / 4 }

// CapablePool returns the hardware candidates able to serve the workload at
// the given sustained request rate within the SLO — the pool the Hardware
// Selection module explores (Algorithm 1's get_HW_pool). A node qualifies
// when (i) one batch executes within the SLO in isolation, leaving room for
// batching delay, and (ii) it sustains the rate (CanSustain) at the batch
// sizes reachable within the SLO's batching budget. The returned pool is
// sorted cheapest first; it is never empty — if nothing qualifies, the most
// performant GPU is returned as the fallback of last resort (matching the
// paper's escalation to the next more performant GPU when no feasible y
// exists).
func CapablePool(m model.Spec, rateRPS float64, slo time.Duration) []hardware.Spec {
	return AppendCapablePool(nil, m, rateRPS, slo)
}

// AppendCapablePool is CapablePool appending into dst, for callers that reuse
// a scratch slice across monitor ticks (the selection hot path). It walks the
// shared cost-sorted catalog snapshot — the catalog's prices are distinct, so
// appending in walk order yields exactly the sorted pool CapablePool has
// always returned, without copying or re-sorting per call.
func AppendCapablePool(dst []hardware.Spec, m model.Spec, rateRPS float64, slo time.Duration) []hardware.Spec {
	base := len(dst)
	for _, hw := range hardware.CostSorted() {
		r := Resolve(m, hw)
		if !r.FitsSLO(slo) {
			continue
		}
		if _, _, ok := r.SustainedBatch(rateRPS, CapabilityMaxWait(slo)); !ok {
			continue
		}
		dst = append(dst, hw)
	}
	if len(dst) == base {
		dst = append(dst, fallbackGPU)
	}
	return dst
}

// SoloAtPreferred returns Solo at the preferred batch size (Entry.SoloBatch)
// without copying out a full Entry.
func SoloAtPreferred(m model.Spec, hw hardware.Spec) time.Duration {
	return Resolve(m, hw).SoloBatch
}
