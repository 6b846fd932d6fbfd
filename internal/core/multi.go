package core

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Multi-tenant serving: several workloads co-served on one shared node at a
// time, the deployment reality behind the paper's motivation experiment and
// mixed-workload study. Each workload keeps its own batcher, predictor,
// split decision and container pool; the Hardware Selection module must pick
// a node capable of the *aggregate*, which the runtime resolves as the most
// capable of the per-workload desires (a node that satisfies every tenant).

// Workload pairs a model with its arrival trace. Stream, when set, supplies
// arrivals lazily instead of Trace (as Config.Stream does for single-tenant
// runs); when both are set, Stream wins.
type Workload struct {
	Model  model.Spec
	Trace  *trace.Trace
	Stream trace.Stream
}

// MultiConfig describes a multi-tenant serving simulation.
type MultiConfig struct {
	Workloads []Workload
	Scheme    Scheme

	// SLO, DispatchWindow, MonitorInterval, Horizon, HWLead, ObserveWindow,
	// KeepAlive: as in Config (zero = defaults).
	SLO             time.Duration
	DispatchWindow  time.Duration
	MonitorInterval time.Duration
	Horizon         time.Duration
	HWLead          time.Duration
	ObserveWindow   time.Duration
	KeepAlive       time.Duration

	// Forecaster selects the per-tenant rate-forecasting model by name, as
	// Config.Forecaster does (empty means "ewma"); ignored for clairvoyant
	// schemes.
	Forecaster string

	// InitialHardware overrides the warm-start node choice.
	InitialHardware *hardware.Spec

	// Telemetry, when set, receives every typed runtime event; per-request
	// events carry the workload index in Event.Tenant. Nil disables the
	// layer (one branch per emission site).
	Telemetry telemetry.Sink

	// Invariants, when set, audits the run as Config.Invariants does. A
	// checker is single-run: pass a fresh one per RunMulti.
	Invariants *invariant.Checker
}

// MultiResult aggregates a multi-tenant run.
type MultiResult struct {
	Scheme string
	// PerWorkload carries one collector per workload, in input order.
	PerWorkload []*metrics.Collector
	// SLOCompliance is request-weighted across workloads.
	SLOCompliance float64
	Cost          float64
	Switches      int
	HeldBySpec    map[string]time.Duration
}

type tenant struct {
	idx int // workload index, stamped into Event.Tenant
	w   Workload
	arr trace.Stream // arrival source (w.Stream, or w.Trace adapted)
	bat batch.Batcher
	col *metrics.Collector
	// perSample is the workload's per-sample work on the reference device
	// (the most performant GPU), in seconds: desiredAggregate's unit for
	// converting rates between tenants.
	perSample float64

	// predictAt is the confidence-gated forecast (see setupPredictor).
	predictAt func(now, horizon time.Duration) float64
	onArrive  func(now time.Duration)

	obsWindowStart time.Duration
	obsCount       int
	obsRate        float64

	arrived int // arrivals fed to the batcher so far
}

// tenantNode is the shared node plus per-tenant container pools.
type tenantNode struct {
	node  *cluster.Node
	pools []*container.Pool
	rows  []*profile.Row // per tenant: (workload model, node.Spec)

	queuedOutstanding []int
	laneHeld          []bool
	laneReady         []bool
	lanePending       [][]func()
}

type multiRunner struct {
	cfg MultiConfig
	eng *sim.Engine
	clu *cluster.Cluster

	tenants []*tenant
	cur     *tenantNode

	procured bool
	waitCtr  int
	switches int
	lastSwap time.Duration
	end      time.Duration

	tel    telemetry.Sink
	jobSeq int64

	// stScratch backs stateFor's *State, rebuilt per call and never retained
	// by callers — same reuse discipline as runner.stScratch.
	stScratch State

	// jobPool and sizesScratch mirror runner.jobPool/sizesScratch: recycled
	// per-dispatch job contexts and the per-window batch-size partition, so
	// the multi-tenant dispatch/complete cycle allocates nothing in steady
	// state. The tick closures are bound once (method values allocate per
	// reschedule).
	jobPool        []*tenantJobState
	sizesScratch   []int
	dispatchTickFn func()
	monitorTickFn  func()
}

// RunMulti executes a multi-tenant simulation.
func RunMulti(cfg MultiConfig) MultiResult {
	base := Config{
		SLO:             cfg.SLO,
		DispatchWindow:  cfg.DispatchWindow,
		MonitorInterval: cfg.MonitorInterval,
		Horizon:         cfg.Horizon,
		HWLead:          cfg.HWLead,
		ObserveWindow:   cfg.ObserveWindow,
		KeepAlive:       cfg.KeepAlive,
	}
	base.applyDefaults()
	cfg.SLO = base.SLO
	cfg.DispatchWindow = base.DispatchWindow
	cfg.MonitorInterval = base.MonitorInterval
	cfg.Horizon = base.Horizon
	cfg.HWLead = base.HWLead
	cfg.ObserveWindow = base.ObserveWindow
	cfg.KeepAlive = base.KeepAlive

	r := &multiRunner{cfg: cfg, eng: sim.NewEngine()}
	r.tel = telemetry.Combine(cfg.Telemetry, cfg.Invariants.AsSink())
	r.clu = cluster.New(r.eng)
	r.clu.Sink = r.tel
	if cfg.Invariants != nil {
		r.eng.SetOnFire(cfg.Invariants.Tick)
		r.clu.Check = cfg.Invariants
	}
	ref := hardware.MostPerformant(hardware.GPU)
	for i, w := range cfg.Workloads {
		t := &tenant{idx: i, w: w, col: metrics.NewCollector(cfg.SLO)}
		t.perSample = profile.SoloSample(w.Model, ref).Seconds()
		t.arr = w.Stream
		if t.arr == nil {
			t.arr = w.Trace.Stream()
		}
		r.setupPredictor(t)
		if d := t.arr.Duration(); d > r.end {
			r.end = d
		}
		r.tenants = append(r.tenants, t)
	}
	r.warmStart()
	for _, t := range r.tenants {
		r.scheduleArrivals(t)
	}
	r.dispatchTickFn = r.dispatchTick
	r.monitorTickFn = r.monitorTick
	r.eng.Schedule(cfg.DispatchWindow, r.dispatchTickFn)
	r.eng.Schedule(cfg.MonitorInterval, r.monitorTickFn)
	r.eng.Run(r.end + DefaultDrain)
	// Run to completion so conservation holds even under deep overload;
	// give up only when a whole chunk passes without progress, then flush
	// anything truly unservable as failed.
	for guard := 0; guard < 720 && !r.complete(); guard++ {
		before := 0
		for _, t := range r.tenants {
			before += t.col.Count()
		}
		r.eng.Run(r.eng.Now() + 60*time.Second)
		after := 0
		for _, t := range r.tenants {
			after += t.col.Count()
		}
		if after == before {
			break
		}
	}
	for _, t := range r.tenants {
		for _, req := range t.bat.TakeAll() {
			if r.tel != nil {
				e := telemetry.Ev(r.eng.Now(), telemetry.Failed)
				e.Req = int64(req.ID)
				e.Tenant = t.idx
				r.tel.Event(e)
			}
			t.col.Add(metrics.Record{
				Arrival: req.Arrival,
				Latency: r.eng.Now() - req.Arrival,
				Failed:  true,
			})
		}
	}
	res := r.results()
	if cfg.Invariants != nil {
		requests, failed := 0, 0
		for _, t := range r.tenants {
			requests += t.col.Count()
			t.col.Each(func(rec metrics.Record) {
				if rec.Failed {
					failed++
				}
			})
		}
		// Multi-tenant runs never inject node failures.
		cfg.Invariants.CheckResult(r.eng.Now(), requests, failed, 0)
	}
	return res
}

// complete reports whether every tenant's arrivals have been fully recorded.
func (r *multiRunner) complete() bool {
	for _, t := range r.tenants {
		if t.col.Count() < t.arrived {
			return false
		}
	}
	return true
}

func (r *multiRunner) setupPredictor(t *tenant) {
	if r.cfg.Scheme.Clairvoyant {
		tr := t.w.Trace
		if tr == nil {
			var ok bool
			if tr, ok = trace.Materialized(t.arr); !ok {
				panic("core: clairvoyant scheme needs a materialized trace " +
					"(set Workload.Trace, or a Stream implementing trace.Materializer)")
			}
		}
		c := predict.NewClairvoyant(tr)
		t.predictAt = c.PredictRPS
		t.onArrive = func(time.Duration) {}
		return
	}
	f, err := predict.NewByName(r.cfg.Forecaster, r.cfg.ObserveWindow)
	if err != nil {
		panic("core: " + err.Error())
	}
	obs := predict.NewWindowObserver(f, r.cfg.ObserveWindow)
	// Confidence-gated at the source, exactly as the single-tenant runner's
	// setupPredictor: a tenant whose forecaster is below the confidence floor
	// contributes its reactive observed rate everywhere its forecast would be
	// used — aggregate hardware selection, split sizing, container targets
	// (see DESIGN.md §10).
	t.predictAt = func(now, horizon time.Duration) float64 {
		pred := obs.PredictRPS(now, horizon)
		if obs.Confidence() < predict.ConfidenceFloor {
			return t.observedRPS(now, r.cfg.ObserveWindow)
		}
		return pred
	}
	t.onArrive = obs.Arrive
}

func (r *multiRunner) warmStart() {
	var spec hardware.Spec
	if r.cfg.InitialHardware != nil {
		spec = *r.cfg.InitialHardware
	} else {
		// Before any traffic is observed the predictors are empty; seed the
		// per-tenant desires with the traces' opening rates, converted to
		// work-equivalent aggregate rates as desiredAggregate does.
		totalWork := 0.0
		for _, t := range r.tenants {
			totalWork += t.arr.InitRPS(2*time.Second) * t.perSample
		}
		for _, t := range r.tenants {
			st := r.stateFor(t, r.cfg.HWLead)
			if t.perSample > 0 {
				st.PredictedRPS = totalWork / t.perSample
				st.ObservedRPS = st.PredictedRPS
			}
			d := r.cfg.Scheme.Policy.DesiredHardware(st)
			if d.ComputeScore > spec.ComputeScore ||
				(d.ComputeScore == spec.ComputeScore && d.CostPerHour > spec.CostPerHour) {
				spec = d
			}
		}
	}
	r.cur = r.wireNode(r.clu.Acquire(spec, r.maxResident(spec)))
	for _, p := range r.cur.pools {
		p.AddWarm(1)
	}
}

// maxResident: the shared device's memory cap must fit whichever tenant
// packs tightest; use the smallest per-model cap (conservative).
func (r *multiRunner) maxResident(spec hardware.Spec) int {
	min := 0
	for _, t := range r.tenants {
		c := profile.MaxResidentJobs(t.w.Model, spec)
		if min == 0 || c < min {
			min = c
		}
	}
	return min
}

func (r *multiRunner) wireNode(node *cluster.Node) *tenantNode {
	cold := container.CPUColdStart
	if node.Spec.IsGPU() {
		cold = container.GPUColdStart
	}
	if r.cfg.Scheme.InstantProcure {
		cold = 0
	}
	n := len(r.tenants)
	tn := &tenantNode{
		node:              node,
		pools:             make([]*container.Pool, n),
		rows:              make([]*profile.Row, n),
		queuedOutstanding: make([]int, n),
		laneHeld:          make([]bool, n),
		laneReady:         make([]bool, n),
		lanePending:       make([][]func(), n),
	}
	for i, t := range r.tenants {
		tn.rows[i] = profile.Resolve(t.w.Model, node.Spec)
		tn.pools[i] = container.NewPool(r.eng, cold, r.cfg.KeepAlive)
		if r.tel != nil {
			tn.pools[i].Sink = r.tel
			tn.pools[i].NodeID = node.ID
			tn.pools[i].Spec = node.Spec.Name
			tn.pools[i].Tenant = i
		}
		if r.cfg.Invariants != nil {
			tn.pools[i].NodeID = node.ID
			tn.pools[i].Tenant = i
			tn.pools[i].Check = r.cfg.Invariants
		}
	}
	return tn
}

func (r *multiRunner) scheduleArrivals(t *tenant) {
	pending, ok := t.arr.Next()
	if !ok {
		return
	}
	var fire func()
	fire = func() {
		now := r.eng.Now()
		for pending <= now {
			req := t.bat.Add(pending)
			t.arrived++
			if r.tel != nil {
				e := telemetry.Ev(req.Arrival, telemetry.Arrived)
				e.Req = int64(req.ID)
				e.Tenant = t.idx
				r.tel.Event(e)
				e.Kind = telemetry.Batched
				r.tel.Event(e)
			}
			t.onArrive(now)
			t.observeArrival(now, r.cfg.ObserveWindow)
			if pending, ok = t.arr.Next(); !ok {
				return
			}
		}
		r.eng.ScheduleAt(pending, fire)
	}
	r.eng.ScheduleAt(pending, fire)
}

func (t *tenant) observeArrival(now, window time.Duration) {
	for now >= t.obsWindowStart+window {
		t.obsRate = float64(t.obsCount) / window.Seconds()
		t.obsCount = 0
		t.obsWindowStart += window
	}
	t.obsCount++
}

func (t *tenant) observedRPS(now, window time.Duration) float64 {
	for now >= t.obsWindowStart+window {
		t.obsRate = float64(t.obsCount) / window.Seconds()
		t.obsCount = 0
		t.obsWindowStart += window
	}
	return t.obsRate
}

// stateFor builds the policy State for one tenant at the given horizon.
func (r *multiRunner) stateFor(t *tenant, horizon time.Duration) *State {
	now := r.eng.Now()
	s := &r.stScratch
	*s = State{
		Now:          now,
		Model:        t.w.Model,
		SLO:          r.cfg.SLO,
		PredictedRPS: t.predictAt(now, horizon),
		ObservedRPS:  t.observedRPS(now, r.cfg.ObserveWindow),
		Pending:      t.bat.Pending(),
		Window:       r.cfg.DispatchWindow,
		tables:       s.tables,
		candScratch:  s.candScratch,
	}
	if r.cur != nil {
		s.Current = r.cur.node.Spec
		s.HasCurrent = true
		s.Row = r.cur.rows[t.idx]
		if dev := r.cur.node.Device; dev != nil && !dev.Failed() {
			s.ActiveDemand = dev.ActiveDemand()
			s.ActiveCompute = dev.ActiveCompute()
			s.ActiveJobs = dev.ActiveCount()
			s.Backlog = dev.BacklogSolo()
			s.LaneBacklog = dev.LaneBacklogSolo()
		}
	}
	return s
}

// desiredAggregate resolves per-tenant hardware desires into one node. A
// tenant's policy only understands its own workload, so each tenant's rate
// is first converted into a work-equivalent rate covering ALL tenants (total
// work per second divided by this tenant's per-sample work, measured on a
// reference device); the policy then sizes hardware for the aggregate in its
// own units. The final choice is the most capable of the per-tenant answers.
func (r *multiRunner) desiredAggregate() hardware.Spec {
	now := r.eng.Now()

	var totalPredWork, totalObsWork float64
	for _, t := range r.tenants {
		// predictAt is confidence-gated at the source (setupPredictor): a
		// tenant below the confidence floor contributes its observed rate to
		// the aggregate instead — see DESIGN.md §10.
		totalPredWork += t.predictAt(now, r.cfg.HWLead) * t.perSample
		totalObsWork += t.observedRPS(now, r.cfg.ObserveWindow) * t.perSample
	}

	var best hardware.Spec
	for _, t := range r.tenants {
		st := r.stateFor(t, r.cfg.HWLead)
		if t.perSample > 0 {
			st.PredictedRPS = totalPredWork / t.perSample
			st.ObservedRPS = totalObsWork / t.perSample
		}
		d := r.cfg.Scheme.Policy.DesiredHardware(st)
		if d.ComputeScore > best.ComputeScore ||
			(d.ComputeScore == best.ComputeScore && d.CostPerHour > best.CostPerHour) {
			best = d
		}
	}
	return best
}

func (r *multiRunner) dispatchTick() {
	now := r.eng.Now()
	pending := 0
	for _, t := range r.tenants {
		pending += t.bat.Pending()
	}
	if now < r.end || pending > 0 {
		r.eng.Schedule(r.cfg.DispatchWindow, r.dispatchTickFn)
	}
	if r.cur == nil || r.cur.node.Device == nil || r.cur.node.Device.Failed() {
		return
	}
	for i, t := range r.tenants {
		r.dispatchTenant(i, t)
	}
}

func (r *multiRunner) dispatchTenant(i int, t *tenant) {
	n := t.bat.Pending()
	if n == 0 {
		return
	}
	node := r.cur
	spec := node.node.Spec
	row := node.rows[i]
	st := r.stateFor(t, r.cfg.Horizon)
	y := r.cfg.Scheme.Policy.SplitY(st, n)
	if y < 0 {
		y = 0
	}
	if y > n {
		y = n
	}
	spatialN := n - y
	if !spec.IsGPU() {
		spatialN = 0
		y = n
	}
	if spec.IsGPU() {
		free := row.MaxResidentJobs - node.node.Device.ActiveCount() - laneCap
		if free < 0 {
			free = 0
		}
		if max := free * row.PreferredBatch; spatialN > max {
			spatialN = max
		}
	}
	slots := laneCap - node.queuedOutstanding[i]
	if slots < 0 {
		slots = 0
	}
	if max := slots * row.PreferredBatch; y > max {
		y = max
	}
	if spatialN+y == 0 {
		return
	}
	// Pool sizing reads only container counts and taking requests schedules
	// no events, so sizing before the takes matches the historical
	// take-then-ensure order observationally; each batch then pulls its
	// requests straight out of the batcher in the same arrival-order
	// partition batch.Split produced.
	node.pools[i].Ensure(node.pools[i].Busy() +
		autoscale.ReactiveContainers(spatialN, row.PreferredBatch))
	r.sizesScratch = batch.SplitSizes(r.sizesScratch, spatialN, row.PreferredBatch)
	for _, size := range r.sizesScratch {
		r.dispatchJob(i, t, row, size, device.Spatial)
	}
	r.sizesScratch = batch.SplitSizes(r.sizesScratch, y, row.PreferredBatch)
	for _, size := range r.sizesScratch {
		r.dispatchJob(i, t, row, size, device.Queued)
	}
}

// tenantJobState is the multi-tenant counterpart of jobState: one batch
// job's pooled context — requests, device job, bound lifecycle closures —
// recycled through multiRunner.jobPool on completion.
type tenantJobState struct {
	r          *multiRunner
	i          int
	t          *tenant
	node       *tenantNode
	reqs       []batch.Request
	job        device.Job
	dispatched time.Duration
	cold       time.Duration
	mode       device.Mode
	doneFn     func(*device.Job)
	submitFn   func()
}

func (r *multiRunner) newJobState() *tenantJobState {
	if n := len(r.jobPool); n > 0 {
		js := r.jobPool[n-1]
		r.jobPool = r.jobPool[:n-1]
		return js
	}
	js := &tenantJobState{r: r}
	js.doneFn = func(j *device.Job) { js.complete(j) }
	js.submitFn = func() {
		js.cold = js.r.eng.Now() - js.dispatched
		js.node.node.Device.Submit(&js.job)
	}
	return js
}

func (r *multiRunner) dispatchJob(i int, t *tenant, row *profile.Row,
	n int, mode device.Mode) {
	node := r.cur
	now := r.eng.Now()
	spec := node.node.Spec
	js := r.newJobState()
	js.i = i
	js.t = t
	js.node = node
	js.mode = mode
	js.dispatched = now
	js.cold = 0
	js.reqs = t.bat.TakeInto(js.reqs[:0], n)
	reqs := js.reqs

	job := &js.job
	job.Reset()
	job.Batch = len(reqs)
	job.Solo = row.Solo(len(reqs))
	job.FBR = row.FBR
	job.Compute = row.ComputeFraction(len(reqs))
	job.Mode = mode
	job.Done = js.doneFn
	if r.tel != nil {
		r.jobSeq++
		job.ID = r.jobSeq
		for _, q := range reqs {
			e := telemetry.Ev(now, telemetry.Dispatched)
			e.Req = int64(q.ID)
			e.Tenant = t.idx
			e.Job = job.ID
			e.Node = node.node.ID
			e.Spec = spec.Name
			e.N = len(reqs)
			e.Detail = mode.String()
			r.tel.Event(e)
		}
	}
	if mode == device.Spatial {
		node.pools[i].AcquireOrWait(js.submitFn)
		return
	}
	node.queuedOutstanding[i]++
	if node.laneReady[i] {
		js.submitFn()
		return
	}
	node.lanePending[i] = append(node.lanePending[i], js.submitFn)
	if node.laneHeld[i] {
		return
	}
	node.laneHeld[i] = true
	node.pools[i].AcquireOrWait(func() {
		node.laneReady[i] = true
		pending := node.lanePending[i]
		node.lanePending[i] = nil
		for _, f := range pending {
			f()
		}
	})
}

// complete records the finished job's request outcomes against the tenant's
// collector and recycles the state (see jobState.complete for the reuse
// argument; the lane/pool teardown uses the node captured at dispatch, which
// may differ from r.cur after a hardware switch).
func (js *tenantJobState) complete(j *device.Job) {
	r := js.r
	i, t, node := js.i, js.t, js.node
	finish := r.eng.Now()
	if r.tel != nil {
		kind := telemetry.Completed
		if j.Failed {
			kind = telemetry.Failed
		}
		for _, req := range js.reqs {
			e := telemetry.Ev(finish, kind)
			e.Req = int64(req.ID)
			e.Tenant = t.idx
			e.Job = j.ID
			e.Node = node.node.ID
			r.tel.Event(e)
		}
	}
	for _, req := range js.reqs {
		t.col.Add(metrics.Record{
			Arrival:      req.Arrival,
			Latency:      finish - req.Arrival,
			BatchWait:    js.dispatched - req.Arrival,
			ColdStart:    js.cold,
			QueueDelay:   j.QueueDelay(),
			Interference: j.Interference(),
			MinExec:      j.Solo,
			Failed:       j.Failed,
		})
	}
	mode := js.mode
	r.jobPool = append(r.jobPool, js)
	if mode == device.Spatial {
		node.pools[i].Release()
		return
	}
	node.queuedOutstanding[i]--
	if node.queuedOutstanding[i] == 0 && node.laneReady[i] {
		node.pools[i].Release()
		node.laneHeld[i] = false
		node.laneReady[i] = false
	}
}

func (r *multiRunner) monitorTick() {
	now := r.eng.Now()
	if now < r.end {
		r.eng.Schedule(r.cfg.MonitorInterval, r.monitorTickFn)
	}
	desired := r.desiredAggregate()
	if r.cur != nil && desired.Name == r.cur.node.Spec.Name {
		r.waitCtr = 0
		return
	}
	limit := r.cfg.Scheme.Policy.WaitLimit()
	if r.cur != nil && desired.CostPerHour < r.cur.node.Spec.CostPerHour {
		if now-r.lastSwap < minHold {
			return
		}
		limit *= downgradeFactor
	}
	r.waitCtr++
	if r.waitCtr < limit {
		return
	}
	r.reconfigure(desired)
}

func (r *multiRunner) reconfigure(desired hardware.Spec) {
	if r.procured {
		return
	}
	r.procured = true
	r.waitCtr = 0
	maxRes := r.maxResident(desired)
	if r.cfg.Scheme.InstantProcure {
		tn := r.wireNode(r.clu.Acquire(desired, maxRes))
		for _, p := range tn.pools {
			p.AddWarm(1)
		}
		r.swapTo(tn)
		r.procured = false
		return
	}
	r.clu.AcquireAsync(desired, maxRes, func(node *cluster.Node) {
		tn := r.wireNode(node)
		for i, t := range r.tenants {
			row := tn.rows[i]
			need := autoscale.PredictiveContainers(
				t.predictAt(r.eng.Now(), r.cfg.Horizon), 2*row.SoloBatch, row.PreferredBatch)
			if backlog := autoscale.ReactiveContainers(t.bat.Pending(), row.PreferredBatch); backlog > need {
				need = backlog
			}
			if need < 2 {
				need = 2
			}
			if cap := row.MaxResidentJobs + laneCap; need > cap {
				need = cap
			}
			tn.pools[i].EnsureWithin(need, swapTail)
		}
		r.eng.Schedule(swapTail, func() {
			r.swapTo(tn)
			r.procured = false
		})
	})
}

func (r *multiRunner) swapTo(tn *tenantNode) {
	old := r.cur
	r.cur = tn
	r.switches++
	r.lastSwap = r.eng.Now()
	if r.tel != nil {
		e := telemetry.Ev(r.eng.Now(), telemetry.HWSwitch)
		e.Node = tn.node.ID
		e.Spec = tn.node.Spec.Name
		r.tel.Event(e)
	}
	if old != nil {
		r.retire(old)
	}
}

func (r *multiRunner) retire(old *tenantNode) {
	attempts := 0
	var poll func()
	poll = func() {
		dev := old.node.Device
		outstanding := 0
		for _, q := range old.queuedOutstanding {
			outstanding += q
		}
		drained := dev == nil || dev.Failed() ||
			(dev.ActiveCount() == 0 && dev.LaneLength() == 0 && outstanding == 0)
		attempts++
		if drained || attempts > 240 {
			r.clu.Release(old.node)
			return
		}
		r.eng.Schedule(500*time.Millisecond, poll)
	}
	poll()
}

func (r *multiRunner) results() MultiResult {
	res := MultiResult{
		Scheme:     r.cfg.Scheme.Name(),
		Cost:       r.clu.TotalCost(),
		Switches:   r.switches,
		HeldBySpec: r.clu.HeldBySpec(),
	}
	total, ok := 0, 0.0
	for _, t := range r.tenants {
		res.PerWorkload = append(res.PerWorkload, t.col)
		total += t.col.Count()
		ok += t.col.SLOCompliance() * float64(t.col.Count())
	}
	if total > 0 {
		res.SLOCompliance = ok / float64(total)
	} else {
		res.SLOCompliance = 1
	}
	return res
}
