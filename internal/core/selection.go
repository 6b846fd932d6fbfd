// The hardware-selection half of the serving runtime (Fig. 2's Hardware
// Selection module): every monitor interval the scheme's desired node type
// is evaluated against the procurement-lead forecast, debounced with
// Algorithm 1's wait_ctr, procured in the background and swapped in once
// its containers are warm; node failures trigger the failover rule; the
// optional scale-out extension manages same-type replicas.

package core

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/hardware"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// --- hardware selection ------------------------------------------------------

func (r *runner) monitorTick() {
	now := r.eng.Now()
	// Hardware selection keeps running while a backlog is draining past the
	// trace end (a failover may have left the system on an undersized node).
	if now < r.end || r.bat.Pending() > 0 {
		r.eng.Schedule(r.cfg.MonitorInterval, r.monitorTickFn)
	}
	if r.red != nil {
		r.red.maintain()
		return
	}
	if r.cur != nil && r.cur.node.Device != nil &&
		(r.cur.node.Device.Failed() || r.cur.node.Revoked()) {
		r.ensureFailover()
		return
	}
	// Hardware is selected against the procurement-lead forecast, so a
	// capable node is serving by the time the predicted traffic lands.
	// Only a confident forecast is worth procuring against: a long lead
	// multiplies model error, so predictAt is confidence-gated at the
	// source — below the floor it returns the observed (reactive) rate
	// instead (see setupPredictor and DESIGN.md §10).
	pred := r.predictAt(now, r.cfg.HWLead)
	obs := r.observedRPS(now)
	st := r.stateWithRates(pred, obs)
	desired := r.cfg.Scheme.Policy.DesiredHardware(st)
	if r.cur != nil && desired.Name == r.cur.node.Spec.Name {
		r.waitCtr = 0
		r.manageScaleOut(st.PredictedRPS)
		return
	}
	// Downgrades are held off briefly after a switch and need a longer run
	// of consistent mismatches; upgrades are never delayed.
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

// reconfigure procures the desired node in the background and swaps to it
// once its containers are warm (Algorithm 1's reconfigure_HW).
func (r *runner) reconfigure(desired hardware.Spec) {
	if r.procured {
		return // one acquisition in flight at a time
	}
	r.procured = true
	r.waitCtr = 0
	maxRes := profile.MaxResidentJobs(r.cfg.Model, desired)
	if r.cfg.Scheme.InstantProcure {
		node := r.clu.AcquireSpot(desired, maxRes, r.spotDiscount())
		sn := r.wireNode(node)
		sn.pool.AddWarm(1)
		r.swapTo(sn)
		r.procured = false
		return
	}
	r.clu.AcquireAsyncSpot(desired, maxRes, r.spotDiscount(), func(node *cluster.Node) {
		sn := r.wireNode(node)
		// Container spawning overlaps the VM launch (Algorithm 1 does both
		// in the background before rerouting); only a short boot tail is
		// exposed. Pre-warm for the predicted load plus any backlog
		// awaiting reroute, so the swap does not stall on synchronous cold
		// starts.
		need := r.containerTarget(sn)
		if backlog := autoscale.ReactiveContainers(r.bat.Pending(), sn.row.PreferredBatch); backlog > need {
			need = backlog
		}
		// In-flight jobs are bounded by device memory plus the lane, so the
		// pool never needs more than that.
		if cap := sn.row.MaxResidentJobs + laneCap; need > cap {
			need = cap
		}
		sn.pool.EnsureWithin(need, swapTail)
		r.eng.Schedule(swapTail, func() {
			r.swapTo(sn)
			r.procured = false
		})
	})
}

// manageScaleOut adjusts the replica count when the current node type is
// the right choice but one instance cannot sustain the forecast.
func (r *runner) manageScaleOut(rate float64) {
	if r.cfg.MaxNodes <= 1 || r.cur == nil {
		return
	}
	sustainable := profile.Headroom * r.cur.row.ThroughputRPS
	want := 1
	if sustainable > 0 && rate > sustainable {
		want = int(rate/sustainable) + 1
		if want > r.cfg.MaxNodes {
			want = r.cfg.MaxNodes
		}
	}
	have := 1 + len(r.replicas) + r.replicaPending
	now := r.eng.Now()
	for ; have < want; have++ {
		r.replicaPending++
		spec := r.cur.node.Spec
		r.clu.AcquireAsyncSpot(spec, profile.MaxResidentJobs(r.cfg.Model, spec), r.spotDiscount(), func(node *cluster.Node) {
			sn := r.wireNode(node)
			sn.pool.EnsureWithin(r.containerTarget(sn), swapTail)
			r.eng.Schedule(swapTail, func() {
				r.replicaPending--
				r.replicas = append(r.replicas, sn)
				sn.ctl.Start()
				r.lastScale = r.eng.Now()
				r.emit(telemetry.ScaleOut, node.ID, node.Spec.Name, "")
			})
		})
		r.lastScale = now
	}
	// Scale-in with hysteresis, one replica at a time.
	if want < 1+len(r.replicas) && now-r.lastScale >= minHold {
		last := r.replicas[len(r.replicas)-1]
		r.replicas = r.replicas[:len(r.replicas)-1]
		r.retire(last)
		r.lastScale = now
		r.emit(telemetry.ScaleIn, last.node.ID, last.node.Spec.Name, "")
	}
}

func (r *runner) swapTo(sn *servingNode) {
	old := r.cur
	r.cur = sn
	r.switches++
	r.lastSwap = r.eng.Now()
	r.history = append(r.history, SwitchEvent{At: r.eng.Now(), Spec: sn.node.Spec.Name})
	sn.ctl.Start()
	// A node-type switch retires any replicas of the old type; scale-out
	// re-evaluates against the new type on the next monitor tick.
	for _, rep := range r.replicas {
		r.retire(rep)
	}
	r.replicas = nil
	r.emit(telemetry.HWSwitch, sn.node.ID, sn.node.Spec.Name, "")
	if old != nil {
		r.retire(old)
	}
}

// retire drains and releases a node that no longer receives new work.
func (r *runner) retire(old *servingNode) {
	old.ctl.Stop()
	attempts := 0
	var poll func()
	poll = func() {
		dev := old.node.Device
		drained := dev == nil || dev.Failed() ||
			(dev.ActiveCount() == 0 && dev.LaneLength() == 0 && old.queuedOutstanding == 0)
		attempts++
		if drained || attempts > 240 {
			r.accumulatePool(old.pool)
			r.clu.Release(old.node)
			return
		}
		r.eng.Schedule(500*time.Millisecond, poll)
	}
	poll()
}

func (r *runner) accumulatePool(p *container.Pool) {
	r.boots += p.Boots()
	r.syncColds += p.SyncColdStarts()
}

// --- failures ------------------------------------------------------------------

func (r *runner) failureTick() {
	now := r.eng.Now()
	if now < r.end {
		r.eng.Schedule(r.cfg.FailureEvery, r.failureTickFn)
	}
	if r.red != nil {
		if r.red.failNext() {
			r.failures++
		}
		return
	}
	if r.cur == nil || r.cur.node.Device == nil || r.cur.node.Revoked() {
		return
	}
	r.failures++
	r.clu.Fail(r.cur.node, r.cfg.FailureDuration)
	r.ensureFailover()
}

// revokeTick injects one spot revocation: in redundancy mode the next spot
// pool in round-robin order gets its notice; in the plain path the serving
// node does (if it is spot), and a failover replacement is procured while it
// drains.
func (r *runner) revokeTick() {
	now := r.eng.Now()
	if now < r.end {
		r.eng.Schedule(r.cfg.RevokeEvery, r.revokeTickFn)
	}
	if r.red != nil {
		r.red.revokeNext()
		return
	}
	if r.cur == nil || !r.cur.node.Spot() || r.cur.node.Revoked() {
		return
	}
	r.clu.Revoke(r.cur.node, r.cfg.RevokeNotice)
	r.ensureFailover()
}

// ensureFailover procures the failure-study replacement node if the current
// one is down and nothing is on the way.
func (r *runner) ensureFailover() {
	if r.procured || r.cur == nil {
		return
	}
	r.reconfigure(FailoverSpec(r.cur.node.Spec))
}
