package core

// The Spec-keyed Algorithm 1 pass that predates the per-(model, SLO)
// selection table, retained (comments trimmed) as a test oracle: get_HW_pool
// rebuilt from profile.AppendCapablePool on every call and every candidate
// re-keyed through profile.Lookup / EffectiveBatch / Solo. The table-driven
// DesiredHardware must return exactly the same node on every input.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/queueing"
)

// referencePaldiaHardwareAtRate is the pre-table paldiaHardwareAtRate.
func referencePaldiaHardwareAtRate(s *State, rate float64) hardware.Spec {
	pool := profile.AppendCapablePool(nil, s.Model, rate, s.SLO)
	n := paldiaPlanN(rate, s.SLO, s.Pending)

	type cand struct {
		hw   hardware.Spec
		tmax time.Duration
	}
	var cands []cand
	in := perfmodel.Inputs{N: n, SLO: s.SLO}
	for _, hw := range pool {
		e := profile.Lookup(s.Model, hw)
		if !hw.IsGPU() {
			backlog := time.Duration(0)
			if s.HasCurrent && s.Current.Name == hw.Name {
				backlog = s.Backlog
			}
			win := s.Window
			if win <= 0 {
				win = DefaultDispatchWindow
			}
			nWin := int(rate * win.Seconds())
			if s.Pending > nWin {
				nWin = s.Pending
			}
			b := profile.EffectiveBatch(s.Model, hw, rate, s.SLO/4)
			solo := profile.Solo(s.Model, hw, b)
			tmax := perfmodel.ApproxCPUTMax(solo, b, nWin, backlog)
			rho := queueing.Utilization(rate/float64(b), solo)
			if wait := queueing.TailWait(rho, solo); wait >= queueing.Unstable {
				tmax += s.SLO
			} else {
				tmax += wait
			}
			cands = append(cands, cand{hw, tmax})
			continue
		}
		in.Solo = e.SoloBatch
		in.BatchSize = e.PreferredBatch
		in.FBR = e.FBR
		in.ComputeFrac = e.ComputeFrac
		in.PenaltyByJobs = e.PenaltyByJobs
		in.ExistingDemand, in.ExistingCompute = 0, 0
		in.ExistingJobs, in.ExistingLane = 0, 0
		if s.HasCurrent && s.Current.Name == hw.Name {
			in.ExistingDemand = s.ActiveDemand
			in.ExistingCompute = s.ActiveCompute
			in.ExistingJobs = s.ActiveJobs
			in.ExistingLane = s.LaneBacklog
		}
		_, tmax, _ := perfmodel.BestY(in)
		cands = append(cands, cand{hw, tmax})
	}
	if len(cands) == 0 {
		return hardware.MostPerformant(hardware.GPU)
	}
	best := cands[0].tmax
	for _, c := range cands[1:] {
		if c.tmax < best {
			best = c.tmax
		}
	}
	for _, c := range cands {
		if c.tmax <= best+chooseBestHWWindow {
			return c.hw
		}
	}
	return cands[len(cands)-1].hw
}

// referenceCheapestIsolated is the pre-table cheapestIsolated.
func referenceCheapestIsolated(s *State) hardware.Spec {
	rate := s.ObservedRPS
	for _, hw := range hardware.CostSorted() {
		e := profile.Lookup(s.Model, hw)
		if e.SoloBatch > s.SLO*3/4 {
			continue
		}
		if rate > profile.Headroom*e.ThroughputRPS {
			continue
		}
		return hw
	}
	return hardware.MostPerformant(hardware.GPU)
}

// sustainEdges returns, for every catalog node, the rates on both sides of
// the point where CanSustain flips (found by bisection at the SLO's
// capability batching budget), so the grid lands exactly on each node's
// admission boundary.
func sustainEdges(m model.Spec, slo time.Duration) []float64 {
	wait := profile.CapabilityMaxWait(slo)
	var out []float64
	for _, hw := range hardware.Catalog() {
		lo, hi := 0.0, 1e6
		if profile.CanSustain(m, hw, hi, wait) {
			continue
		}
		for i := 0; i < 200 && hi-lo > 1e-9; i++ {
			mid := (lo + hi) / 2
			if profile.CanSustain(m, hw, mid, wait) {
				lo = mid
			} else {
				hi = mid
			}
		}
		out = append(out, lo, hi)
	}
	return out
}

// selectionCase is one current-node condition the pass is probed under.
type selectionCase struct {
	name  string
	apply func(s *State)
}

func selectionCases() []selectionCase {
	cases := []selectionCase{{name: "no-current", apply: func(*State) {}}}
	for _, hw := range hardware.Catalog() {
		hw := hw
		if hw.IsGPU() {
			cases = append(cases, selectionCase{
				name: "gpu-busy-" + hw.Name,
				apply: func(s *State) {
					s.Current, s.HasCurrent = hw, true
					s.Row = profile.Resolve(s.Model, hw)
					s.ActiveDemand, s.ActiveCompute, s.ActiveJobs = 1.3, 0.7, 5
					s.LaneBacklog = 180 * time.Millisecond
					s.Backlog = 400 * time.Millisecond
					s.Pending = 90
				},
			})
			continue
		}
		cases = append(cases, selectionCase{
			name: "cpu-backlog-" + hw.Name,
			apply: func(s *State) {
				s.Current, s.HasCurrent = hw, true
				s.Row = profile.Resolve(s.Model, hw)
				s.Backlog = 250 * time.Millisecond
				s.Pending = 12
			},
		})
	}
	return cases
}

// TestTableSelectionMatchesReference sweeps every catalog model, several
// SLOs, a rate grid through every node's sustainability edge and past every
// node (the fallback GPU), and idle/busy GPU and backlogged CPU current
// nodes, asserting the table-driven pass picks exactly the reference's node
// for Paldia, its reactive ablation, the Oracle and the $-baselines' rule.
// One State serves every model and SLO, as the multi-tenant runner's does.
func TestTableSelectionMatchesReference(t *testing.T) {
	paldia, reactive, oracle := NewPaldia().Policy, NewPaldiaReactive().Policy, NewOracle().Policy
	slos := []time.Duration{100 * time.Millisecond, DefaultSLO, 500 * time.Millisecond, 2 * time.Second}
	st := &State{}
	checked, fallbacks := 0, 0
	for _, m := range model.Catalog() {
		for _, slo := range slos {
			edges := sustainEdges(m, slo)
			// CanSustain is not monotone in the rate (batching amortizes
			// the launch overhead), so walk up until no node sustains it.
			beyond := 1.0
			for _, e := range edges {
				beyond = max(beyond, e)
			}
			for i := 0; i < 30 && !noneCapable(m, beyond, slo); i++ {
				beyond *= 2
			}
			rates := append([]float64{0, 0.01, 0.5, 3, beyond}, edges...)
			for _, c := range selectionCases() {
				for _, rate := range rates {
					for _, other := range []float64{rate, rate / 3, rate * 2} {
						*st = State{
							Model: m, SLO: slo, Window: DefaultDispatchWindow,
							PredictedRPS: rate, ObservedRPS: other,
							tables: st.tables, candScratch: st.candScratch,
						}
						c.apply(st)
						tag := fmt.Sprintf("%s slo=%v %s pred=%g obs=%g", m.Name, slo, c.name, rate, other)
						if got, want := paldia.DesiredHardware(st), referencePaldiaHardwareAtRate(st, rate); got != want {
							t.Fatalf("Paldia %s: table pass chose %s, reference %s", tag, got.Name, want.Name)
						}
						if got, want := oracle.DesiredHardware(st), referencePaldiaHardwareAtRate(st, rate); got != want {
							t.Fatalf("Oracle %s: table pass chose %s, reference %s", tag, got.Name, want.Name)
						}
						if got, want := reactive.DesiredHardware(st), referencePaldiaHardwareAtRate(st, other); got != want {
							t.Fatalf("Paldia (reactive) %s: table pass chose %s, reference %s", tag, got.Name, want.Name)
						}
						if got, want := cheapestIsolated(st), referenceCheapestIsolated(st); got != want {
							t.Fatalf("cheapestIsolated %s: table pass chose %s, reference %s", tag, got.Name, want.Name)
						}
						checked++
						if noneCapable(m, rate, slo) {
							fallbacks++
						}
					}
				}
			}
		}
	}
	if want := len(model.Catalog()) * len(slos); len(st.tables) != want {
		t.Errorf("State cached %d selection tables, want one per (model, SLO) = %d", len(st.tables), want)
	}
	// The grid must genuinely reach the fallback branch, not agree on it
	// vacuously.
	if fallbacks == 0 {
		t.Error("no grid point left the capable pool empty; the fallback GPU was never exercised")
	}
	t.Logf("%d selection inputs agree (%d on the fallback GPU)", checked, fallbacks)
}

// noneCapable reports whether no catalog node passes get_HW_pool at the
// rate, so the pool is the fallback GPU alone.
func noneCapable(m model.Spec, rate float64, slo time.Duration) bool {
	for _, hw := range hardware.Catalog() {
		if profile.SoloAtPreferred(m, hw) <= slo*3/4 &&
			profile.CanSustain(m, hw, rate, profile.CapabilityMaxWait(slo)) {
			return false
		}
	}
	return true
}
