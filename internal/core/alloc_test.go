package core

// Allocation gates for the per-tick control-plane paths: hardware selection
// and the Eq. (1) split both run every monitor/dispatch interval for every
// experiment cell, so their steady state (after scratch buffers have grown)
// must not allocate. The same bounds gate benchmarks in CI via
// cmd/paldia-bench -gate.

import (
	"testing"

	"repro/internal/raceflag"
)

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run in non-race builds")
	}
}

func TestDesiredHardwareAllocFree(t *testing.T) {
	skipIfRace(t)
	p := NewPaldia().Policy
	// Both selection regimes: a rate that lands on CPU candidates and one
	// that probes the full GPU pool.
	for _, rate := range []float64{10, 400} {
		st := mkState("ResNet 50", "M60", rate, rate)
		if allocs := testing.AllocsPerRun(100, func() { p.DesiredHardware(st) }); allocs != 0 {
			t.Fatalf("DesiredHardware at %.0f rps allocates %.1f objects/op, want 0", rate, allocs)
		}
	}
	// The multi-tenant runner reuses one State for every tenant's model: the
	// selection tables must be cached per (model, SLO), or alternating
	// models would rebuild one on every call.
	st, next := multiTenantState()
	if allocs := testing.AllocsPerRun(99, func() { next(); p.DesiredHardware(st) }); allocs != 0 {
		t.Fatalf("DesiredHardware alternating %d models on one State allocates %.1f objects/op, want 0",
			len(multiTenantModels), allocs)
	}
}

// multiTenantModels are the models RunMulti's one scratch State alternates
// between in the multi-tenant tests.
var multiTenantModels = []string{"ResNet 50", "GoogleNet", "MobileNet"}

// multiTenantState returns one State plus a step that switches it to the
// next tenant's model (rebuilt the way multiRunner.stateFor does, keeping
// the scratch), at a rate that probes GPU candidates.
func multiTenantState() (*State, func()) {
	tenants := make([]State, len(multiTenantModels))
	for i, name := range multiTenantModels {
		tenants[i] = *mkState(name, "M60", 400, 400)
	}
	st := &State{}
	i := -1
	next := func() {
		i = (i + 1) % len(tenants)
		tables, cands := st.tables, st.candScratch
		*st = tenants[i]
		st.tables, st.candScratch = tables, cands
	}
	next()
	return st, next
}

func TestSplitYAllocFree(t *testing.T) {
	skipIfRace(t)
	st := mkState("ResNet 50", "M60", 400, 400)
	p := NewPaldia().Policy
	if allocs := testing.AllocsPerRun(100, func() { p.SplitY(st, 400) }); allocs != 0 {
		t.Fatalf("SplitY allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCheapestIsolatedAllocFree(t *testing.T) {
	skipIfRace(t)
	st := mkState("ResNet 50", "M60", 120, 120)
	if allocs := testing.AllocsPerRun(100, func() { cheapestIsolated(st) }); allocs != 0 {
		t.Fatalf("cheapestIsolated allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDesiredHardware measures one full Algorithm 1 selection pass:
// capable-pool assembly plus a serial Eq. (1) probe of every GPU candidate.
func BenchmarkDesiredHardware(b *testing.B) {
	p := NewPaldia().Policy
	b.Run("single", func(b *testing.B) {
		st := mkState("ResNet 50", "M60", 400, 400)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.DesiredHardware(st)
		}
	})
	// One State alternating between tenants' models, as RunMulti's does.
	b.Run("multi-tenant", func(b *testing.B) {
		st, next := multiTenantState()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next()
			p.DesiredHardware(st)
		}
	})
}
