package profile

// The precomputed (model x hardware) tables must be invisible: every
// table-backed accessor has to return exactly what the on-the-fly profiling
// formulas return, for catalog pairs (table hit) and doctored specs (compute
// fallback) alike.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/raceflag"
)

// testSLO is the vision-model SLO the capability probes are exercised at.
const testSLO = 200 * time.Millisecond

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run in non-race builds")
	}
}

// TestTableMatchesCompute sweeps every catalog pair, asserting each
// table-backed accessor agrees exactly with the pure profiling formulas.
func TestTableMatchesCompute(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			want := computeEntry(m, hw)
			if got := Lookup(m, hw); !reflect.DeepEqual(got, want) {
				t.Errorf("Lookup(%s, %s) = %+v, want computed %+v", m.Name, hw.Name, got, want)
			}
			if got := SoloSample(m, hw); got != want.SoloSample {
				t.Errorf("SoloSample(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.SoloSample)
			}
			if got := FBR(m, hw); got != want.FBR {
				t.Errorf("FBR(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.FBR)
			}
			if got := PreferredBatch(m, hw); got != want.PreferredBatch {
				t.Errorf("PreferredBatch(%s, %s) = %d, want %d", m.Name, hw.Name, got, want.PreferredBatch)
			}
			if got := ThroughputRPS(m, hw); got != want.ThroughputRPS {
				t.Errorf("ThroughputRPS(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.ThroughputRPS)
			}
			if got := MaxResidentJobs(m, hw); got != want.MaxResidentJobs {
				t.Errorf("MaxResidentJobs(%s, %s) = %d, want %d", m.Name, hw.Name, got, want.MaxResidentJobs)
			}
			if got := SoloAtPreferred(m, hw); got != want.SoloBatch {
				t.Errorf("SoloAtPreferred(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.SoloBatch)
			}
			// Solo and ComputeFraction memos: in-range, boundary, and
			// beyond-MaxBatch (compute fallback) batch sizes.
			for _, b := range []int{0, 1, 2, 3, m.MaxBatch - 1, m.MaxBatch, m.MaxBatch + 1, 4 * m.MaxBatch} {
				if got, want := Solo(m, hw, b), computeSolo(m, hw, b); got != want {
					t.Errorf("Solo(%s, %s, %d) = %v, want %v", m.Name, hw.Name, b, got, want)
				}
				if got, want := ComputeFraction(m, hw, b), computeComputeFraction(m, hw, b); got != want {
					t.Errorf("ComputeFraction(%s, %s, %d) = %v, want %v", m.Name, hw.Name, b, got, want)
				}
			}
		}
	}
}

// TestRowMatchesCompute checks every catalog pair's row handle against the
// pure profiling formulas at every batch size the memos cover and past them
// (the compute fallback), and that Resolve hands out the shared catalog row.
func TestRowMatchesCompute(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			row := Resolve(m, hw)
			if row != Resolve(m, hw) {
				t.Fatalf("Resolve(%s, %s) returned a fresh row for a catalog pair", m.Name, hw.Name)
			}
			if !reflect.DeepEqual(row.Entry, computeEntry(m, hw)) {
				t.Errorf("Resolve(%s, %s).Entry = %+v, want computed %+v", m.Name, hw.Name, row.Entry, computeEntry(m, hw))
			}
			checkRowBatches(t, row, m, hw)
		}
	}
}

// TestDoctoredRowMatchesCompute checks the same for doctored specs: their
// rows are profiled afresh, never the catalog row of the same name.
func TestDoctoredRowMatchesCompute(t *testing.T) {
	m := model.MustByName("ResNet 50")
	hw, _ := hardware.ByName("M60")
	fastHW := hw
	fastHW.ComputeScore *= 2
	heavyM := m
	heavyM.GFLOPsPerSample *= 2
	heavyM.MaxBatch = 48 // not a power of two: the memo ends mid-range
	for _, pair := range []struct {
		m  model.Spec
		hw hardware.Spec
	}{{m, fastHW}, {heavyM, hw}, {heavyM, fastHW}} {
		row := Resolve(pair.m, pair.hw)
		if row == Resolve(m, hw) {
			t.Fatalf("doctored pair (%s, %s) resolved to the catalog row", pair.m.Name, pair.hw.Name)
		}
		if !reflect.DeepEqual(row.Entry, computeEntry(pair.m, pair.hw)) {
			t.Errorf("doctored row Entry = %+v, want computed %+v", row.Entry, computeEntry(pair.m, pair.hw))
		}
		checkRowBatches(t, row, pair.m, pair.hw)
	}
}

// checkRowBatches asserts the row's Solo and ComputeFraction equal the
// profiling formulas bit for bit for batch sizes 0..MaxBatch+2, and that the
// Spec-keyed forms agree with the row.
func checkRowBatches(t *testing.T, row *Row, m model.Spec, hw hardware.Spec) {
	t.Helper()
	for b := 0; b <= m.MaxBatch+2; b++ {
		if got, want := row.Solo(b), computeSolo(m, hw, b); got != want {
			t.Errorf("Row(%s, %s).Solo(%d) = %v, want %v", m.Name, hw.Name, b, got, want)
		}
		if got, want := row.ComputeFraction(b), computeComputeFraction(m, hw, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Row(%s, %s).ComputeFraction(%d) = %v, want %v", m.Name, hw.Name, b, got, want)
		}
		if got := Solo(m, hw, b); got != row.Solo(b) {
			t.Errorf("Solo(%s, %s, %d) = %v, row says %v", m.Name, hw.Name, b, got, row.Solo(b))
		}
		if got := ComputeFraction(m, hw, b); math.Float64bits(got) != math.Float64bits(row.ComputeFraction(b)) {
			t.Errorf("ComputeFraction(%s, %s, %d) = %v, row says %v", m.Name, hw.Name, b, got, row.ComputeFraction(b))
		}
	}
}

// TestDoctoredSpecBypassesTable pins the safety property of pairIndex: a spec
// that shares a catalog name but differs in any field must be profiled on the
// fly, never served a stale table row.
func TestDoctoredSpecBypassesTable(t *testing.T) {
	m := model.MustByName("ResNet 50")
	hw, _ := hardware.ByName("M60")
	fast := hw
	fast.ComputeScore *= 2
	if Lookup(m, fast).SoloSample >= Lookup(m, hw).SoloSample {
		t.Fatal("doubling ComputeScore did not change the profiled entry; table served a stale row")
	}
	mm := m
	mm.GFLOPsPerSample *= 2
	if Lookup(mm, hw).SoloSample <= Lookup(m, hw).SoloSample {
		t.Fatal("doubling GFLOPsPerSample did not change the profiled entry; table served a stale row")
	}
}

// TestPenaltyByJobsMemo checks the precomputed contention curve is exactly
// Penalty(k*FBR) for every k the Eq. (1) walk may index.
func TestPenaltyByJobsMemo(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			e := Lookup(m, hw)
			if len(e.PenaltyByJobs) != MPSMaxClients+1 {
				t.Fatalf("PenaltyByJobs(%s, %s) has %d entries, want %d", m.Name, hw.Name, len(e.PenaltyByJobs), MPSMaxClients+1)
			}
			for k, got := range e.PenaltyByJobs {
				if want := Penalty(float64(k) * e.FBR); got != want {
					t.Errorf("PenaltyByJobs[%d](%s, %s) = %v, want Penalty(%d*FBR) = %v", k, m.Name, hw.Name, got, k, want)
				}
			}
		}
	}
}

// TestAppendCapablePool checks the scratch-reusing variant returns exactly
// CapablePool's pool and appends after existing elements without allocating
// once capacity exists.
func TestAppendCapablePool(t *testing.T) {
	m := model.MustByName("ResNet 50")
	for _, rate := range []float64{0, 10, 120, 400, 5000} {
		want := CapablePool(m, rate, testSLO)
		scratch := make([]hardware.Spec, 0, 8)
		got := AppendCapablePool(scratch, m, rate, testSLO)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AppendCapablePool at %.0f rps = %v, want %v", rate, got, want)
		}
		// Appending after a sentinel leaves it untouched.
		sentinel := hardware.MostPerformant(hardware.CPU)
		withPrefix := AppendCapablePool([]hardware.Spec{sentinel}, m, rate, testSLO)
		if len(withPrefix) != len(want)+1 || withPrefix[0] != sentinel || !reflect.DeepEqual(withPrefix[1:], want) {
			t.Errorf("AppendCapablePool with prefix at %.0f rps = %v, want sentinel + %v", rate, withPrefix, want)
		}
	}
}

// TestCatalogCostOrderDistinct pins the invariant AppendCapablePool's
// no-sort walk relies on: catalog prices are pairwise distinct, so the
// cost-sorted snapshot is a strict total order and filtering it yields the
// same sequence as sorting a filtered copy.
func TestCatalogCostOrderDistinct(t *testing.T) {
	seen := map[float64]string{}
	for _, hw := range hardware.Catalog() {
		if prev, dup := seen[hw.CostPerHour]; dup {
			t.Fatalf("catalog prices collide: %s and %s both cost %.2f/h", prev, hw.Name, hw.CostPerHour)
		}
		seen[hw.CostPerHour] = hw.Name
	}
	cs := hardware.CostSorted()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].CostPerHour >= cs[i].CostPerHour {
			t.Fatalf("CostSorted not strictly ascending at %d: %v then %v", i, cs[i-1], cs[i])
		}
	}
}

func TestTableReadsAllocFree(t *testing.T) {
	skipIfRace(t)
	m := model.MustByName("ResNet 50")
	hw, _ := hardware.ByName("M60")
	var e Entry
	if allocs := testing.AllocsPerRun(100, func() { e = Lookup(m, hw) }); allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects/op, want 0", allocs)
	}
	_ = e
	if allocs := testing.AllocsPerRun(100, func() { Solo(m, hw, 48) }); allocs != 0 {
		t.Errorf("Solo allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { Resolve(m, hw).ComputeFraction(48) }); allocs != 0 {
		t.Errorf("Resolve allocates %.1f objects/op for a catalog pair, want 0", allocs)
	}
	dst := make([]hardware.Spec, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = AppendCapablePool(dst[:0], m, 120, testSLO)
	}); allocs != 0 {
		t.Errorf("AppendCapablePool allocates %.1f objects/op with warm scratch, want 0", allocs)
	}
}
