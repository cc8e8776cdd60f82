package tester

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func setup(t *testing.T) (*netlist.Circuit, []fault.Fault, []logicsim.Pattern) {
	t.Helper()
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 11)
	if err != nil {
		t.Fatal(err)
	}
	return c, universe, atpg.Take(src, 128)
}

func TestNewErrors(t *testing.T) {
	c := netlist.C17()
	if _, err := New(c, nil); err == nil {
		t.Error("no patterns should error")
	}
}

func TestGoodChipNeverFails(t *testing.T) {
	c, universe, patterns := setup(t)
	o, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	ff, err := o.TestChip(defect.Chip{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	if ff != NeverFails {
		t.Errorf("fault-free chip failed at %d", ff)
	}
	if o.a.Patterns() != len(patterns) {
		t.Error("Patterns() wrong")
	}
}

func injections(universe []fault.Fault) []logicsim.Injection {
	inj := make([]logicsim.Injection, len(universe))
	for i, f := range universe {
		inj[i] = logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}
	}
	return inj
}

func TestSingleFaultChipMatchesFaultSim(t *testing.T) {
	// A chip with exactly one fault must first-fail at exactly the
	// pattern the fault simulator says first detects that fault.
	c, universe, patterns := setup(t)
	o, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	res, err := faultsim.Run(c, universe, patterns, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	for fi := 0; fi < len(universe); fi += 7 {
		ff, err := o.TestChip(defect.Chip{Faults: []int{fi}}, inj)
		if err != nil {
			t.Fatal(err)
		}
		want := res.FirstDetect[fi]
		if want == faultsim.NotDetected {
			want = NeverFails
		}
		if ff != want {
			t.Errorf("fault %d: ATE first-fail %d, fault sim %d", fi, ff, want)
		}
	}
}

func TestMultiFaultChipFailsNoLaterThanEasiestFault(t *testing.T) {
	// With several faults on board, the chip should usually fail at or
	// before the earliest single-fault detection (fault masking can
	// delay it in principle, but must be rare). We assert: at least 90%
	// of multi-fault chips fail no later than their easiest fault, and
	// none pass everything if any single fault is detectable.
	c, universe, patterns := setup(t)
	o, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	res, err := faultsim.Run(c, universe, patterns, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	rng := rand.New(rand.NewSource(21))
	onTime, total := 0, 0
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(8)
		fidx := make([]int, 0, k)
		seen := make(map[int]bool)
		for len(fidx) < k {
			fi := rng.Intn(len(universe))
			if !seen[fi] {
				seen[fi] = true
				fidx = append(fidx, fi)
			}
		}
		easiest := math.MaxInt32
		for _, fi := range fidx {
			if d := res.FirstDetect[fi]; d != faultsim.NotDetected && d < easiest {
				easiest = d
			}
		}
		if easiest == math.MaxInt32 {
			continue
		}
		ff, err := o.TestChip(defect.Chip{Faults: fidx}, inj)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if ff == NeverFails {
			t.Errorf("chip with detectable faults passed all patterns (faults %v)", fidx)
			continue
		}
		if ff <= easiest {
			onTime++
		}
	}
	if float64(onTime) < 0.9*float64(total) {
		t.Errorf("only %d/%d chips failed by their easiest fault", onTime, total)
	}
}

func TestTestLotStatistics(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	lot, err := defect.GenerateLotFromModel(0.3, 5, universe, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FirstFail) != 500 {
		t.Fatal("first-fail length")
	}
	if res.TrueYield != lot.Yield {
		t.Errorf("true yield %v != lot yield %v", res.TrueYield, lot.Yield)
	}
	// Tested yield >= true yield (escapes only add passes).
	if res.TestedYield < res.TrueYield {
		t.Errorf("tested yield %v below true yield %v", res.TestedYield, res.TrueYield)
	}
	wantEscapes := int(math.Round((res.TestedYield - res.TrueYield) * 500))
	if res.Escapes != wantEscapes {
		t.Errorf("escapes %d inconsistent with yields (want %d)", res.Escapes, wantEscapes)
	}
}

// TestFalloutTable checks the Table 1 reduction at checkpoint rows of
// a change-point ramp: between change points a row carries the last
// point's coverage.
func TestFalloutTable(t *testing.T) {
	res := LotResult{FirstFail: []int{0, 0, 3, NeverFails, 7}}
	ramp := faultsim.Ramp{Points: []faultsim.CoveragePoint{
		{Pattern: 0, Detected: 1, Coverage: 0.1},
		{Pattern: 2, Detected: 4, Coverage: 0.4},
		{Pattern: 9, Detected: 10, Coverage: 1},
	}, Steps: 10}
	rows, err := FalloutTableRamp(res, ramp, []int{0, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	wantFailed := []int{2, 3, 4}
	wantCov := []float64{0.1, 0.4, 1.0}
	for i, row := range rows {
		if row.CumFailed != wantFailed[i] {
			t.Errorf("row %d failed = %d, want %d", i, row.CumFailed, wantFailed[i])
		}
		if math.Abs(row.Coverage-wantCov[i]) > 1e-12 {
			t.Errorf("row %d coverage = %v, want %v", i, row.Coverage, wantCov[i])
		}
		if math.Abs(row.CumFracton-float64(wantFailed[i])/5) > 1e-12 {
			t.Errorf("row %d fraction = %v", i, row.CumFracton)
		}
	}
}

func TestFalloutTableErrors(t *testing.T) {
	res := LotResult{FirstFail: []int{0}}
	if _, err := FalloutTableRamp(res, faultsim.Ramp{}, []int{0}); err == nil {
		t.Error("empty ramp should error")
	}
	ramp := faultsim.Ramp{Points: []faultsim.CoveragePoint{{Pattern: 0, Detected: 1, Coverage: 0.5}}, Steps: 1}
	if _, err := FalloutTableRamp(res, ramp, []int{5}); err == nil {
		t.Error("checkpoint beyond ramp should error")
	}
	ramp.Steps = 10
	if _, err := FalloutTableRamp(res, ramp, []int{0, 4, 3}); err == nil {
		t.Error("decreasing checkpoints should error")
	}
	if _, err := FalloutTableRamp(res, ramp, []int{0, 3, 3, 9}); err != nil {
		t.Errorf("repeated checkpoint rejected: %v", err)
	}
}

// falloutTableLoop is the per-checkpoint scan FalloutTableRamp replaced,
// kept as its oracle: every chip is scanned once per checkpoint.
func falloutTableLoop(res LotResult, ramp faultsim.Ramp, checkpoints []int) []FalloutRow {
	rows := make([]FalloutRow, 0, len(checkpoints))
	total := len(res.FirstFail)
	for _, cp := range checkpoints {
		failed := 0
		for _, ff := range res.FirstFail {
			if ff != NeverFails && ff <= cp {
				failed++
			}
		}
		rows = append(rows, FalloutRow{
			Coverage:   ramp.At(cp).Coverage,
			CumFailed:  failed,
			CumFracton: float64(failed) / float64(total),
		})
	}
	return rows
}

// TestFalloutTableMatchesLoop pins the one-pass reduction to the
// per-checkpoint scan on random lots and checkpoint lists, repeated
// checkpoints and first fails on, between and past them included.
func TestFalloutTableMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		steps := 1 + rng.Intn(300)
		fd := make([]int, 1+rng.Intn(80))
		for i := range fd {
			fd[i] = faultsim.NotDetected
			if rng.Intn(3) > 0 {
				fd[i] = rng.Intn(steps)
			}
		}
		ramp := faultsim.SparseRamp(faultsim.Result{FirstDetect: fd, Patterns: steps})
		res := LotResult{FirstFail: make([]int, 1+rng.Intn(500))}
		for i := range res.FirstFail {
			res.FirstFail[i] = NeverFails
			if rng.Intn(4) > 0 {
				res.FirstFail[i] = rng.Intn(steps)
			}
		}
		checkpoints := make([]int, rng.Intn(12))
		for i := range checkpoints {
			checkpoints[i] = rng.Intn(steps)
		}
		sort.Ints(checkpoints)
		got, err := FalloutTableRamp(res, ramp, checkpoints)
		if err != nil {
			t.Fatal(err)
		}
		if want := falloutTableLoop(res, ramp, checkpoints); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rows %+v, per-checkpoint scan %+v", trial, got, want)
		}
	}
}

func TestChipBadFaultIndex(t *testing.T) {
	c, universe, patterns := setup(t)
	o, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.TestChip(defect.Chip{Faults: []int{len(universe) + 5}}, injections(universe)); err == nil {
		t.Error("out-of-universe fault index should error")
	}
}

func BenchmarkTestLot277(b *testing.B) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, _ := atpg.NewRandomSource(len(c.Inputs), 11)
	patterns := atpg.Take(src, 128)
	a, err := New(c, patterns)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	lot, err := defect.GenerateLotFromModel(0.07, 8.8, universe, 277, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.TestLotSteps(lot); err != nil {
			b.Fatal(err)
		}
	}
}
