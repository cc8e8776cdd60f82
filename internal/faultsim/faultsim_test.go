package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// randomPatterns generates n reproducible random patterns for c.
func randomPatterns(c *netlist.Circuit, n int, seed int64) []logicsim.Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]logicsim.Pattern, n)
	for i := range out {
		p := make(logicsim.Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		out[i] = p
	}
	return out
}

func exhaustivePatterns(c *netlist.Circuit) []logicsim.Pattern {
	n := 1 << len(c.Inputs)
	out := make([]logicsim.Pattern, n)
	for v := 0; v < n; v++ {
		p := make(logicsim.Pattern, len(c.Inputs))
		for i := range p {
			p[i] = v>>i&1 == 1
		}
		out[v] = p
	}
	return out
}

func TestEnginesAgreeOnC17(t *testing.T) {
	c := netlist.C17()
	faults := fault.AllFaults(c)
	patterns := exhaustivePatterns(c)
	var results []Result
	for _, e := range Engines() {
		r, err := Run(c, faults, patterns, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		for fi := range faults {
			if results[0].FirstDetect[fi] != results[i].FirstDetect[fi] {
				t.Errorf("fault %v: %v first-detect %d, %v says %d",
					faults[fi].Name(c), Engines()[0], results[0].FirstDetect[fi],
					Engines()[i], results[i].FirstDetect[fi])
			}
		}
	}
}

func TestEnginesAgreeOnRandomCircuits(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit("r", 8, 60, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		patterns := randomPatterns(c, 100, seed*13)
		serial, err := Run(c, faults, patterns, Serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range Engines() {
			if e == Serial {
				continue // the oracle
			}
			r, err := Run(c, faults, patterns, e)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			for fi := range faults {
				if serial.FirstDetect[fi] != r.FirstDetect[fi] {
					t.Fatalf("seed %d fault %v: serial %d, %v %d",
						seed, faults[fi].Name(c), serial.FirstDetect[fi], e, r.FirstDetect[fi])
				}
			}
		}
	}
}

func TestC17FullCoverageExhaustive(t *testing.T) {
	// c17 is fully testable: exhaustive patterns detect every collapsed
	// fault.
	c := netlist.C17()
	u := fault.BuildUniverse(c)
	r, err := Run(c, fault.Reps(u.Collapsed), exhaustivePatterns(c), PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	if r.Coverage() != 1 {
		t.Errorf("c17 exhaustive coverage = %v, want 1 (undetected: %v)",
			r.Coverage(), Undetected(r))
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	c, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	patterns := randomPatterns(c, 200, 5)
	curve, res, err := CoverageCurve(c, fault.Reps(u.Collapsed), patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(patterns) {
		t.Fatalf("curve has %d points for %d patterns", len(curve), len(patterns))
	}
	prev := 0.0
	for i, pt := range curve {
		if pt.Coverage < prev {
			t.Fatalf("coverage decreased at pattern %d", i)
		}
		if pt.Pattern != i {
			t.Fatalf("pattern index wrong at %d", i)
		}
		prev = pt.Coverage
	}
	if got := curve[len(curve)-1].Coverage; got != res.Coverage() {
		t.Errorf("final curve point %v != result coverage %v", got, res.Coverage())
	}
	// Random patterns on an adder should be effective.
	if res.Coverage() < 0.9 {
		t.Errorf("200 random patterns only reached %v coverage", res.Coverage())
	}
}

func TestSteepThenFlatShape(t *testing.T) {
	// The paper: "a large proportion of chips is rejected by the first
	// few test patterns" because random-testable faults fall fast. The
	// coverage ramp should show the same shape: the first 10% of
	// patterns contribute most of the final coverage.
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	patterns := randomPatterns(c, 300, 9)
	curve, _, err := CoverageCurve(c, fault.Reps(u.Collapsed), patterns)
	if err != nil {
		t.Fatal(err)
	}
	early := curve[len(curve)/10].Coverage
	final := curve[len(curve)-1].Coverage
	if early < 0.6*final {
		t.Errorf("coverage ramp not steep: %v at 10%% of patterns vs %v final", early, final)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{FirstDetect: []int{0, 2, NotDetected, 1}, Patterns: 3}
	if r.DetectedBy(0) != 1 || r.DetectedBy(1) != 2 || r.DetectedBy(2) != 3 {
		t.Error("DetectedBy wrong")
	}
	if r.Coverage() != 0.75 {
		t.Errorf("Coverage = %v", r.Coverage())
	}
	if (Result{}).Coverage() != 0 {
		t.Error("empty coverage should be 0")
	}
	und := Undetected(r)
	if len(und) != 1 || und[0] != 2 {
		t.Errorf("Undetected = %v", und)
	}
}

func TestBuildDictionary(t *testing.T) {
	r := Result{FirstDetect: []int{0, 2, NotDetected, 0}, Patterns: 3}
	d := BuildDictionary(r)
	if len(d.ByPattern[0]) != 2 || d.ByPattern[0][0] != 0 || d.ByPattern[0][1] != 3 {
		t.Errorf("pattern 0 faults: %v", d.ByPattern[0])
	}
	if len(d.ByPattern[2]) != 1 {
		t.Errorf("pattern 2 faults: %v", d.ByPattern[2])
	}
	if _, ok := d.ByPattern[1]; ok {
		t.Error("pattern 1 should detect nothing first")
	}
}

func TestRunErrors(t *testing.T) {
	c := netlist.C17()
	faults := fault.AllFaults(c)
	if _, err := Run(c, faults, nil, PPSFP); err == nil {
		t.Error("no patterns should error")
	}
	// 2, 3 and 5 are the retired deductive, pf and pf256 values.
	for _, e := range []Engine{2, 3, 5, 99} {
		if _, err := Run(c, faults, exhaustivePatterns(c), e); err == nil {
			t.Errorf("unknown engine %d should error", int(e))
		}
	}
}

func TestEngineString(t *testing.T) {
	if Serial.String() != "serial" || PPSFP.String() != "ppsfp" || Concurrent.String() != "concurrent" {
		t.Error("engine names")
	}
	if got := EngineNames(); got != "ppsfp, serial, concurrent" {
		t.Errorf("registered engines %q", got)
	}
	if Engine(9).String() != "Engine(9)" {
		t.Error("unknown engine name")
	}
}

func TestGradeTests(t *testing.T) {
	c := netlist.C17()
	g, err := GradeTests(c, exhaustivePatterns(c))
	if err != nil {
		t.Fatal(err)
	}
	if g.Coverage != 1 || g.Detected != g.Faults || len(g.Undetected) != 0 {
		t.Errorf("grade: %+v", g)
	}
	if g.Circuit != "c17" {
		t.Error("circuit name missing")
	}
	// A single pattern cannot cover everything.
	g1, err := GradeTests(c, exhaustivePatterns(c)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if g1.Coverage >= 1 || len(g1.Undetected) == 0 {
		t.Errorf("one pattern graded at %v", g1.Coverage)
	}
}

func TestFaultDroppingDoesNotChangeFirstDetect(t *testing.T) {
	// Serial (no dropping) and PPSFP (dropping) must report identical
	// first-detect indices — dropping only skips re-simulation after
	// detection.
	c, err := netlist.Comparator(3)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.AllFaults(c)
	patterns := randomPatterns(c, 150, 3)
	a, err := Run(c, faults, patterns, Serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, faults, patterns, PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if a.FirstDetect[i] != b.FirstDetect[i] {
			t.Fatalf("fault %d: %d vs %d", i, a.FirstDetect[i], b.FirstDetect[i])
		}
	}
}

func BenchmarkPPSFPMul8(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	patterns := randomPatterns(c, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, reps, patterns, PPSFP); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialMul8(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	patterns := randomPatterns(c, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, reps, patterns, Serial); err != nil {
			b.Fatal(err)
		}
	}
}
