package faultsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

func TestRunStepsConsistentWithPatternRun(t *testing.T) {
	// A fault first detected at pattern p must have a step index in
	// [p*nOut, (p+1)*nOut).
	c, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	patterns := randomPatterns(c, 80, 3)
	byPattern, err := Run(c, faults, patterns, PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	bySteps, err := RunSteps(c, faults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	nOut := len(c.Outputs)
	if bySteps.Patterns != len(patterns)*nOut {
		t.Fatalf("step count %d", bySteps.Patterns)
	}
	for fi := range faults {
		p := byPattern.FirstDetect[fi]
		s := bySteps.FirstDetect[fi]
		if (p == NotDetected) != (s == NotDetected) {
			t.Fatalf("fault %d: detection disagreement (pattern %d, step %d)", fi, p, s)
		}
		if p == NotDetected {
			continue
		}
		if s < p*nOut || s >= (p+1)*nOut {
			t.Errorf("fault %d: step %d not within pattern %d's strobes", fi, s, p)
		}
	}
	// Coverage identical at the end.
	if byPattern.Coverage() != bySteps.Coverage() {
		t.Errorf("coverage %v vs %v", byPattern.Coverage(), bySteps.Coverage())
	}
}

func TestStepCoverageCurveFiner(t *testing.T) {
	// The step curve has nOut times the resolution and is monotone.
	c := netlist.C17()
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	patterns := exhaustivePatterns(c)
	res, err := RunSteps(c, faults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	curve := CurveFromResult(res)
	if len(curve) != len(patterns)*len(c.Outputs) {
		t.Fatalf("curve length %d", len(curve))
	}
	prev := 0.0
	for i, pt := range curve {
		if pt.Coverage < prev {
			t.Fatalf("not monotone at step %d", i)
		}
		prev = pt.Coverage
	}
	if res.Coverage() != 1 {
		t.Errorf("c17 exhaustive step coverage %v", res.Coverage())
	}
	// Early strobes must carve the first pattern's detections into
	// smaller increments: the first step detects strictly less than the
	// whole first pattern (c17 has 2 outputs and both see detections).
	full, err := Run(c, faults, patterns, PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	firstPattern := full.DetectedBy(0)
	if curve[0].Detected >= firstPattern {
		t.Errorf("first strobe detects %d, full first pattern %d", curve[0].Detected, firstPattern)
	}
}
