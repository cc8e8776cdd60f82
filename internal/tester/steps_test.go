package tester

import (
	"testing"

	"repro/internal/defect"
	"repro/internal/faultsim"
)

func TestTestChipStepsConsistent(t *testing.T) {
	// Strobe-granular first-fail must land inside the pattern that the
	// pattern-granular test reports.
	c, universe, patterns := setup(t)
	o, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	nOut := len(c.Outputs)
	for fi := 0; fi < len(universe); fi += 11 {
		chip := defect.Chip{Faults: []int{fi}}
		byPattern, err := o.TestChip(chip, inj)
		if err != nil {
			t.Fatal(err)
		}
		bySteps, err := o.TestChipSteps(chip, inj)
		if err != nil {
			t.Fatal(err)
		}
		if (byPattern == NeverFails) != (bySteps == NeverFails) {
			t.Fatalf("fault %d: detection disagreement", fi)
		}
		if byPattern == NeverFails {
			continue
		}
		if bySteps < byPattern*nOut || bySteps >= (byPattern+1)*nOut {
			t.Errorf("fault %d: step %d outside pattern %d", fi, bySteps, byPattern)
		}
	}
}

func TestTestLotStepsMatchesStepFaultSim(t *testing.T) {
	// Single-fault chips through TestLotSteps must agree with
	// faultsim.RunSteps exactly.
	c, universe, patterns := setup(t)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	stepRes, err := faultsim.RunSteps(c, universe, patterns)
	if err != nil {
		t.Fatal(err)
	}
	lot := defect.Lot{Universe: universe}
	for fi := 0; fi < len(universe); fi += 13 {
		lot.Chips = append(lot.Chips, defect.Chip{Faults: []int{fi}})
	}
	res, err := a.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for fi := 0; fi < len(universe); fi += 13 {
		want := stepRes.FirstDetect[fi]
		if want == faultsim.NotDetected {
			want = NeverFails
		}
		if res.FirstFail[i] != want {
			t.Errorf("fault %d: lot step %d, faultsim step %d", fi, res.FirstFail[i], want)
		}
		i++
	}
}
