package tester

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// TestProgramSharedByATEs pins the tester image split: every ATE of one
// Program reads the Program's good planes (one build, no per-ATE copy),
// testing lots never replaces them, and concurrent ATEs over the shared
// image agree with a fresh New ATE lot for lot. Run under `make race`.
func TestProgramSharedByATEs(t *testing.T) {
	c, universe, patterns := setup(t)
	prog, err := NewProgram(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if prog.planes == nil {
		t.Fatal("NewProgram built no good planes")
	}
	rng := rand.New(rand.NewSource(28))
	var lots []defect.Lot
	var want []LotResult
	for _, n0 := range []float64{1.5, 5} {
		lot, err := defect.GenerateLotFromModel(0.2, n0, universe, 200, rng)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(c, patterns)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fresh.TestLotSteps(lot)
		if err != nil {
			t.Fatal(err)
		}
		lots, want = append(lots, lot), append(want, res)
	}
	ates := make([]*ATE, 4)
	errs := make([]error, len(ates))
	var wg sync.WaitGroup
	for w := range ates {
		ates[w] = prog.NewATE()
		if ates[w].Program() != prog || ates[w].pp256.planes != prog.planes {
			t.Fatalf("ATE %d does not share its Program's image", w)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, lot := range lots {
					got, err := ates[w].TestLotSteps(lot)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(want[i], got) {
						errs[w] = fmt.Errorf("ATE %d rep %d lot %d: result differs from a fresh ATE's", w, rep, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Error(err)
		}
		if ates[w].pp256.planes != prog.planes {
			t.Errorf("ATE %d replaced the Program's planes", w)
		}
	}
}

// TestChipWalkBuildsNoWideSim: a batch too wide for one word that the
// density rule sends to the chip walk needs the 4-word forcing table
// (the rule reads it) but walks only the 1-word state, so the 4-word
// WideSim must never be built; the first fails still match the oracle.
func TestChipWalkBuildsNoWideSim(t *testing.T) {
	c, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 28)
	if err != nil {
		t.Fatal(err)
	}
	patterns := atpg.Take(src, 130)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	// 100 one-fault chips: one 4-word batch forcing at most 100 slots,
	// well under a quarter of the circuit's logic slots.
	lot := defect.Lot{Universe: universe}
	for i := 0; i < 100; i++ {
		lot.Chips = append(lot.Chips, defect.Chip{Faults: []int{i * len(universe) / 100}})
	}
	got, err := a.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	st := a.pp256
	if st.chipWalks == 0 || st.denseWalks != 0 {
		t.Fatalf("%d chip and %d forced walks; want the chip walk alone",
			st.chipWalks, st.denseWalks)
	}
	if st.forces[1] == nil || st.sims[1] != nil {
		t.Errorf("4-word forcing table built %v, 4-word WideSim built %v; want the table alone",
			st.forces[1] != nil, st.sims[1] != nil)
	}
	o, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.agrees(lot, got); err != nil {
		t.Fatal(err)
	}
}
