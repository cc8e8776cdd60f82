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

// TestLotEngineEquivalenceProperty is the randomized pin: over random
// circuits, lots, and seeds, chipparallel256 must reproduce the per-chip
// oracle's first failing strobes bit for bit, along with every derived
// statistic, and each must lie in the oracle's first failing pattern.
func TestLotEngineEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1981))
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		c, err := netlist.RandomCircuit(fmt.Sprintf("r%d", trial), 6+rng.Intn(6), 40+rng.Intn(120), 3+rng.Intn(6), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		src, err := atpg.NewRandomSource(len(c.Inputs), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		patterns := atpg.Take(src, 48+rng.Intn(100))
		// Low yield and large-ish lots force several re-pack rounds
		// through the chunk schedule.
		y := 0.05 + rng.Float64()*0.5
		n0 := 1 + rng.Float64()*7
		chips := 150 + rng.Intn(250)
		lot, err := defect.GenerateLotFromModel(y, n0, universe, chips, rng)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := newOracle(c, patterns)
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(c, patterns)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.TestLotSteps(lot)
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.agrees(lot, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestLotEnginesAgreeOnDeepCircuit pins chipparallel256 to the per-chip
// oracle on a 1000-gate LSIChip, where long-surviving chips make the
// divergence walk carry most batches — setup()'s mul4 is too small for
// it to run much. The yield × n0 grid spans dense batches (n0 8.8: a
// fresh 255-chip batch forces much of the circuit, the linear walk)
// and sparse ones (n0 1.5 and pruned survivors, the divergence walk);
// the per-state walk counters show that both sides of the density rule
// ran.
func TestLotEnginesAgreeOnDeepCircuit(t *testing.T) {
	c, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 1974)
	if err != nil {
		t.Fatal(err)
	}
	patterns := atpg.Take(src, 200)
	serial, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7552))
	wide, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{0.1, 0.5} {
		for _, n0 := range []float64{1.5, 8.8} {
			lot, err := defect.GenerateLotFromModel(y, n0, universe, 300, rng)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wide.TestLotSteps(lot)
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.agrees(lot, got); err != nil {
				t.Fatalf("y=%v n0=%v: %v", y, n0, err)
			}
		}
	}
	if st := wide.pp256; st.denseWalks == 0 || st.sparseWalks == 0 {
		t.Errorf("%d dense and %d divergence walks; want both sides of the density rule",
			st.denseWalks, st.sparseWalks)
	}
}

func TestLotEnginesAgreeOnDoublePolarityChips(t *testing.T) {
	// A chip can carry both polarities of one site (distinct universe
	// entries); the last fault in the chip's list wins the site.
	// chipparallel256 and the oracle must apply the same
	// order-dependent overwrite.
	c, universe, patterns := setup(t)
	var a, b int
	found := false
	for i := range universe {
		for j := i + 1; j < len(universe); j++ {
			if universe[i].Gate == universe[j].Gate && universe[i].Pin == universe[j].Pin &&
				universe[i].Stuck != universe[j].Stuck {
				a, b, found = i, j, true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no double-polarity site in the collapsed universe")
	}
	lot := defect.Lot{
		Universe: universe,
		Chips: []defect.Chip{
			{Faults: []int{a, b}},
			{Faults: []int{b, a}},
			{},
		},
	}
	serial, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.agrees(lot, got); err != nil {
		t.Errorf("double-polarity chips: %v", err)
	}
}

func TestLotResultPassedConsistent(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	lot, err := defect.GenerateLotFromModel(0.25, 4, universe, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	passed := 0
	for _, ff := range res.FirstFail {
		if ff == NeverFails {
			passed++
		}
	}
	if res.Passed != passed {
		t.Errorf("Passed %d, hand count %d", res.Passed, passed)
	}
	if res.TestedYield != float64(passed)/400 {
		t.Errorf("TestedYield %v inconsistent with Passed %d", res.TestedYield, passed)
	}
	good := 0
	for _, ch := range lot.Chips {
		if !ch.Defective() {
			good++
		}
	}
	if res.Passed-good != res.Escapes {
		t.Errorf("Passed %d - good %d != Escapes %d", res.Passed, good, res.Escapes)
	}
}

func TestChipBadFaultIndexBothEngines(t *testing.T) {
	c, universe, patterns := setup(t)
	lot := defect.Lot{
		Universe: universe,
		Chips:    []defect.Chip{{Faults: []int{len(universe) + 3}}},
	}
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TestLotSteps(lot); err == nil {
		t.Error("chipparallel256: out-of-universe fault index should error")
	}
	serial, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.testLot(lot, false); err == nil {
		t.Error("oracle: out-of-universe fault index should error")
	}
}

// TestConcurrentATEsShareCircuit exercises the contract the sweep's
// worker pool relies on: many goroutines with one ATE each over the
// *same* circuit and pattern set (sharing the circuit's cached
// levelization/cone state) must see identical results. Run under
// `make race`.
func TestConcurrentATEsShareCircuit(t *testing.T) {
	c, universe, patterns := setup(t)
	rng := rand.New(rand.NewSource(3))
	lot, err := defect.GenerateLotFromModel(0.2, 5, universe, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Odd workers run the per-chip oracle, whose pointer
			// simulator reads the same cached circuit state.
			var test func(defect.Lot) (LotResult, error)
			if w%2 == 0 {
				a, err := New(c, patterns)
				if err != nil {
					errs[w] = err
					return
				}
				test = a.TestLotSteps
			} else {
				o, err := newOracle(c, patterns)
				if err != nil {
					errs[w] = err
					return
				}
				test = func(lot defect.Lot) (LotResult, error) { return o.testLot(lot, true) }
			}
			for rep := 0; rep < 3; rep++ {
				got, err := test(lot)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(want, got) {
					errs[w] = fmt.Errorf("worker %d rep %d: result drifted", w, rep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
