package tester

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func TestParseLotEngine(t *testing.T) {
	for _, e := range LotEngines() {
		got, err := ParseLotEngine(e.String())
		if err != nil || got != e {
			t.Errorf("round-trip %v: got %v, %v", e, got, err)
		}
		if !e.Known() {
			t.Errorf("%v not Known", e)
		}
	}
	if got := LotEngines(); !reflect.DeepEqual(got, []LotEngine{ChipParallel256, Serial}) {
		t.Errorf("registered lot engines %v", got)
	}
	var zero LotEngine
	if zero != ChipParallel256 {
		t.Errorf("zero-value lot engine is %v, want chipparallel256", zero)
	}
	// Unknown and retired names fail fast, naming what is registered.
	for _, name := range []string{"warp", "chip-parallel", ""} {
		_, err := ParseLotEngine(name)
		if err == nil {
			t.Errorf("ParseLotEngine(%q) accepted", name)
			continue
		}
		for _, e := range LotEngines() {
			if !strings.Contains(err.Error(), e.String()) {
				t.Errorf("ParseLotEngine(%q) error %q does not name %q", name, err, e)
			}
		}
	}
	if LotEngine(99).Known() {
		t.Error("bogus engine Known")
	}
	if _, err := NewEngine(netlist.C17(), []logicsim.Pattern{make(logicsim.Pattern, 5)}, LotEngine(99)); err == nil {
		t.Error("NewEngine with bogus engine should error")
	}
}

// TestLotEngineEquivalenceProperty is the randomized cross-engine pin:
// over random circuits, lots, and seeds, every registered lot engine
// must reproduce the Serial oracle's per-chip first-fail indices bit
// for bit, at both pattern and strobe granularity, along with every
// derived statistic. The loop iterates LotEngines(), so a new registry
// entry is pinned automatically.
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
		serial, err := NewEngine(c, patterns, Serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, steps := range []bool{false, true} {
			run := (*ATE).TestLot
			if steps {
				run = (*ATE).TestLotSteps
			}
			want, err := run(serial, lot)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range LotEngines() {
				if e == Serial {
					continue
				}
				par, err := NewEngine(c, patterns, e)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run(par, lot)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d steps=%v: engines disagree\nserial: %+v\n%v: %+v",
						trial, steps, want, e, got)
				}
			}
		}
	}
}

func TestLotEnginesAgreeOnDoublePolarityChips(t *testing.T) {
	// A chip can carry both polarities of one site (distinct universe
	// entries); the last fault in the chip's list wins the site. Both
	// engines must apply the same order-dependent overwrite.
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
	serial, err := NewEngine(c, patterns, Serial)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range LotEngines() {
		if e == Serial {
			continue
		}
		par, err := NewEngine(c, patterns, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.TestLotSteps(lot)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("double-polarity chips disagree: serial %+v, %v %+v", want, e, got)
		}
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
	res, err := a.TestLot(lot)
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
	for _, e := range LotEngines() {
		a, err := NewEngine(c, patterns, e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.TestLot(lot); err == nil {
			t.Errorf("%v: out-of-universe fault index should error", e)
		}
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
			e := ChipParallel256
			if w%2 == 1 {
				e = Serial
			}
			a, err := NewEngine(c, patterns, e)
			if err != nil {
				errs[w] = err
				return
			}
			for rep := 0; rep < 3; rep++ {
				got, err := a.TestLotSteps(lot)
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
