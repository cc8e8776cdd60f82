package tester_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/defect"
	"repro/internal/faultsim"
	"repro/internal/tester"
)

// firstDetectCircuits are the preparations the cross-stack tests run
// on: c17, mul8 and cmp16 whole, and a 300-fault sample of lsi1k under
// budgeted PODEM.
var firstDetectCircuits = []struct {
	spec string
	p    circuits.Params
}{
	{"c17", circuits.Params{RandomPatterns: 32, Seed: 7}},
	{"mul8", circuits.Params{RandomPatterns: 32, Seed: 7}},
	{"cmp16", circuits.Params{RandomPatterns: 32, Seed: 7}},
	{"lsi1k", circuits.Params{RandomPatterns: 48, SampleFaults: 300, BacktrackLimit: 50, Seed: 7}},
}

// testLot runs TestLot, or TestLotSteps when steps is true.
func testLot(t *testing.T, a *tester.ATE, lot defect.Lot, steps bool) tester.LotResult {
	t.Helper()
	run := a.TestLot
	if steps {
		run = a.TestLotSteps
	}
	res, err := run(lot)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameLot fails unless the two ATEs' lot records agree.
func sameLot(t *testing.T, what string, want, got tester.LotResult) {
	t.Helper()
	if !slices.Equal(want.FirstFail, got.FirstFail) || want.Passed != got.Passed || want.Escapes != got.Escapes {
		for i := range want.FirstFail {
			if i < len(got.FirstFail) && want.FirstFail[i] != got.FirstFail[i] {
				t.Fatalf("%s: chip %d first fail %d with the table, %d simulated", what, i, got.FirstFail[i], want.FirstFail[i])
			}
		}
		t.Fatalf("%s: passed/escapes %d/%d with the table, %d/%d simulated",
			what, got.Passed, got.Escapes, want.Passed, want.Escapes)
	}
}

// physicalModel is a physical defect model whose yield is y and whose
// defective chips carry about n0 faults (Poisson defects, 60% local).
func physicalModel(y, n0 float64) defect.Model {
	d0a := -math.Log(y)
	return defect.Model{D0A: d0a, FaultsPerDefect: math.Max(1, n0*(1-y)/d0a), Locality: 0.6}
}

// TestFirstDetectTableIdentity pins the single-fault first-fail table
// across the stack. For every universe fault, a one-fault chip must
// fail at the same pattern and strobe on a plain ATE (which simulates
// it), on the Prepared ATE (which reads the table) and in
// Prepared.Result.FirstDetect. Mixed model and physical lots must give
// the same record on both ATEs, and both of the table ATE's paths must
// have run.
func TestFirstDetectTableIdentity(t *testing.T) {
	for _, tc := range firstDetectCircuits {
		t.Run(tc.spec, func(t *testing.T) {
			pr, err := circuits.PrepareSpec(tc.spec, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := tester.New(pr.Circuit, pr.Patterns)
			if err != nil {
				t.Fatal(err)
			}
			table, err := pr.NewATE()
			if err != nil {
				t.Fatal(err)
			}
			nOut := len(pr.Circuit.Outputs)
			single := defect.Lot{Universe: pr.Universe, Chips: make([]defect.Chip, len(pr.Universe))}
			for fi := range pr.Universe {
				single.Chips[fi] = defect.Chip{Faults: []int{fi}}
			}
			for _, steps := range []bool{false, true} {
				want := testLot(t, plain, single, steps)
				got := testLot(t, table, single, steps)
				sameLot(t, "one-fault chips", want, got)
				for fi, d := range pr.Result.FirstDetect {
					exp := tester.NeverFails
					if d != faultsim.NotDetected {
						exp = d
						if !steps {
							exp = d / nOut
						}
					}
					if got.FirstFail[fi] != exp {
						t.Fatalf("steps=%v fault %d: first fail %d, Prepared.Result says %d", steps, fi, got.FirstFail[fi], exp)
					}
				}
			}
			if n := tester.TableChips(table); n != 2*len(pr.Universe) {
				t.Fatalf("table resolved %d one-fault chips, want %d", n, 2*len(pr.Universe))
			}
			if n := tester.LaneWalks(table); n != 0 {
				t.Fatalf("a lot of one-fault chips took %d lane walks, want none", n)
			}
			if tester.LaneWalks(plain) == 0 {
				t.Fatal("the plain ATE never simulated")
			}

			rng := rand.New(rand.NewSource(25))
			for _, n0 := range []float64{1.5, 3, 8.8} {
				for _, y := range []float64{0.07, 0.5} {
					model, err := defect.GenerateLotFromModel(y, n0, pr.Universe, 200, rng)
					if err != nil {
						t.Fatal(err)
					}
					physical, err := defect.GenerateLot(physicalModel(y, n0), pr.Universe, 200, rng)
					if err != nil {
						t.Fatal(err)
					}
					for _, lot := range []defect.Lot{model, physical} {
						for _, steps := range []bool{false, true} {
							want := testLot(t, plain, lot, steps)
							got := testLot(t, table, lot, steps)
							sameLot(t, "mixed lot", want, got)
						}
					}
				}
			}
			if tester.TableChips(table) == 2*len(pr.Universe) {
				t.Fatal("no mixed-lot chip came from the table")
			}
			if tester.LaneWalks(table) == 0 {
				t.Fatal("no mixed-lot chip was simulated on the table ATE")
			}
		})
	}
}

// TestFirstDetectTableRejects: UseFirstDetects refuses a result that
// cannot be this program's strobe first detects over the universe, and
// a lot over another universe of the same length is simulated, not
// read from the table.
func TestFirstDetectTableRejects(t *testing.T) {
	pr, err := circuits.PrepareSpec("c17", circuits.Params{RandomPatterns: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tester.New(pr.Circuit, pr.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	steps := pr.Result.Patterns
	withEntry := func(d int) faultsim.Result {
		fd := slices.Clone(pr.Result.FirstDetect)
		fd[len(fd)/2] = d
		return faultsim.Result{FirstDetect: fd, Patterns: steps}
	}
	for _, tc := range []struct {
		name string
		res  faultsim.Result
	}{
		{"short", faultsim.Result{FirstDetect: pr.Result.FirstDetect[1:], Patterns: steps}},
		{"long", faultsim.Result{FirstDetect: append(slices.Clone(pr.Result.FirstDetect), 0), Patterns: steps}},
		{"pattern-granular", faultsim.Result{FirstDetect: pr.Result.FirstDetect, Patterns: len(pr.Patterns)}},
		{"entry past the program", withEntry(steps)},
		{"entry below NotDetected", withEntry(-2)},
	} {
		if err := a.UseFirstDetects(pr.Universe, tc.res); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Another universe of the same length: the table's universe
	// reversed, so reading the table would give wrong first fails.
	table, err := pr.NewATE()
	if err != nil {
		t.Fatal(err)
	}
	other := slices.Clone(pr.Universe)
	slices.Reverse(other)
	lot := defect.Lot{Universe: other, Chips: make([]defect.Chip, len(other))}
	for fi := range other {
		lot.Chips[fi] = defect.Chip{Faults: []int{fi}}
	}
	for _, steps := range []bool{false, true} {
		sameLot(t, "reversed universe", testLot(t, a, lot, steps), testLot(t, table, lot, steps))
	}
	if n := tester.TableChips(table); n != 0 {
		t.Fatalf("%d chips over another universe came from the table", n)
	}
	if tester.LaneWalks(table) == 0 {
		t.Fatal("chips over another universe were not simulated")
	}
}
