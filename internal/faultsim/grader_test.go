package faultsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// TestGraderMatchesRunOpts: a program graded in pieces, one Add per
// piece at random split points (one-pattern and empty pieces included),
// gets exactly the first detects of one RunOpts over the whole program,
// at every shard count, and each Add reports exactly the faults whose
// first detect falls in its piece.
func TestGraderMatchesRunOpts(t *testing.T) {
	mul8, err := netlist.ArrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*netlist.Circuit{netlist.C17(), mul8}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit(fmt.Sprintf("rg%d", seed), 10, 120, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	rng := rand.New(rand.NewSource(3))
	for ci, c := range cs {
		faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		patterns := randomPatterns(c, 150+rng.Intn(100), int64(ci))
		want, err := RunOpts(c, faults, patterns, PPSFP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3} {
			g, err := NewGrader(c, faults, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, piece := range splitPieces(rng, patterns) {
				lo := g.Result().Patterns
				hi := lo + len(piece)
				got, err := g.Add(piece)
				if err != nil {
					t.Fatalf("%s workers=%d Add [%d, %d): %v", c.Name, workers, lo, hi, err)
				}
				var newly []int
				for fi, d := range want.FirstDetect {
					if d >= lo && d < hi {
						newly = append(newly, fi)
					}
				}
				if !slices.Equal(got, newly) {
					t.Fatalf("%s workers=%d Add [%d, %d) reports %v, want %v", c.Name, workers, lo, hi, got, newly)
				}
			}
			res := g.Result()
			if res.Patterns != want.Patterns || !slices.Equal(res.FirstDetect, want.FirstDetect) {
				t.Fatalf("%s workers=%d: graded in pieces %+v, one run %+v", c.Name, workers, res, want)
			}
		}
	}
}

// splitPieces cuts patterns at random points into pieces that always
// include an empty piece and a one-pattern piece.
func splitPieces(rng *rand.Rand, patterns []logicsim.Pattern) [][]logicsim.Pattern {
	pieces := [][]logicsim.Pattern{patterns[:0], patterns[:1]}
	for lo := 1; lo < len(patterns); {
		hi := min(lo+rng.Intn(90), len(patterns))
		pieces = append(pieces, patterns[lo:hi])
		lo = hi
	}
	return pieces
}

// TestGraderRejectsAsRunOpts: NewGrader fails an invalid fault or a
// negative shard count with RunOpts' error.
func TestGraderRejectsAsRunOpts(t *testing.T) {
	c := netlist.C17()
	patterns := exhaustivePatterns(c)
	for _, tc := range []struct {
		name   string
		faults []fault.Fault
		opt    Options
	}{
		{"site", []fault.Fault{{Gate: len(c.Gates) + 5, Pin: -1}}, Options{}},
		{"pin", []fault.Fault{{Gate: c.Outputs[0], Pin: 99}}, Options{}},
		{"pin -2", []fault.Fault{{Gate: c.Outputs[0], Pin: -2}}, Options{}},
		{"shards", fault.AllFaults(c), Options{Workers: -1}},
	} {
		_, want := RunOpts(c, tc.faults, patterns, PPSFP, tc.opt)
		_, got := NewGrader(c, tc.faults, tc.opt)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: NewGrader error %v, RunOpts error %v", tc.name, got, want)
		}
	}
}
