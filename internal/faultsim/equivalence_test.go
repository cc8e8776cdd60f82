package faultsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// pointerSerialFirstDetect is the independent oracle every engine test
// compares against: one fault at a time, full circuit re-simulation
// through the pointer-walking logicsim.Simulator, no dropping. The
// engine runs on the flat core, so this walk shares no simulation
// code with the code under test.
func pointerSerialFirstDetect(t *testing.T, c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) []int {
	t.Helper()
	sim, err := logicsim.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]int, len(faults))
	for i := range first {
		first[i] = NotDetected
	}
	var good []uint64
	for base := 0; base < len(patterns); base += 64 {
		end := base + 64
		if end > len(patterns) {
			end = len(patterns)
		}
		block, err := logicsim.PackPatterns(patterns[base:end])
		if err != nil {
			t.Fatal(err)
		}
		g, err := sim.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		good = append(good[:0], g...)
		for fi, f := range faults {
			bad, err := sim.RunWithFault(block, f.Gate, f.Pin, f.Stuck)
			if err != nil {
				t.Fatal(err)
			}
			var diff uint64
			for o := range bad {
				diff |= (bad[o] ^ good[o]) & block.Mask()
			}
			if diff != 0 {
				if p := base + bits.TrailingZeros64(diff); first[fi] == NotDetected {
					first[fi] = p
				}
			}
		}
	}
	return first
}

// TestEngineEquivalenceProperty is the engine contract: PPSFP, at
// every shard count, must return the oracle's FirstDetect indices on
// randomized circuits, randomized fault subsets, and randomized pattern
// sets.
func TestEngineEquivalenceProperty(t *testing.T) {
	type variant struct {
		name   string
		engine Engine
		opt    Options
	}
	// The default inline run, then real shard counts, uneven splits
	// included, even on single-core hosts.
	variants := []variant{{PPSFP.String(), PPSFP, Options{}}}
	for _, w := range []int{1, 2, 3, 4} {
		variants = append(variants, variant{fmt.Sprintf("ppsfp-%d", w), PPSFP, Options{Workers: w}})
	}
	for trial := 0; trial < 8; trial++ {
		seed := int64(trial + 1)
		rng := rand.New(rand.NewSource(seed * 977))
		var (
			c   *netlist.Circuit
			err error
		)
		// Mix structured and random circuits across trials.
		switch trial % 4 {
		case 0:
			c, err = netlist.RandomCircuit("rand", 6+rng.Intn(6), 40+rng.Intn(120), 3+rng.Intn(8), seed)
		case 1:
			c, err = netlist.ArrayMultiplier(3 + trial%3)
		case 2:
			c, err = netlist.Comparator(4 + trial%4)
		default:
			c, err = netlist.Decoder(3 + trial%3)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Randomized fault list: sometimes the full uncollapsed
		// universe, sometimes a random subset (exercises dropping with
		// arbitrary holes), sometimes collapsed reps.
		all := fault.AllFaults(c)
		var faults []fault.Fault
		switch trial % 3 {
		case 0:
			faults = all
		case 1:
			for _, f := range all {
				if rng.Intn(3) != 0 {
					faults = append(faults, f)
				}
			}
		default:
			faults = fault.Reps(fault.CollapseEquivalence(c, all))
		}
		// Random pattern count not aligned to the 64-pattern block size.
		npat := 30 + rng.Intn(200)
		patterns := randomPatterns(c, npat, seed*31)

		oracle := pointerSerialFirstDetect(t, c, faults, patterns)
		for _, v := range variants {
			got, err := RunOpts(c, faults, patterns, v.engine, v.opt)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.name, err)
			}
			if got.Patterns != len(patterns) {
				t.Fatalf("trial %d %s: %d patterns, want %d", trial, v.name, got.Patterns, len(patterns))
			}
			for fi := range faults {
				if got.FirstDetect[fi] != oracle[fi] {
					t.Fatalf("trial %d (%s, %d faults, %d patterns) %s: fault %v first-detect %d, oracle %d",
						trial, c.Name, len(faults), npat, v.name,
						faults[fi].Name(c), got.FirstDetect[fi], oracle[fi])
				}
			}
		}
	}
}

// TestRunStepsMatchesEngines checks the strobe-granular refinement: the
// step-level first-detect must agree across engines and shard counts,
// and projecting a step index back to its pattern must reproduce the
// oracle's pattern-level first-detect.
func TestRunStepsMatchesEngines(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit("rs", 8, 90, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		patterns := randomPatterns(c, 120, seed*7)
		ref, err := RunSteps(c, faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		oracle := pointerSerialFirstDetect(t, c, faults, patterns)
		nOut := len(c.Outputs)
		for fi := range faults {
			if ref.FirstDetect[fi] == NotDetected {
				if oracle[fi] != NotDetected {
					t.Fatalf("seed %d fault %d: steps say undetected, oracle says %d", seed, fi, oracle[fi])
				}
				continue
			}
			if got := ref.FirstDetect[fi] / nOut; got != oracle[fi] {
				t.Fatalf("seed %d fault %d: step %d implies pattern %d, oracle says %d",
					seed, fi, ref.FirstDetect[fi], got, oracle[fi])
			}
		}
		opt := Options{Workers: 3}
		got, err := RunStepsOpts(c, faults, patterns, PPSFP, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		for fi := range faults {
			if got.FirstDetect[fi] != ref.FirstDetect[fi] {
				t.Fatalf("seed %d fault %d: %+v steps %d, RunSteps %d",
					seed, fi, opt, got.FirstDetect[fi], ref.FirstDetect[fi])
			}
		}
	}
}

func TestRunOptsValidatesFaults(t *testing.T) {
	c := netlist.C17()
	patterns := exhaustivePatterns(c)
	bad := []fault.Fault{{Gate: len(c.Gates) + 5, Pin: -1}}
	if _, err := Run(c, bad, patterns, PPSFP); err == nil {
		t.Error("out-of-range fault site should error")
	}
	badPin := []fault.Fault{{Gate: c.Outputs[0], Pin: 99}}
	if _, err := Run(c, badPin, patterns, PPSFP); err == nil {
		t.Error("out-of-range pin should error")
	}
}

func TestEmptyFaultList(t *testing.T) {
	c := netlist.C17()
	patterns := exhaustivePatterns(c)
	r, err := Run(c, nil, patterns, PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FirstDetect) != 0 || r.Patterns != len(patterns) {
		t.Fatalf("unexpected result %+v", r)
	}
}
