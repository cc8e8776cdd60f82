package faultsim

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// pointerSerialFirstDetect is the pre-flat serial engine, kept
// test-only as the independent oracle: one fault at a time, full
// circuit re-simulation through the pointer-walking
// logicsim.Simulator, no dropping. Since every registered engine —
// including the flat Serial baseline — now runs on the flat core, this
// is the one walk in the package that shares no simulation substrate
// with the code under test.
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

// TestEngineEquivalenceProperty is the cross-engine contract: every
// engine must return identical
// FirstDetect indices on randomized circuits, randomized fault subsets,
// and randomized pattern sets. The oracle is the retired pointer-
// walking serial engine above, so even the registered flat Serial
// baseline is pinned against an independent implementation.
func TestEngineEquivalenceProperty(t *testing.T) {
	type variant struct {
		name   string
		engine Engine
		opt    Options
	}
	// Every registered engine is checked automatically (a new registry
	// entry lands here with zero test changes); the explicit extra pins
	// a real worker pool even on single-core hosts.
	var variants []variant
	for _, e := range Engines() {
		variants = append(variants, variant{e.String(), e, Options{}})
	}
	variants = append(variants, variant{"concurrent-4", Concurrent, Options{Workers: 4}})
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
// step-level first-detect must agree across engines, and projecting a
// step index back to its pattern must reproduce the pattern-level
// first-detect.
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
		pat, err := Run(c, faults, patterns, Serial)
		if err != nil {
			t.Fatal(err)
		}
		nOut := len(c.Outputs)
		for fi := range faults {
			if ref.FirstDetect[fi] == NotDetected {
				if pat.FirstDetect[fi] != NotDetected {
					t.Fatalf("seed %d fault %d: steps say undetected, serial says %d", seed, fi, pat.FirstDetect[fi])
				}
				continue
			}
			if got := ref.FirstDetect[fi] / nOut; got != pat.FirstDetect[fi] {
				t.Fatalf("seed %d fault %d: step %d implies pattern %d, serial says %d",
					seed, fi, ref.FirstDetect[fi], got, pat.FirstDetect[fi])
			}
		}
		for _, e := range []Engine{Serial, Concurrent} {
			got, err := RunStepsOpts(c, faults, patterns, e, Options{})
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			for fi := range faults {
				if got.FirstDetect[fi] != ref.FirstDetect[fi] {
					t.Fatalf("seed %d fault %d: %v steps %d, ppsfp steps %d",
						seed, fi, e, got.FirstDetect[fi], ref.FirstDetect[fi])
				}
			}
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	// Unknown and retired names fail fast, naming what is registered.
	for _, name := range []string{"warp-drive", "pf", "deductive", "ppsfp-full", "pf256", ""} {
		_, err := ParseEngine(name)
		if err == nil {
			t.Errorf("ParseEngine(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "(registered: ppsfp, serial, concurrent)") {
			t.Errorf("ParseEngine(%q) error %q does not list the three engines", name, err)
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
	for _, e := range Engines() {
		if _, err := Run(c, badPin, patterns, e); err == nil {
			t.Errorf("%v: out-of-range pin should error", e)
		}
	}
}

func TestEmptyFaultList(t *testing.T) {
	c := netlist.C17()
	patterns := exhaustivePatterns(c)
	for _, e := range Engines() {
		r, err := Run(c, nil, patterns, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if len(r.FirstDetect) != 0 || r.Patterns != len(patterns) {
			t.Fatalf("%v: unexpected result %+v", e, r)
		}
	}
}
