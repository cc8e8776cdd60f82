package atpg

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// ProductionPatterns emits a pattern set in realistic production test
// order: bring-up patterns first (all-zeros, all-ones, walking ones and
// zeros — each exercising little logic, like the initialization
// sequence preceding the paper's first tester strobe), then random
// patterns of gradually increasing weight, and finally uniform random.
// The resulting cumulative coverage ramp rises gently at first and
// then steeply, which spreads fallout observations across the low-
// coverage region where the P(f) curves for different n0 separate.
func ProductionPatterns(width, lowWeight, uniform int, seed int64) ([]logicsim.Pattern, error) {
	if width < 1 {
		return nil, fmt.Errorf("atpg: width must be >= 1, got %d", width)
	}
	if lowWeight < 0 || uniform < 0 {
		return nil, fmt.Errorf("atpg: pattern counts must be non-negative")
	}
	rng := rand.New(rand.NewSource(seed))
	var out []logicsim.Pattern
	// Functional bring-up: a binary counting sequence over the inputs.
	// Consecutive patterns are highly correlated and exercise only the
	// low-order logic at first, so each adds little coverage — the way
	// hand-written functional test programs behave, and the reason the
	// paper's tester saw only 5% coverage at its first strobe.
	countSteps := 2 * width
	if countSteps > 64 {
		countSteps = 64
	}
	for i := 0; i < countSteps; i++ {
		p := make(logicsim.Pattern, width)
		for j := 0; j < width && j < 63; j++ {
			p[j] = i>>uint(j)&1 == 1
		}
		out = append(out, p)
	}
	// Walking one and walking zero.
	for i := 0; i < width; i++ {
		w1 := make(logicsim.Pattern, width)
		w1[i] = true
		out = append(out, w1)
	}
	for i := 0; i < width; i++ {
		w0 := make(logicsim.Pattern, width)
		for j := range w0 {
			w0[j] = j != i
		}
		out = append(out, w0)
	}
	// Weighted random with rising activity.
	weights := []float64{0.05, 0.1, 0.2, 0.35}
	per := lowWeight / len(weights)
	for _, w := range weights {
		for k := 0; k < per; k++ {
			p := make(logicsim.Pattern, width)
			for j := range p {
				p[j] = rng.Float64() < w
			}
			out = append(out, p)
		}
	}
	// Uniform tail.
	for k := 0; k < uniform; k++ {
		p := make(logicsim.Pattern, width)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		out = append(out, p)
	}
	return out, nil
}

// ProductionTests builds the full ordered production test program for a
// circuit: ProductionPatterns bring-up and random phases followed by
// deterministic PODEM tests for whatever remains undetected.
func ProductionTests(c *netlist.Circuit, lowWeight, uniform int, seed int64) ([]logicsim.Pattern, error) {
	reps, err := collapsedReps(c)
	if err != nil {
		return nil, err
	}
	patterns, _, _, err := ProductionTestsBudget(c, lowWeight, uniform, seed, reps, 0, faultsim.Options{})
	return patterns, err
}

// ProductionTestsBudget is ProductionTests with an explicit target
// fault list and per-fault PODEM backtrack budget, returning the
// outcome tally and the program's strobe-level fault-simulation result
// over reps, as RunSteps reports it: FirstDetect holds each fault's
// first failing strobe, pattern×outputs + output, and Patterns counts
// strobes. It is the circuits-layer
// staged-pipeline entry point: sampling hands it a subset of the
// collapsed universe, and the budget bounds the worst-case cleanup cost
// on LSI-scale circuits instead of burning the 10k-backtrack default on
// every hard fault.
func ProductionTestsBudget(c *netlist.Circuit, lowWeight, uniform int, seed int64, reps []fault.Fault, backtrackLimit int, opt faultsim.Options) ([]logicsim.Pattern, Tally, faultsim.Result, error) {
	if err := c.Validate(); err != nil {
		return nil, Tally{}, faultsim.Result{}, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	base, err := ProductionPatterns(len(c.Inputs), lowWeight, uniform, seed)
	if err != nil {
		return nil, Tally{}, faultsim.Result{}, err
	}
	patterns, tally, res, _, err := cleanup(c, base, reps, backtrackLimit, opt, runtime.GOMAXPROCS(0))
	return patterns, tally, res, err
}
