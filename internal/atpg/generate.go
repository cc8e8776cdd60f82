package atpg

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// RunResult summarizes a full ATPG run.
type RunResult struct {
	Patterns   []logicsim.Pattern
	Coverage   float64 // coverage of the collapsed fault list
	Detected   int
	Untestable int
	Aborted    int
	Faults     int
}

// GenerateAll runs deterministic ATPG over the circuit's equivalence-
// collapsed fault list with fault dropping: each PODEM test is fault-
// simulated against the remaining faults so one pattern usually retires
// many faults. Random-fill is not used; the run is fully reproducible.
// It is CleanupTestsBudget with no base patterns and the default
// backtrack budget, so the outcome buckets partition the fault list.
func GenerateAll(c *netlist.Circuit) (RunResult, error) {
	reps, err := collapsedReps(c)
	if err != nil {
		return RunResult{}, err
	}
	patterns, tally, err := CleanupTestsBudget(c, nil, reps, 0, faultsim.PPSFP, faultsim.Options{})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Patterns:   patterns,
		Coverage:   float64(tally.Detected) / float64(tally.Faults),
		Detected:   tally.Detected,
		Untestable: tally.Untestable,
		Aborted:    tally.Aborted,
		Faults:     tally.Faults,
	}, nil
}

// collapsedReps validates the circuit and returns the representatives
// of its equivalence-collapsed fault universe: the target list of the
// whole-circuit ATPG entry points.
func collapsedReps(c *netlist.Circuit) ([]fault.Fault, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	return fault.Reps(fault.BuildUniverse(c).Collapsed), nil
}

// Compact performs reverse-order compaction: patterns are fault-
// simulated in reverse order with dropping, and any pattern that
// detects no fresh fault is discarded. The compacted set preserves
// total coverage.
func Compact(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) ([]logicsim.Pattern, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	reversed := make([]logicsim.Pattern, len(patterns))
	for i, p := range patterns {
		reversed[len(patterns)-1-i] = p
	}
	res, err := faultsim.Run(c, faults, reversed, faultsim.PPSFP)
	if err != nil {
		return nil, err
	}
	useful := make(map[int]bool)
	for _, d := range res.FirstDetect {
		if d != faultsim.NotDetected {
			useful[d] = true
		}
	}
	var out []logicsim.Pattern
	for i := range reversed {
		if useful[i] {
			out = append(out, reversed[i])
		}
	}
	return out, nil
}

// HybridTests produces the realistic production test order the paper
// describes: a burst of pseudo-random patterns first (cheap, catches
// the easy faults fast, giving the steep initial fallout ramp), then
// deterministic PODEM tests for the random-resistant remainder. A
// negative randomCount is an error.
func HybridTests(c *netlist.Circuit, randomCount int, seed int64) ([]logicsim.Pattern, error) {
	if randomCount < 0 {
		return nil, fmt.Errorf("atpg: random pattern count must be >= 0, got %d", randomCount)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	src, err := NewRandomSource(len(c.Inputs), seed)
	if err != nil {
		return nil, err
	}
	return CleanupTests(c, Take(src, randomCount))
}

// CleanupTests appends deterministic PODEM tests for every collapsed
// fault the base pattern sequence misses, preserving the base order.
func CleanupTests(c *netlist.Circuit, base []logicsim.Pattern) ([]logicsim.Pattern, error) {
	reps, err := collapsedReps(c)
	if err != nil {
		return nil, err
	}
	patterns, _, err := CleanupTestsBudget(c, base, reps, 0, faultsim.PPSFP, faultsim.Options{})
	return patterns, err
}

// Tally is the per-fault ATPG outcome accounting over one target fault
// list: how many faults the final pattern set detects, how many PODEM
// proved untestable, and how many it abandoned at the backtrack budget.
// The three buckets partition the fault list.
type Tally struct {
	Faults     int `json:"faults"`
	Detected   int `json:"detected"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
}

// CleanupTestsBudget is the one PODEM-and-drop loop every ATPG entry
// point runs: GenerateAll, CleanupTests and ProductionTests call it over
// the full collapsed list with the default budget, and circuits.Prepare
// through ProductionTestsBudget over a sample. The base sequence is
// graded first; then, in fault-list order, each fault still undetected
// gets a PODEM test, which is appended and fault-simulated against the
// remaining faults so it drops every fault it detects. It targets an
// explicit fault list (the caller's collapsed universe, or a sample of
// it), bounds PODEM to backtrackLimit backtracks per fault (0 = the
// generator's 10000 default), and reports the outcome tally instead of
// silently skipping untestable and aborted faults. A PODEM test that
// fault simulation does not confirm against its own target is an
// internal inconsistency and fails the run. The engine and options
// change only wall-clock: every engine returns the same first-detects,
// so the pattern set and tally are engine-independent.
func CleanupTestsBudget(c *netlist.Circuit, base []logicsim.Pattern, reps []fault.Fault, backtrackLimit int, engine faultsim.Engine, opt faultsim.Options) ([]logicsim.Pattern, Tally, error) {
	if err := c.Validate(); err != nil {
		return nil, Tally{}, fmt.Errorf("atpg: invalid circuit: %w", err)
	}
	if backtrackLimit < 0 {
		return nil, Tally{}, fmt.Errorf("atpg: backtrack limit must be >= 0, got %d", backtrackLimit)
	}
	patterns := base
	tally := Tally{Faults: len(reps)}
	detected := make([]bool, len(reps))
	if len(patterns) > 0 && len(reps) > 0 {
		res, err := faultsim.RunOpts(c, reps, patterns, engine, opt)
		if err != nil {
			return nil, Tally{}, err
		}
		for fi, d := range res.FirstDetect {
			detected[fi] = d != faultsim.NotDetected
		}
	}
	gen, err := NewPodem(c)
	if err != nil {
		return nil, Tally{}, err
	}
	gen.BacktrackLimit = backtrackLimit
	// Aborts are provisional: a fault abandoned at its own budget may
	// still fall to a later fault's pattern during dropping, so the
	// abort bucket is settled only after the loop, over the faults that
	// stayed undetected. Untestable is a proof and final immediately.
	aborted := make([]bool, len(reps))
	var remaining []fault.Fault
	var idx []int
	for fi, f := range reps {
		if detected[fi] {
			continue
		}
		pattern, status := gen.Generate(f)
		if status != Detected {
			switch status {
			case Untestable:
				tally.Untestable++
			case Aborted:
				aborted[fi] = true
			}
			continue
		}
		patterns = append(patterns, pattern)
		remaining, idx = remaining[:0], idx[:0]
		for ri := range reps {
			if !detected[ri] {
				remaining = append(remaining, reps[ri])
				idx = append(idx, ri)
			}
		}
		one, err := faultsim.RunOpts(c, remaining, []logicsim.Pattern{pattern}, engine, opt)
		if err != nil {
			return nil, Tally{}, err
		}
		for ri, d := range one.FirstDetect {
			if d != faultsim.NotDetected {
				detected[idx[ri]] = true
			}
		}
		if !detected[fi] {
			// The generated pattern must detect its target; a miss means
			// the generator and simulator disagree.
			return nil, Tally{}, fmt.Errorf("atpg: internal inconsistency: PODEM test for %v not confirmed by fault simulation", f.Name(c))
		}
	}
	for fi, d := range detected {
		switch {
		case d:
			tally.Detected++
		case aborted[fi]:
			tally.Aborted++
		}
	}
	return patterns, tally, nil
}
