package atpg

import (
	"fmt"
	"runtime"

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
	patterns, tally, err := CleanupTestsBudget(c, nil, reps, 0, faultsim.Options{})
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
	patterns, _, err := CleanupTestsBudget(c, base, reps, 0, faultsim.Options{})
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
// through ProductionTestsBudget over a sample. One faultsim.Grader
// session grades the program: first the base sequence; then, in
// fault-list order, each fault still undetected gets a PODEM test,
// which is appended and graded as the next pattern, dropping every
// fault it detects. It targets an explicit fault list (the caller's
// collapsed universe, or a sample of it), bounds PODEM to
// backtrackLimit backtracks per fault (0 = the generator's 10000
// default), and reports the outcome tally instead of silently skipping
// untestable and aborted faults. A PODEM test that fault simulation
// does not confirm against its own target is an internal inconsistency
// and fails the run. The options change only wall-clock: the pattern
// set and tally do not depend on them.
//
// PODEM runs speculatively on runtime.GOMAXPROCS(0) workers, each with
// its own generator: a worker claims the next fault that is still
// undetected, at most 2×width claims ahead of the loop, while the loop
// itself commits results strictly in fault-list order and throws away
// the result for any fault an earlier committed pattern has dropped in
// the meantime. Generate is a pure function of the circuit, the fault
// and the budget, so every committed (pattern, status) is the one a
// serial loop computes: patterns and tally do not depend on the width.
func CleanupTestsBudget(c *netlist.Circuit, base []logicsim.Pattern, reps []fault.Fault, backtrackLimit int, opt faultsim.Options) ([]logicsim.Pattern, Tally, error) {
	patterns, tally, _, _, err := cleanup(c, base, reps, backtrackLimit, opt, runtime.GOMAXPROCS(0))
	return patterns, tally, err
}

// cleanup is CleanupTestsBudget at an explicit speculation width (the
// number of PODEM workers). It also returns the program's strobe-level
// fault-simulation result (Grader.Steps) and how many speculative
// results the commit loop discarded.
func cleanup(c *netlist.Circuit, base []logicsim.Pattern, reps []fault.Fault, backtrackLimit int, opt faultsim.Options, width int) ([]logicsim.Pattern, Tally, faultsim.Result, int, error) {
	fail := func(err error) ([]logicsim.Pattern, Tally, faultsim.Result, int, error) {
		return nil, Tally{}, faultsim.Result{}, 0, err
	}
	if err := c.Validate(); err != nil {
		return fail(fmt.Errorf("atpg: invalid circuit: %w", err))
	}
	if backtrackLimit < 0 {
		return fail(fmt.Errorf("atpg: backtrack limit must be >= 0, got %d", backtrackLimit))
	}
	grader, err := faultsim.NewGrader(c, reps, opt)
	if err != nil {
		return fail(err)
	}
	patterns := base
	newly, err := grader.Add(patterns)
	if err != nil {
		return fail(err)
	}
	detected := make([]bool, len(reps))
	for _, fi := range newly {
		detected[fi] = true
	}
	// No more workers than targets; every generator is built before any
	// worker starts.
	width = min(width, len(reps)-len(newly))
	gens := make([]*Podem, width)
	for i := range gens {
		gen, err := NewPodem(c)
		if err != nil {
			return fail(err)
		}
		gen.BacktrackLimit = backtrackLimit
		gens[i] = gen
	}
	spec := speculate(gens, reps, detected)
	defer spec.stop()
	// Aborts are provisional: a fault abandoned at its own budget may
	// still fall to a later fault's pattern during dropping, so the
	// abort bucket is settled only after the loop, over the faults that
	// stayed undetected. Untestable is a proof and final immediately.
	tally := Tally{Faults: len(reps)}
	aborted := make([]bool, len(reps))
	for fi, f := range reps {
		if detected[fi] {
			spec.skip(fi)
			continue
		}
		pattern, status := spec.result(fi)
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
		hit, err := grader.Add(patterns[len(patterns)-1:])
		if err != nil {
			return fail(err)
		}
		spec.drop(hit)
		if !detected[fi] {
			// The generated pattern must detect its target; a miss means
			// the generator and simulator disagree.
			return fail(fmt.Errorf("atpg: internal inconsistency: PODEM test for %v not confirmed by fault simulation", f.Name(c)))
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
	return patterns, tally, grader.Steps(), spec.discarded, nil
}
