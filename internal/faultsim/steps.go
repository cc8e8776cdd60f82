package faultsim

import (
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Strobe-granular fault simulation. An ATE applies a pattern and then
// strobes each output in sequence; a "test step" is one (pattern,
// output) strobe event. Table 1 of the paper counts failures per
// strobe ("on the first pattern at which the tester strobed the chip
// output"), so the lot experiment needs first-detection indices at
// strobe granularity: step = pattern*numOutputs + outputIndex.
//
// The first failing strobe factors: its pattern is the fault's ordinary
// first-detect pattern, and its output is the lowest-indexed output the
// fault flips on that pattern. The grading walk holds every output's
// difference word when it detects a fault, so the Grader records the
// strobe there and a strobe-level run is an ordinary one read through
// Grader.Steps.

// RunSteps fault-simulates the ordered patterns with per-strobe
// granularity using the default engine. The returned Result counts
// steps, not patterns: Result.Patterns = len(patterns)*len(c.Outputs)
// and FirstDetect holds step indices.
func RunSteps(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) (Result, error) {
	return RunStepsOpts(c, faults, patterns, PPSFP, Options{})
}

// RunStepsOpts is RunSteps with an explicit engine and options: RunOpts
// read at strobe granularity.
func RunStepsOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (Result, error) {
	g, err := gradeAll(c, faults, patterns, engine, opt)
	if err != nil {
		return Result{}, err
	}
	return g.Steps(), nil
}
