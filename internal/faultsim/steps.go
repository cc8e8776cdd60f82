package faultsim

import (
	"fmt"

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
// fault flips on that pattern. So RunSteps runs any pattern-level
// engine first and then refines each detected fault with a single
// cone-restricted re-simulation of its detecting pattern — strobe
// granularity costs one extra cone pass per detected fault instead of a
// dedicated engine.

// RunSteps fault-simulates the ordered patterns with per-strobe
// granularity using the default engine. The returned Result counts
// steps, not patterns: Result.Patterns = len(patterns)*len(c.Outputs)
// and FirstDetect holds step indices.
func RunSteps(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) (Result, error) {
	return RunStepsOpts(c, faults, patterns, PPSFP, Options{})
}

// RunStepsOpts is RunSteps with an explicit pattern-level engine.
func RunStepsOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (Result, error) {
	res, err := RunOpts(c, faults, patterns, engine, opt)
	if err != nil {
		return Result{}, err
	}
	nOut := len(c.Outputs)
	// Bucket the detected faults by first-detect pattern so refinement
	// visits patterns in ascending order: the run is deterministic down
	// to which fault an inconsistency error names.
	first := make([]int, len(faults))
	byPattern := make([][]int, len(patterns))
	for fi, p := range res.FirstDetect {
		first[fi] = NotDetected
		if p != NotDetected {
			byPattern[p] = append(byPattern[p], fi)
		}
	}
	// The slot cones are cached on the circuit; ATPG grading has
	// usually compiled these faults' cones already.
	cones, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		return Result{}, err
	}
	flat := cones.Flat()
	fsim := logicsim.NewFlatSim(flat)
	outDiffs := make([]uint64, nOut)
	var good []uint64
	for p, fis := range byPattern {
		if len(fis) == 0 {
			continue
		}
		blk, err := logicsim.PackPatterns(patterns[p : p+1])
		if err != nil {
			return Result{}, err
		}
		if good, err = fsim.RunInto(blk, good); err != nil {
			return Result{}, err
		}
		for _, fi := range fis {
			f := faults[fi]
			slot := flat.SlotOf(f.Gate)
			cone := cones.ConeOfPtr(slot)
			var diff uint64
			if f.Pin < 0 {
				diff, err = fsim.RunCone(slot, f.Stuck, cone, outDiffs)
			} else {
				diff, err = fsim.RunConeForced(slot, f.Pin, f.Stuck, cone, outDiffs)
			}
			if err != nil {
				return Result{}, err
			}
			if diff == 0 {
				return Result{}, fmt.Errorf("faultsim: %v engine detected fault %d at pattern %d but re-simulation does not", engine, fi, p)
			}
			// cone.Outputs ascends, and the walk writes outDiffs only
			// there, so the first differing entry is the first strobed
			// output the fault flips.
			for _, oi := range cone.Outputs {
				if outDiffs[oi]&1 != 0 {
					first[fi] = p*nOut + int(oi)
					break
				}
			}
		}
	}
	return Result{FirstDetect: first, Patterns: len(patterns) * nOut}, nil
}
