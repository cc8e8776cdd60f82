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
// fault flips on that pattern. So StepsFrom refines a pattern-level
// result with one divergence walk of each detected fault over its
// first-detect block — strobe granularity costs one extra walk per
// detected fault instead of a dedicated engine.

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
	return StepsFrom(c, faults, patterns, res)
}

// StepsFrom refines res, the pattern-level result of the patterns
// against the fault list, to the step-counting Result RunSteps returns.
// A first detect the re-simulation does not confirm (the fault is not
// detected there, or earlier) fails the refinement, which thereby
// cross-checks whoever computed res.
func StepsFrom(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, res Result) (Result, error) {
	if len(res.FirstDetect) != len(faults) || res.Patterns != len(patterns) {
		return Result{}, fmt.Errorf("faultsim: result covers %d faults and %d patterns, not %d and %d",
			len(res.FirstDetect), res.Patterns, len(faults), len(patterns))
	}
	if err := validateFaults(c, faults); err != nil {
		return Result{}, err
	}
	blocks, err := logicsim.PackBlocks(patterns)
	if err != nil {
		return Result{}, err
	}
	// Bucket the detected faults by first-detect block: one good-machine
	// run serves each block, and the error a run reports is deterministic.
	nOut := len(c.Outputs)
	first := make([]int, len(faults))
	byBlock := make([][]int, len(blocks))
	for fi, p := range res.FirstDetect {
		first[fi] = NotDetected
		if p == NotDetected {
			continue
		}
		if p < 0 || p >= len(patterns) {
			return Result{}, fmt.Errorf("faultsim: fault %d first-detect pattern %d out of range", fi, p)
		}
		byBlock[p/64] = append(byBlock[p/64], fi)
	}
	flat, err := logicsim.FlatFor(c)
	if err != nil {
		return Result{}, err
	}
	inj, err := resolve(flat, faults)
	if err != nil {
		return Result{}, err
	}
	fsim := logicsim.NewFlatSim(flat)
	sim, err := logicsim.NewWideSim(flat, 1)
	if err != nil {
		return Result{}, err
	}
	var good, out []uint64
	for bi, fis := range byBlock {
		if len(fis) == 0 {
			continue
		}
		if good, err = fsim.RunInto(blocks[bi], good); err != nil {
			return Result{}, err
		}
		for _, fi := range fis {
			p := res.FirstDetect[fi]
			// Follow the block's patterns up to and including p only:
			// p's bit must then be the only one the fault flips.
			bit := uint64(1) << (p % 64)
			var diff uint64
			if out, diff, err = sim.RunChipBlock(fsim.Plane(), bit<<1-1, inj[fi:fi+1], out); err != nil {
				return Result{}, err
			}
			if diff != bit {
				return Result{}, fmt.Errorf("faultsim: fault %d detected first at pattern %d but re-simulation does not", fi, p)
			}
			// The first output flipped under p is the first strobed one.
			for oi, d := range out {
				if d != 0 {
					first[fi] = p*nOut + oi
					break
				}
			}
		}
	}
	return Result{FirstDetect: first, Patterns: len(patterns) * nOut}, nil
}
