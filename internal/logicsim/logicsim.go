// Package logicsim simulates combinational circuits. It provides
//
//   - the flat core: a struct-of-arrays compiled form (Flat) walked 64
//     patterns per word (FlatSim), and the wide lane layer (WideSim,
//     WideLaneForces) of 1- or 4-word lane blocks that packs up to 255
//     defective chips beside the good machine, walked linearly over
//     every slot (WideSim.RunLaneForced). Its divergence walk
//     (WideSim.RunChipBlock, diverge.go) evaluates one faulty machine
//     over 64 patterns, only at the slots where it departs from the
//     good one: it is the one faulty-machine kernel of fault
//     simulation, strobe refinement, diagnosis and the lot engine's
//     sparse batches. The flat core is the only simulator in
//     production;
//   - the three-valued (0/1/X) gate kernel over the flat form
//     (Flat.EvalSlotT) behind the PODEM test generator's implication.
//
// The independent oracle the tests check all of this against — the
// pointer-walking Simulator over the netlist's gate structs and the
// per-gate ternary EvalT — lives in the test-only subpackage ref, which
// shares no simulation code with the flat core; repolint's oracle
// analyzer keeps it out of every non-test file.
package logicsim

import "fmt"

// Pattern assigns one bit per primary input, in the circuit's input
// order.
type Pattern []bool

// PatternBlock packs up to 64 patterns: word i of the block is the
// values of input i across the patterns (bit p = pattern p's value).
type PatternBlock struct {
	Inputs []uint64 // one word per primary input
	Count  int      // number of valid patterns (1..64)
}

// PackPatterns packs up to 64 patterns into a block. All patterns must
// have the same width (the circuit's input count).
func PackPatterns(patterns []Pattern) (PatternBlock, error) {
	if len(patterns) == 0 || len(patterns) > 64 {
		return PatternBlock{}, fmt.Errorf("logicsim: block needs 1..64 patterns, got %d", len(patterns))
	}
	width := len(patterns[0])
	words := make([]uint64, width)
	for p, pat := range patterns {
		if len(pat) != width {
			return PatternBlock{}, fmt.Errorf("logicsim: pattern %d width %d != %d", p, len(pat), width)
		}
		// Branchless bit scatter: a bool is 0 or 1, so converting and
		// shifting beats a per-bit branch that mispredicts half the time
		// on random patterns (packing is a measurable slice of a short
		// fault-simulation run).
		bit := uint(p)
		for i, v := range pat {
			var b uint64
			if v {
				b = 1
			}
			words[i] |= b << bit
		}
	}
	return PatternBlock{Inputs: words, Count: len(patterns)}, nil
}

// PackBlocks packs an ordered pattern sequence into 64-pattern blocks:
// bit p of block bi is pattern bi*64+p. No patterns pack to no blocks.
func PackBlocks(patterns []Pattern) ([]PatternBlock, error) {
	blocks := make([]PatternBlock, 0, (len(patterns)+63)/64)
	for base := 0; base < len(patterns); base += 64 {
		block, err := PackPatterns(patterns[base:min(base+64, len(patterns))])
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, block)
	}
	return blocks, nil
}

// Mask returns the valid-pattern mask of the block. Count is assumed
// valid (1..64, as PackPatterns produces); the Run entry points reject
// anything else before Mask is consulted, because a negative Count
// would shift-wrap into an all-ones mask and silently treat 64 garbage
// lanes as real patterns.
func (b PatternBlock) Mask() uint64 {
	if b.Count >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(b.Count)) - 1
}

// Validate rejects a block whose shape cannot have come from
// PackPatterns for a circuit of nIn inputs: wrong input count, or a
// Count outside 1..64 (the zero-value PatternBlock being the classic
// way to hit it).
func (b PatternBlock) Validate(nIn int) error {
	if len(b.Inputs) != nIn {
		return fmt.Errorf("logicsim: block has %d inputs, circuit %d", len(b.Inputs), nIn)
	}
	if b.Count < 1 || b.Count > 64 {
		return fmt.Errorf("logicsim: block Count %d outside 1..64 (zero-value PatternBlock?)", b.Count)
	}
	return nil
}
