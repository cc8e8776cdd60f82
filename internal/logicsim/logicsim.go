// Package logicsim simulates combinational circuits. It provides
//
//   - the flat core: a struct-of-arrays compiled form (Flat) walked 64
//     patterns per word (FlatSim), per-slot output cones compiled to
//     instruction streams (FlatConeSet) for cone-restricted faulty
//     re-simulation (RunCone/RunConeForced), and the wide lane layer
//     (WideSim, WideLaneForces) of 1- or 4-word lane blocks that packs
//     up to 255 defective chips beside the good machine. Every
//     production fault-simulation, strobe-refinement and lot-testing
//     path runs on it;
//   - the pointer-walking oracle (Simulator): a 64-way bit-parallel
//     levelized walk over the netlist's gate structs, with single- and
//     multi-fault injection. It shares no code with the flat core, so
//     it is the independent reference: the fault-simulation, ATPG and
//     lot-engine tests check against it. Outside tests only fault
//     diagnosis (diagnose.Dictionary.ObserveChip) runs on it;
//   - the three-valued (0/1/X) gate kernel over the flat form
//     (Flat.EvalSlotT) behind the PODEM test generator's implication,
//     with the per-gate EvalT as its reference.
package logicsim

import (
	"fmt"

	"repro/internal/netlist"
)

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

// validate rejects a block whose shape cannot have come from
// PackPatterns: wrong input count, or a Count outside 1..64 (the
// zero-value PatternBlock being the classic way to hit it).
func (b PatternBlock) validate(nIn int) error {
	if len(b.Inputs) != nIn {
		return fmt.Errorf("logicsim: block has %d inputs, circuit %d", len(b.Inputs), nIn)
	}
	if b.Count < 1 || b.Count > 64 {
		return fmt.Errorf("logicsim: block Count %d outside 1..64 (zero-value PatternBlock?)", b.Count)
	}
	return nil
}

// Simulator evaluates a circuit 64 patterns at a time by walking the
// netlist's gate structs: the oracle the flat core is checked against.
// It owns a value array indexed by gate ID and is reused across
// blocks; it is not safe for concurrent use (create one per goroutine).
type Simulator struct {
	c      *netlist.Circuit
	order  []int
	val    []uint64
	forces *laneForces // scratch forcing table for RunWithFaults
}

// NewSimulator prepares a simulator for the circuit, levelizing it. A
// zero-fanin logic gate is rejected here with its name — the eval hot
// loops index fanin[0] unconditionally, so a malformed netlist must
// fail at load, not panic mid-walk.
func NewSimulator(c *netlist.Circuit) (*Simulator, error) {
	order, err := c.Order()
	if err != nil {
		return nil, err
	}
	for id := range c.Gates {
		g := &c.Gates[id]
		if g.Type != netlist.Input && len(g.Fanin) == 0 {
			return nil, fmt.Errorf("logicsim: gate %q (%v) has no fanin and is not a primary input", g.Name, g.Type)
		}
	}
	return &Simulator{c: c, order: order, val: make([]uint64, len(c.Gates))}, nil
}

// evalWords evaluates one gate of type t over explicit fanin words,
// for the forced-pin paths that stage their fanin words first.
func evalWords(t netlist.GateType, words []uint64) uint64 {
	switch t {
	case netlist.Buf:
		return words[0]
	case netlist.Not:
		return ^words[0]
	case netlist.And, netlist.Nand:
		v := words[0]
		for _, w := range words[1:] {
			v &= w
		}
		if t == netlist.Nand {
			return ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := words[0]
		for _, w := range words[1:] {
			v |= w
		}
		if t == netlist.Nor {
			return ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := words[0]
		for _, w := range words[1:] {
			v ^= w
		}
		if t == netlist.Xnor {
			return ^v
		}
		return v
	default:
		panic(fmt.Sprintf("logicsim: cannot evaluate gate type %v", t))
	}
}

// eval computes a gate's word from its fanin words. It is the inner
// loop of every simulator pass, so it indexes val directly instead of
// staging through evalWords; the two switches must implement the same
// gate functions.
func eval(t netlist.GateType, fanin []int, val []uint64) uint64 {
	switch t {
	case netlist.Buf:
		return val[fanin[0]]
	case netlist.Not:
		return ^val[fanin[0]]
	case netlist.And, netlist.Nand:
		v := val[fanin[0]]
		for _, f := range fanin[1:] {
			v &= val[f]
		}
		if t == netlist.Nand {
			return ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := val[fanin[0]]
		for _, f := range fanin[1:] {
			v |= val[f]
		}
		if t == netlist.Nor {
			return ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := val[fanin[0]]
		for _, f := range fanin[1:] {
			v ^= val[f]
		}
		if t == netlist.Xnor {
			return ^v
		}
		return v
	default:
		panic(fmt.Sprintf("logicsim: cannot evaluate gate type %v", t))
	}
}

// Run simulates the block and returns the output words (one per
// primary output, in output order). The returned slice is freshly
// allocated; hot paths use RunInto to reuse a caller buffer.
func (s *Simulator) Run(block PatternBlock) ([]uint64, error) {
	return s.RunInto(block, nil)
}

// RunInto is Run appending the output words to out (reusing its
// capacity): with a pre-sized buffer the steady state allocates
// nothing.
func (s *Simulator) RunInto(block PatternBlock, out []uint64) ([]uint64, error) {
	if err := block.validate(len(s.c.Inputs)); err != nil {
		return nil, err
	}
	for i, id := range s.c.Inputs {
		s.val[id] = block.Inputs[i]
	}
	for _, id := range s.order {
		g := &s.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		s.val[id] = eval(g.Type, g.Fanin, s.val)
	}
	out = out[:0]
	for _, id := range s.c.Outputs {
		out = append(out, s.val[id])
	}
	return out, nil
}

// RunWithFault simulates the block with a single stuck-at fault
// injected. site is the gate whose *output* is faulty when pin < 0;
// otherwise the fault is on input pin `pin` of gate `site` (a fanout-
// branch fault affecting only that receiver). stuck is the stuck value.
func (s *Simulator) RunWithFault(block PatternBlock, site, pin int, stuck bool) ([]uint64, error) {
	return s.RunWithFaultInto(block, site, pin, stuck, nil)
}

// RunWithFaultInto is RunWithFault appending the output words to out
// (reusing its capacity).
func (s *Simulator) RunWithFaultInto(block PatternBlock, site, pin int, stuck bool, out []uint64) ([]uint64, error) {
	if err := block.validate(len(s.c.Inputs)); err != nil {
		return nil, err
	}
	if site < 0 || site >= len(s.c.Gates) {
		return nil, fmt.Errorf("logicsim: fault site %d out of range", site)
	}
	var stuckWord uint64
	if stuck {
		stuckWord = ^uint64(0)
	}
	for i, id := range s.c.Inputs {
		s.val[id] = block.Inputs[i]
		if id == site && pin < 0 {
			s.val[id] = stuckWord
		}
	}
	for _, id := range s.order {
		g := &s.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		var v uint64
		if id == site && pin >= 0 {
			// Input-pin fault: evaluate with the faulty pin forced.
			if pin >= len(g.Fanin) {
				return nil, fmt.Errorf("logicsim: gate %d has no pin %d", site, pin)
			}
			v = evalWithForcedPins(g.Type, g.Fanin, s.val, []pinForce{{pin, stuckWord}})
		} else {
			v = eval(g.Type, g.Fanin, s.val)
		}
		if id == site && pin < 0 {
			v = stuckWord
		}
		s.val[id] = v
	}
	out = out[:0]
	for _, id := range s.c.Outputs {
		out = append(out, s.val[id])
	}
	return out, nil
}

// RunSingle simulates one pattern and returns the output bits.
func (s *Simulator) RunSingle(p Pattern) ([]bool, error) {
	block, err := PackPatterns([]Pattern{p})
	if err != nil {
		return nil, err
	}
	words, err := s.Run(block)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(words))
	for i, w := range words {
		out[i] = w&1 == 1
	}
	return out, nil
}

// Value exposes the internal value of gate id after the last Run, for
// tests that compare whole value planes against it.
func (s *Simulator) Value(id int) uint64 { return s.val[id] }
