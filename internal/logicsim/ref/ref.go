// Package ref is the pointer-walking reference simulator: a 64-way
// bit-parallel levelized walk over the netlist's gate structs
// (Simulator), with single- and multi-fault injection, and the per-gate
// three-valued evaluator (EvalT). It shares no simulation code with
// logicsim's flat core, so it is the independent oracle the
// fault-simulation, ATPG, tester, diagnosis and flat-core tests check
// against. Nothing in production runs on it: only test files may import
// it, and repolint's oracle analyzer enforces that.
package ref

import (
	"fmt"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

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
			return nil, fmt.Errorf("ref: gate %q (%v) has no fanin and is not a primary input", g.Name, g.Type)
		}
	}
	return &Simulator{c: c, order: order, val: make([]uint64, len(c.Gates))}, nil
}

// eval computes a gate's word from its fanin words, reading each pin
// listed in pins as its forced word instead (pins is nil except at a
// gate carrying pin faults).
func eval(t netlist.GateType, fanin []int, val []uint64, pins []pinForce) uint64 {
	in := func(i int) uint64 {
		for _, pf := range pins {
			if pf.pin == i {
				return pf.word
			}
		}
		return val[fanin[i]]
	}
	v := in(0)
	switch t {
	case netlist.Buf:
	case netlist.Not:
		v = ^v
	case netlist.And, netlist.Nand:
		for i := 1; i < len(fanin); i++ {
			v &= in(i)
		}
		if t == netlist.Nand {
			v = ^v
		}
	case netlist.Or, netlist.Nor:
		for i := 1; i < len(fanin); i++ {
			v |= in(i)
		}
		if t == netlist.Nor {
			v = ^v
		}
	case netlist.Xor, netlist.Xnor:
		for i := 1; i < len(fanin); i++ {
			v ^= in(i)
		}
		if t == netlist.Xnor {
			v = ^v
		}
	default:
		panic(fmt.Sprintf("ref: cannot evaluate gate type %v", t))
	}
	return v
}

// Run simulates the block and returns the output words (one per
// primary output, in output order). The returned slice is freshly
// allocated; hot paths use RunInto to reuse a caller buffer.
func (s *Simulator) Run(block logicsim.PatternBlock) ([]uint64, error) {
	return s.RunInto(block, nil)
}

// RunInto is Run appending the output words to out (reusing its
// capacity): with a pre-sized buffer the steady state allocates
// nothing.
func (s *Simulator) RunInto(block logicsim.PatternBlock, out []uint64) ([]uint64, error) {
	return s.RunWithFaultsInto(block, nil, out)
}

// RunWithFault simulates the block with a single stuck-at fault
// injected. site is the gate whose *output* is faulty when pin < 0;
// otherwise the fault is on input pin `pin` of gate `site` (a fanout-
// branch fault affecting only that receiver). stuck is the stuck value.
func (s *Simulator) RunWithFault(block logicsim.PatternBlock, site, pin int, stuck bool) ([]uint64, error) {
	return s.RunWithFaultInto(block, site, pin, stuck, nil)
}

// RunWithFaultInto is RunWithFault appending the output words to out
// (reusing its capacity).
func (s *Simulator) RunWithFaultInto(block logicsim.PatternBlock, site, pin int, stuck bool, out []uint64) ([]uint64, error) {
	if err := block.Validate(len(s.c.Inputs)); err != nil {
		return nil, err
	}
	if site < 0 || site >= len(s.c.Gates) {
		return nil, fmt.Errorf("ref: fault site %d out of range", site)
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
				return nil, fmt.Errorf("ref: gate %d has no pin %d", site, pin)
			}
			v = eval(g.Type, g.Fanin, s.val, []pinForce{{pin, stuckWord}})
		} else {
			v = eval(g.Type, g.Fanin, s.val, nil)
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
func (s *Simulator) RunSingle(p logicsim.Pattern) ([]bool, error) {
	block, err := logicsim.PackPatterns([]logicsim.Pattern{p})
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

// laneForces is RunWithFaults' multi-fault forcing table. Every
// forced site overrides all 64 pattern lanes of its word (one faulty
// machine, 64 patterns): a stem force replaces the gate's output word,
// a pin force replaces one fanin word during that gate's evaluation
// only (the fanout-branch semantics). Adding the same site twice keeps
// the *last* value, matching how a physical short list is applied in
// order. reset clears the table in O(1) via an epoch bump; the per-gate
// arrays are allocated once and reused. Not safe for concurrent use.
type laneForces struct {
	c     *netlist.Circuit
	epoch int
	mark  []int // per gate: the epoch this gate's entries belong to
	// stemOn/stem are the output-stem force: stem[id] is the forced word
	// when stemOn[id] is set this epoch.
	stemOn []bool
	stem   []uint64
	// pins holds the forced input pins of each gate, truncated to zero
	// length when the gate is first touched in a new epoch.
	pins [][]pinForce
}

// pinForce is one forced input pin of a gate.
type pinForce struct {
	pin  int
	word uint64
}

// newLaneForces allocates a forcing table sized for the circuit.
func newLaneForces(c *netlist.Circuit) *laneForces {
	n := len(c.Gates)
	return &laneForces{
		c:      c,
		epoch:  1,
		mark:   make([]int, n),
		stemOn: make([]bool, n),
		stem:   make([]uint64, n),
		pins:   make([][]pinForce, n),
	}
}

// reset empties the table for reuse. O(1): stale entries are ignored by
// the epoch marks and overwritten on the next add.
func (lf *laneForces) reset() { lf.epoch++ }

// add forces the fault on every lane. A site already forced keeps the
// new stuck value.
func (lf *laneForces) add(f logicsim.Injection) error {
	if f.Gate < 0 || f.Gate >= len(lf.c.Gates) {
		return fmt.Errorf("ref: fault site %d out of range", f.Gate)
	}
	if lf.mark[f.Gate] != lf.epoch {
		lf.mark[f.Gate] = lf.epoch
		lf.stemOn[f.Gate] = false
		lf.pins[f.Gate] = lf.pins[f.Gate][:0]
	}
	var word uint64
	if f.Stuck {
		word = ^uint64(0)
	}
	if f.Pin < 0 {
		lf.stemOn[f.Gate], lf.stem[f.Gate] = true, word
		return nil
	}
	if f.Pin >= len(lf.c.Gates[f.Gate].Fanin) {
		return fmt.Errorf("ref: gate %d has no pin %d", f.Gate, f.Pin)
	}
	for i := range lf.pins[f.Gate] {
		if pf := &lf.pins[f.Gate][i]; pf.pin == f.Pin {
			pf.word = word
			return nil
		}
	}
	lf.pins[f.Gate] = append(lf.pins[f.Gate], pinForce{pin: f.Pin, word: word})
	return nil
}

// forceWord applies the gate's stem force to a value word, if any.
func (lf *laneForces) forceWord(id int, v uint64) uint64 {
	if lf.mark[id] == lf.epoch && lf.stemOn[id] {
		return lf.stem[id]
	}
	return v
}

// RunWithFaults simulates the block with *all* the given faults present
// simultaneously — the multiple-fault machine a physically defective
// chip actually is. The paper's model treats the chip's defects as
// equivalent to n single stuck faults; the tester's lane walk tests
// real multi-fault chips, and this is the reference its tests check
// those chips against. The forcing table is array-indexed scratch owned
// by the simulator, so repeated calls allocate nothing.
func (s *Simulator) RunWithFaults(block logicsim.PatternBlock, faults []logicsim.Injection) ([]uint64, error) {
	return s.RunWithFaultsInto(block, faults, nil)
}

// RunWithFaultsInto is RunWithFaults appending the output words to out
// (reusing its capacity), the allocation-free variant the tester's
// per-chip test oracle loops on.
func (s *Simulator) RunWithFaultsInto(block logicsim.PatternBlock, faults []logicsim.Injection, out []uint64) ([]uint64, error) {
	if err := block.Validate(len(s.c.Inputs)); err != nil {
		return nil, err
	}
	if s.forces == nil {
		s.forces = newLaneForces(s.c)
	}
	lf := s.forces
	lf.reset()
	for _, f := range faults {
		if err := lf.add(f); err != nil {
			return nil, err
		}
	}
	for i, id := range s.c.Inputs {
		s.val[id] = lf.forceWord(id, block.Inputs[i])
	}
	for _, id := range s.order {
		g := &s.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		if lf.mark[id] != lf.epoch {
			s.val[id] = eval(g.Type, g.Fanin, s.val, nil)
			continue
		}
		s.val[id] = lf.forceWord(id, eval(g.Type, g.Fanin, s.val, lf.pins[id]))
	}
	out = out[:0]
	for _, id := range s.c.Outputs {
		out = append(out, s.val[id])
	}
	return out, nil
}

// AndT returns three-valued AND: 0 dominates X.
func AndT(a, b logicsim.Trit) logicsim.Trit {
	if a == logicsim.F || b == logicsim.F {
		return logicsim.F
	}
	if a == logicsim.T && b == logicsim.T {
		return logicsim.T
	}
	return logicsim.X
}

// OrT returns three-valued OR: 1 dominates X.
func OrT(a, b logicsim.Trit) logicsim.Trit {
	if a == logicsim.T || b == logicsim.T {
		return logicsim.T
	}
	if a == logicsim.F && b == logicsim.F {
		return logicsim.F
	}
	return logicsim.X
}

// XorT returns three-valued XOR: any X poisons the result.
func XorT(a, b logicsim.Trit) logicsim.Trit {
	if a == logicsim.X || b == logicsim.X {
		return logicsim.X
	}
	if a != b {
		return logicsim.T
	}
	return logicsim.F
}

// EvalT evaluates a gate in three-valued logic over its fanin values:
// the per-gate reference the flat kernel (Flat.EvalSlotT) is tested
// against.
func EvalT(t netlist.GateType, in []logicsim.Trit) logicsim.Trit {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return logicsim.NotT(in[0])
	case netlist.And, netlist.Nand:
		v := in[0]
		for _, x := range in[1:] {
			v = AndT(v, x)
		}
		if t == netlist.Nand {
			return logicsim.NotT(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := in[0]
		for _, x := range in[1:] {
			v = OrT(v, x)
		}
		if t == netlist.Nor {
			return logicsim.NotT(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v = XorT(v, x)
		}
		if t == netlist.Xnor {
			return logicsim.NotT(v)
		}
		return v
	default:
		panic(fmt.Sprintf("ref: cannot evaluate gate type %v", t))
	}
}
