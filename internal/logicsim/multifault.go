package logicsim

import (
	"fmt"

	"repro/internal/netlist"
)

// Injection is one stuck-at fault to inject during simulation. Pin < 0
// places the fault on the gate output; otherwise on that input pin.
// (It mirrors fault.Fault without importing it, keeping this package a
// pure simulation substrate.)
type Injection struct {
	Gate  int
	Pin   int
	Stuck bool
}

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
func (lf *laneForces) add(f Injection) error {
	if f.Gate < 0 || f.Gate >= len(lf.c.Gates) {
		return fmt.Errorf("logicsim: fault site %d out of range", f.Gate)
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
		return fmt.Errorf("logicsim: gate %d has no pin %d", f.Gate, f.Pin)
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
// equivalent to n single stuck faults; the tester substrate uses this
// to exercise that assumption honestly rather than assuming single
// faults. The forcing table is array-indexed scratch owned by the
// simulator, so repeated calls allocate nothing.
func (s *Simulator) RunWithFaults(block PatternBlock, faults []Injection) ([]uint64, error) {
	return s.RunWithFaultsInto(block, faults, nil)
}

// RunWithFaultsInto is RunWithFaults appending the output words to out
// (reusing its capacity), the allocation-free variant the ATE's serial
// oracle loops on.
func (s *Simulator) RunWithFaultsInto(block PatternBlock, faults []Injection, out []uint64) ([]uint64, error) {
	if err := block.validate(len(s.c.Inputs)); err != nil {
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
			s.val[id] = eval(g.Type, g.Fanin, s.val)
			continue
		}
		var v uint64
		if pins := lf.pins[id]; len(pins) > 0 {
			v = evalWithForcedPins(g.Type, g.Fanin, s.val, pins)
		} else {
			v = eval(g.Type, g.Fanin, s.val)
		}
		s.val[id] = lf.forceWord(id, v)
	}
	out = out[:0]
	for _, id := range s.c.Outputs {
		out = append(out, s.val[id])
	}
	return out, nil
}

// evalWithForcedPins evaluates a gate with some fanin words replaced.
// It stages the fanin words and defers to evalWords: this runs once
// per forced site, not per gate, so the copy is cheap and keeps the
// gate-function switch in one place.
func evalWithForcedPins(t netlist.GateType, fanin []int, val []uint64, pins []pinForce) uint64 {
	var stage [8]uint64
	words := stage[:0]
	if len(fanin) > len(stage) {
		words = make([]uint64, 0, len(fanin))
	}
	for _, f := range fanin {
		words = append(words, val[f])
	}
	for _, pf := range pins {
		words[pf.pin] = pf.word
	}
	return evalWords(t, words)
}
