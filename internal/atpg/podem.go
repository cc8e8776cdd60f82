package atpg

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Status reports the outcome of deterministic test generation for one
// fault.
type Status int

// PODEM outcomes.
const (
	// Detected: a test was generated.
	Detected Status = iota
	// Untestable: the search space was exhausted; the fault is
	// redundant (no test exists).
	Untestable
	// Aborted: the backtrack limit was hit before a conclusion.
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Podem is a deterministic single-stuck-at test generator implementing
// the PODEM algorithm (Goel, IEEE TC 1981): branch-and-bound over
// primary-input assignments with a paired (good, faulty) three-valued
// simulation for implication.
//
// Implication runs on the circuit's flat form (logicsim.Flat): both
// ternary planes are slot-indexed arrays and fanin/fanout are CSR
// ranges. NewPodem evaluates the fault-free circuit once with every
// input X; each Generate starts both planes from that all-X state,
// injects the fault at its site and implies it: the root state. A
// decision re-evaluates only the fanout of the input it assigned,
// through a pending bitmap scanned in slot order that stops wherever a
// slot's (good, faulty) pair holds. A backtrack restores the state
// before a decision by undoing the trail of pairs changed since, with
// no re-implication; ternary implication is monotone, so a slot's pair
// changes at most twice on one decision path.
// The slots carrying the fault effect are tracked as values change, so
// the per-iteration checks (detection, D-frontier, X-path) start from
// them instead of scanning the circuit. A Podem is not safe for
// concurrent use; its scratch is reused across calls, so a warmed
// Generate allocates nothing but the pattern it returns.
type Podem struct {
	c    *netlist.Circuit
	flat *logicsim.Flat
	// BacktrackLimit bounds the search; 0 means the default (10000).
	BacktrackLimit int

	isOut []bool // per slot, fixed: the slot drives a primary output

	// Ternary planes, slot-indexed; good[:NumInputs] is the current
	// primary-input assignment. allX is the fault-free plane with every
	// input X, the state each target starts both planes from.
	good, bad, allX []logicsim.Trit
	stack           []decision
	// trail holds the old pair of every change since the root state,
	// oldest first: at most two per slot, so 2·slots entries.
	trail []trailEntry

	// The target fault in slot space: site, pin (< 0 for a stem fault),
	// stuck value, and line, the slot whose good value activates it.
	site, pin, line int32
	stuck           logicsim.Trit

	// The site's output cone, the only place an effect can exist:
	// inCone[slot] == epoch marks a member.
	inCone []uint32
	epoch  uint32

	// effect lists the slots whose two copies are binary and differ, in
	// no particular order; effAt[slot] is the slot's position in it, or
	// -1. frontier is the D-frontier in ascending gate-ID order.
	effect   []int32
	effAt    []int32
	frontier []int32

	// pend is propagate's pending bitmap: bit s%64 of word s/64 marks
	// slot s. It is all clear between calls.
	pend []uint64

	// Search scratch: seen[slot] == seenEpoch marks a slot dFrontier or
	// xPathExists already visited; walk is the traversal queue or stack
	// of target and xPathExists.
	seen      []uint32
	seenEpoch uint32
	walk      []int32
}

// trailEntry is one logged change: the slot and the pair it held.
type trailEntry struct {
	slot      int32
	good, bad logicsim.Trit
}

// NewPodem prepares a generator for the circuit.
func NewPodem(c *netlist.Circuit) (*Podem, error) {
	f, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	n := f.Slots()
	p := &Podem{
		c:        c,
		flat:     f,
		isOut:    make([]bool, n),
		good:     make([]logicsim.Trit, n),
		bad:      make([]logicsim.Trit, n),
		allX:     make([]logicsim.Trit, n),
		stack:    make([]decision, 0, f.NumInputs()),
		trail:    make([]trailEntry, 0, 2*n),
		inCone:   make([]uint32, n),
		effect:   make([]int32, 0, n),
		effAt:    make([]int32, n),
		frontier: make([]int32, 0, n),
		pend:     make([]uint64, (n+63)/64),
		seen:     make([]uint32, n),
		walk:     make([]int32, 0, n),
	}
	for i := range p.effAt {
		p.effAt[i] = -1
	}
	for oi := range c.Outputs {
		p.isOut[f.OutputSlot(oi)] = true
	}
	numIn := f.NumInputs()
	for s := 0; s < numIn; s++ {
		p.allX[s] = logicsim.X
	}
	for s := numIn; s < n; s++ {
		p.allX[s] = f.EvalSlotT(p.allX, s, -1, logicsim.X)
	}
	return p, nil
}

// stuckTrit converts a stuck value to a Trit.
func stuckTrit(stuck bool) logicsim.Trit {
	if stuck {
		return logicsim.T
	}
	return logicsim.F
}

// controlling returns the controlling input value of a gate type and
// whether it has one.
func controlling(t netlist.GateType) (logicsim.Trit, bool) {
	switch t {
	case netlist.And, netlist.Nand:
		return logicsim.F, true
	case netlist.Or, netlist.Nor:
		return logicsim.T, true
	default:
		return logicsim.X, false
	}
}

// inverts reports whether the gate type inverts its (combined) input.
func inverts(t netlist.GateType) bool {
	switch t {
	case netlist.Nand, netlist.Nor, netlist.Not, netlist.Xnor:
		return true
	default:
		return false
	}
}

// decision is one node of the backtracking stack.
type decision struct {
	pi      int32
	value   logicsim.Trit
	flipped bool
	mark    int32 // the trail's length before the assignment
}

// Generate attempts to produce a test pattern for fault f. Unassigned
// inputs in a successful test are filled with 0 (deterministic), which
// keeps full runs reproducible; callers wanting random fill can
// post-process the returned assignment via FillX. A fault naming no
// gate or pin of the circuit is reported Untestable.
func (p *Podem) Generate(f fault.Fault) (logicsim.Pattern, Status) {
	if f.Gate < 0 || f.Gate >= len(p.c.Gates) || f.Pin < -1 || f.Pin >= len(p.c.Gates[f.Gate].Fanin) {
		return nil, Untestable
	}
	limit := p.BacktrackLimit
	if limit <= 0 {
		limit = 10000
	}
	p.target(f)
	p.stack = p.stack[:0]
	backtracks := 0
	for {
		if p.detected() {
			return p.extractPattern(), Detected
		}
		lineGood := p.good[p.line]
		// Activation impossible?
		failed := lineGood != logicsim.X && lineGood == p.stuck
		if !failed && lineGood != logicsim.X {
			// Fault activated but the effect vanished with nothing left on
			// the branch pin to push, or no X-path from the frontier to an
			// output.
			effect := p.dFrontier()
			siteOpen := p.good[p.site] == logicsim.X || p.bad[p.site] == logicsim.X
			if !effect && !(p.branchActivated() && siteOpen) {
				failed = true
			} else if !p.xPathExists() {
				failed = true
			}
		}
		if !failed {
			if id, v, ok := p.objective(); ok {
				if pi, val, ok := p.backtrace(id, v); ok {
					p.stack = append(p.stack, decision{pi: pi, value: val, mark: int32(len(p.trail))})
					p.assign(pi, val)
					continue
				}
			}
		}
		// Backtrack: restore the state before the top decision, then
		// flip it, or pop it if it was flipped already.
		for {
			if len(p.stack) == 0 {
				return nil, Untestable
			}
			top := &p.stack[len(p.stack)-1]
			p.undo(top.mark)
			if !top.flipped {
				if backtracks++; backtracks > limit {
					return nil, Aborted
				}
				top.flipped = true
				top.value = logicsim.NotT(top.value)
				p.assign(top.pi, top.value)
				break
			}
			p.stack = p.stack[:len(p.stack)-1]
		}
	}
}

// target loads fault f: its slot coordinates, its output cone, and
// both planes at the root state, the all-X state with the fault
// injected and implied, as a full evaluation with every input X. The
// all-X state carries no effect, so the effect list and trail start empty.
func (p *Podem) target(f fault.Fault) {
	fl := p.flat
	p.site, p.pin, p.stuck = int32(fl.SlotOf(f.Gate)), int32(f.Pin), stuckTrit(f.Stuck)
	p.line = p.site
	if f.Pin >= 0 {
		p.line = fl.FaninSlots(int(p.site))[f.Pin]
	}
	if p.epoch++; p.epoch == 0 {
		clear(p.inCone)
		p.epoch = 1
	}
	p.inCone[p.site] = p.epoch
	queue := append(p.walk[:0], p.site)
	for i := 0; i < len(queue); i++ {
		for _, fo := range fl.FanoutSlots(int(queue[i])) {
			if p.inCone[fo] != p.epoch {
				p.inCone[fo] = p.epoch
				queue = append(queue, fo)
			}
		}
	}
	p.walk = queue[:0]
	for _, s := range p.effect {
		p.effAt[s] = -1
	}
	p.effect = p.effect[:0]
	copy(p.good, p.allX)
	copy(p.bad, p.allX)
	g, b := logicsim.X, p.stuck // a stem fault on a primary input
	if p.site >= int32(fl.NumInputs()) {
		g, b = p.eval(p.site)
	}
	p.set(p.site, g, b)
	p.propagate(p.site)
	p.trail = p.trail[:0]
}

// set stores slot s's (good, faulty) pair, logging the old pair on the
// trail.
//
//repolint:hotpath
func (p *Podem) set(s int32, g, b logicsim.Trit) {
	p.trail = append(p.trail, trailEntry{s, p.good[s], p.bad[s]})
	p.store(s, g, b)
}

// store writes slot s's (good, faulty) pair and keeps the effect list
// in step.
//
//repolint:hotpath
func (p *Podem) store(s int32, g, b logicsim.Trit) {
	p.good[s], p.bad[s] = g, b
	on := g != logicsim.X && b != logicsim.X && g != b
	if on == (p.effAt[s] >= 0) {
		return
	}
	if on {
		p.effAt[s] = int32(len(p.effect))
		p.effect = append(p.effect, s)
		return
	}
	// Swap-remove.
	i, last := p.effAt[s], p.effect[len(p.effect)-1]
	p.effect[i], p.effAt[last] = last, i
	p.effect = p.effect[:len(p.effect)-1]
	p.effAt[s] = -1
}

// undo restores, newest first, every pair changed since the trail was
// mark entries long. The pairs it restores are implied by the
// assignment in force then, so nothing is left to propagate.
func (p *Podem) undo(mark int32) {
	for i := len(p.trail) - 1; i >= int(mark); i-- {
		e := p.trail[i]
		p.store(e.slot, e.good, e.bad)
	}
	p.trail = p.trail[:mark]
}

// eval computes a logic slot's (good, faulty) pair from its fanins,
// injecting the target fault at its site. Outside the site's cone the
// faulty machine equals the good one.
//
//repolint:hotpath
func (p *Podem) eval(s int32) (logicsim.Trit, logicsim.Trit) {
	g := p.flat.EvalSlotT(p.good, int(s), -1, logicsim.X)
	switch {
	case p.inCone[s] != p.epoch:
		return g, g
	case s != p.site:
		return g, p.flat.EvalSlotT(p.bad, int(s), -1, logicsim.X)
	case p.pin < 0:
		return g, p.stuck
	default:
		return g, p.flat.EvalSlotT(p.bad, int(s), int(p.pin), p.stuck)
	}
}

// assign sets primary input pi to v in both planes (a stem fault on the
// input keeps its stuck value in the faulty one) and implies it.
func (p *Podem) assign(pi int32, v logicsim.Trit) {
	b := v
	if pi == p.site && p.pin < 0 {
		b = p.stuck
	}
	p.set(pi, v, b)
	p.propagate(pi)
}

// propagate is the event-driven implication of a change at slot s: it
// marks s's fanout in the pending bitmap and scans the bitmap forward
// in slot order, re-evaluating each marked slot. A slot whose (good,
// faulty) pair changes marks its own fanout, always at higher slots, so
// one forward scan evaluates each marked slot once and reaches the same
// values a full evaluation would; hi tracks the highest marked word.
//
//repolint:hotpath
func (p *Podem) propagate(s int32) {
	fl, pend := p.flat, p.pend
	hi := markFanout(pend, fl.FanoutSlots(int(s)), -1)
	for wi := int(s >> 6); wi <= hi; wi++ {
		// The word's marks are popped from a local copy; a fanout marked
		// in this same word is picked up after its marking.
		w := pend[wi]
		pend[wi] = 0
		for w != 0 {
			s := int32(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
			g, b := p.eval(s)
			if g == p.good[s] && b == p.bad[s] {
				continue
			}
			p.set(s, g, b)
			hi = markFanout(pend, fl.FanoutSlots(int(s)), hi)
			w |= pend[wi]
			pend[wi] = 0
		}
	}
}

// markFanout sets the pending bits of a fanout list and returns the
// highest word marked, given hi, the highest before it.
func markFanout(pend []uint64, fo []int32, hi int) int {
	for _, r := range fo {
		pend[r>>6] |= 1 << uint(r&63)
	}
	if len(fo) > 0 {
		hi = max(hi, int(fo[len(fo)-1]>>6)) // fanout lists ascend
	}
	return hi
}

// detected reports whether any primary output shows the effect.
func (p *Podem) detected() bool {
	for _, s := range p.effect {
		if p.isOut[s] {
			return true
		}
	}
	return false
}

// branchActivated reports whether a branch fault's effect is present at
// its pin: the driving line is binary and differs from the stuck value.
func (p *Podem) branchActivated() bool {
	if p.pin < 0 {
		return false
	}
	v := p.good[p.line]
	return v != logicsim.X && v != p.stuck
}

// dFrontier fills p.frontier with the D-frontier in ascending gate-ID
// order — the gates with a fault-effect input whose output is still
// unknown in either copy, gathered from the fanout of the effect slots
// — and reports whether any slot carries the effect. For a branch
// fault, the faulted gate itself joins the frontier once the fault is
// activated, because the effect lives on the pin, which is invisible to
// slot values.
func (p *Podem) dFrontier() (effect bool) {
	fl := p.flat
	p.nextSeen()
	open := func(s int32) bool { return p.good[s] == logicsim.X || p.bad[s] == logicsim.X }
	fr := p.frontier[:0]
	if p.branchActivated() && open(p.site) {
		p.seen[p.site] = p.seenEpoch
		fr = append(fr, int32(fl.GateAt(int(p.site))))
	}
	for _, e := range p.effect {
		for _, fo := range fl.FanoutSlots(int(e)) {
			if p.seen[fo] != p.seenEpoch && open(fo) {
				p.seen[fo] = p.seenEpoch
				fr = append(fr, int32(fl.GateAt(int(fo))))
			}
		}
	}
	slices.Sort(fr)
	for i, g := range fr {
		fr[i] = int32(fl.SlotOf(int(g)))
	}
	p.frontier = fr
	return len(p.effect) > 0
}

// nextSeen starts a new search over the seen stamps.
func (p *Podem) nextSeen() {
	if p.seenEpoch++; p.seenEpoch == 0 {
		clear(p.seen)
		p.seenEpoch = 1
	}
}

// xPathExists checks that some D-frontier gate reaches a primary output
// through gates whose value is still unknown in either copy.
func (p *Podem) xPathExists() bool {
	p.nextSeen()
	stack := append(p.walk[:0], p.frontier...)
	found := false
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.seen[s] == p.seenEpoch {
			continue
		}
		p.seen[s] = p.seenEpoch
		if p.isOut[s] {
			found = true
			break
		}
		for _, fo := range p.flat.FanoutSlots(int(s)) {
			if p.good[fo] == logicsim.X || p.bad[fo] == logicsim.X {
				stack = append(stack, fo)
			}
		}
	}
	p.walk = stack[:0]
	return found
}

// objective picks the next goal: activate the fault if not yet
// activated, otherwise advance the first D-frontier gate with an X
// input (the frontier the preceding dFrontier left).
func (p *Podem) objective() (slot int32, v logicsim.Trit, ok bool) {
	if p.good[p.line] == logicsim.X {
		return p.line, logicsim.NotT(p.stuck), true
	}
	for _, s := range p.frontier {
		for _, fs := range p.flat.FaninSlots(int(s)) {
			if p.good[fs] == logicsim.X {
				// Ask for the value that lets the effect through: the
				// non-controlling one, or 1 for a gate without one.
				want := logicsim.T
				if ctrl, has := controlling(p.gateType(s)); has {
					want = logicsim.NotT(ctrl)
				}
				return fs, want, true
			}
		}
	}
	return 0, logicsim.X, false
}

// gateType returns the netlist type of the gate at logic slot s.
func (p *Podem) gateType(s int32) netlist.GateType {
	return p.c.Gates[p.flat.GateAt(int(s))].Type
}

// backtrace maps an objective (slot, value) to an unassigned primary
// input and a value that tends to achieve the objective, following the
// first X fanin in pin order.
func (p *Podem) backtrace(s int32, v logicsim.Trit) (pi int32, value logicsim.Trit, ok bool) {
	numIn := int32(p.flat.NumInputs())
	for s >= numIn {
		if inverts(p.gateType(s)) {
			v = logicsim.NotT(v)
		}
		next := int32(-1)
		for _, fs := range p.flat.FaninSlots(int(s)) {
			if p.good[fs] == logicsim.X {
				next = fs
				break
			}
		}
		if next < 0 {
			return 0, logicsim.X, false
		}
		s = next
	}
	if p.good[s] != logicsim.X {
		return 0, logicsim.X, false // already assigned: dead objective
	}
	return s, v, true
}

// extractPattern converts the input assignment to a concrete pattern,
// filling X with 0.
func (p *Podem) extractPattern() logicsim.Pattern {
	out := make(logicsim.Pattern, p.flat.NumInputs())
	for i := range out {
		out[i] = p.good[i] == logicsim.T
	}
	return out
}
