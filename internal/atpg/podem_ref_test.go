package atpg

import (
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

// This file keeps the per-gate PODEM the flat, event-driven Podem
// replaced, as the test-only reference TestPodemMatchesReference
// compares it against: implication re-evaluates every gate with
// ref.EvalT over the netlist structs, and the D-frontier, effect
// and X-path checks scan the whole circuit. Only the names changed.

// refPodem is a deterministic single-stuck-at test generator implementing
// the PODEM algorithm: branch-and-bound over primary-input assignments
// with a pair (good, faulty) three-valued simulation for implication.
type refPodem struct {
	c     *netlist.Circuit
	order []int
	// BacktrackLimit bounds the search; 0 means the default (10000).
	BacktrackLimit int

	good []logicsim.Trit
	bad  []logicsim.Trit
	pi   []logicsim.Trit // current PI assignment
}

// newRefPodem prepares a generator for the circuit.
func newRefPodem(c *netlist.Circuit) (*refPodem, error) {
	order, err := c.Order()
	if err != nil {
		return nil, err
	}
	return &refPodem{
		c:     c,
		order: order,
		good:  make([]logicsim.Trit, len(c.Gates)),
		bad:   make([]logicsim.Trit, len(c.Gates)),
		pi:    make([]logicsim.Trit, len(c.Inputs)),
	}, nil
}

// imply simulates both machines under the current PI assignment with
// fault f injected in the faulty copy.
func (p *refPodem) imply(f fault.Fault) {
	for i, id := range p.c.Inputs {
		p.good[id] = p.pi[i]
		p.bad[id] = p.pi[i]
	}
	var buf [8]logicsim.Trit
	for _, id := range p.order {
		g := &p.c.Gates[id]
		if g.Type != netlist.Input {
			in := buf[:0]
			for _, fi := range g.Fanin {
				in = append(in, p.good[fi])
			}
			p.good[id] = ref.EvalT(g.Type, in)
			in = buf[:0]
			for pin, fi := range g.Fanin {
				v := p.bad[fi]
				if f.Pin >= 0 && f.Gate == id && pin == f.Pin {
					v = stuckTrit(f.Stuck)
				}
				in = append(in, v)
			}
			p.bad[id] = ref.EvalT(g.Type, in)
		}
		if f.Pin < 0 && f.Gate == id {
			p.bad[id] = stuckTrit(f.Stuck)
		}
	}
}

// effectAt reports whether gate id carries a fault effect: both copies
// binary and different.
func (p *refPodem) effectAt(id int) bool {
	return p.good[id] != logicsim.X && p.bad[id] != logicsim.X && p.good[id] != p.bad[id]
}

// detected reports whether any primary output shows the effect.
func (p *refPodem) detected() bool {
	for _, o := range p.c.Outputs {
		if p.effectAt(o) {
			return true
		}
	}
	return false
}

// refFaultLine returns the gate whose value activates the fault: the gate
// itself for a stem fault, the driver for a branch fault.
func refFaultLine(c *netlist.Circuit, f fault.Fault) int {
	if f.Pin < 0 {
		return f.Gate
	}
	return c.Gates[f.Gate].Fanin[f.Pin]
}

// branchActivated reports whether a branch fault's effect is present at
// its pin: the driving line is binary and differs from the stuck value.
func (p *refPodem) branchActivated(f fault.Fault) bool {
	if f.Pin < 0 {
		return false
	}
	drv := p.c.Gates[f.Gate].Fanin[f.Pin]
	return p.good[drv] != logicsim.X && p.good[drv] != stuckTrit(f.Stuck)
}

// dFrontier returns gates with at least one fault-effect input and an
// output still unknown in either copy. For a branch fault, the faulted
// gate itself joins the frontier once the fault is activated, because
// the effect lives on the pin, which is invisible to gate-level values.
func (p *refPodem) dFrontier(f fault.Fault) []int {
	var out []int
	for id := range p.c.Gates {
		g := &p.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		if p.good[id] != logicsim.X && p.bad[id] != logicsim.X {
			continue
		}
		if f.Gate == id && p.branchActivated(f) {
			out = append(out, id)
			continue
		}
		for _, fi := range g.Fanin {
			if p.effectAt(fi) {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// xPathExists checks that some D-frontier gate reaches a primary output
// through gates whose value is still unknown in either copy.
func (p *refPodem) xPathExists(frontier []int) bool {
	if len(frontier) == 0 {
		return false
	}
	isPO := make(map[int]bool, len(p.c.Outputs))
	for _, o := range p.c.Outputs {
		isPO[o] = true
	}
	seen := make([]bool, len(p.c.Gates))
	stack := append([]int(nil), frontier...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if isPO[id] {
			return true
		}
		for _, out := range p.c.Gates[id].Fanout {
			if p.good[out] == logicsim.X || p.bad[out] == logicsim.X {
				stack = append(stack, out)
			}
		}
	}
	return false
}

// backtrace maps an objective (gate, value) to an unassigned primary
// input and a value that tends to achieve the objective.
func (p *refPodem) backtrace(id int, v logicsim.Trit) (piIndex int, value logicsim.Trit, ok bool) {
	for {
		g := &p.c.Gates[id]
		if g.Type == netlist.Input {
			for i, pid := range p.c.Inputs {
				if pid == id {
					if p.pi[i] != logicsim.X {
						return 0, logicsim.X, false // already assigned: dead objective
					}
					return i, v, true
				}
			}
			return 0, logicsim.X, false
		}
		if inverts(g.Type) {
			v = logicsim.NotT(v)
		}
		// Choose an X-valued fanin; prefer the first.
		next := -1
		for _, fi := range g.Fanin {
			if p.good[fi] == logicsim.X {
				next = fi
				break
			}
		}
		if next < 0 {
			return 0, logicsim.X, false
		}
		id = next
	}
}

// objective picks the next goal: activate the fault if not yet
// activated, otherwise advance the D-frontier.
func (p *refPodem) objective(f fault.Fault) (id int, v logicsim.Trit, ok bool) {
	line := refFaultLine(p.c, f)
	if p.good[line] == logicsim.X {
		return line, logicsim.NotT(stuckTrit(f.Stuck)), true
	}
	frontier := p.dFrontier(f)
	for _, gid := range frontier {
		g := &p.c.Gates[gid]
		ctrl, has := controlling(g.Type)
		want := logicsim.T
		if has {
			want = logicsim.NotT(ctrl)
		}
		for _, fi := range g.Fanin {
			if p.good[fi] == logicsim.X {
				return fi, want, true
			}
		}
	}
	return 0, logicsim.X, false
}

// refDecision is one node of the backtracking stack.
type refDecision struct {
	pi      int
	value   logicsim.Trit
	flipped bool
}

// Generate attempts to produce a test pattern for fault f. Unassigned
// inputs in a successful test are filled with 0 (deterministic), which
// keeps full runs reproducible; callers wanting random fill can
// post-process the returned assignment via FillX.
func (p *refPodem) Generate(f fault.Fault) (logicsim.Pattern, Status) {
	if f.Gate < 0 || f.Gate >= len(p.c.Gates) {
		return nil, Untestable
	}
	limit := p.BacktrackLimit
	if limit <= 0 {
		limit = 10000
	}
	for i := range p.pi {
		p.pi[i] = logicsim.X
	}
	var stack []refDecision
	backtracks := 0
	for {
		p.imply(f)
		if p.detected() {
			return p.extractPattern(), Detected
		}
		line := refFaultLine(p.c, f)
		failed := false
		// Activation impossible?
		if p.good[line] != logicsim.X && p.good[line] == stuckTrit(f.Stuck) {
			failed = true
		}
		// Fault activated but effect vanished and no frontier to push.
		if !failed && p.good[line] != logicsim.X {
			frontier := p.dFrontier(f)
			if !p.effectAnywhere() && !(p.branchActivated(f) && (p.good[f.Gate] == logicsim.X || p.bad[f.Gate] == logicsim.X)) {
				failed = true
			} else if !p.xPathExists(frontier) && !p.detected() {
				failed = true
			}
		}
		if !failed {
			id, v, ok := p.objective(f)
			if ok {
				if pi, val, ok2 := p.backtrace(id, v); ok2 {
					stack = append(stack, refDecision{pi: pi, value: val})
					p.pi[pi] = val
					continue
				}
			}
			failed = true
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				return nil, Untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.value = logicsim.NotT(top.value)
				p.pi[top.pi] = top.value
				backtracks++
				if backtracks > limit {
					return nil, Aborted
				}
				break
			}
			p.pi[top.pi] = logicsim.X
			stack = stack[:len(stack)-1]
		}
	}
}

// effectAnywhere reports whether any gate carries the fault effect.
func (p *refPodem) effectAnywhere() bool {
	for id := range p.c.Gates {
		if p.effectAt(id) {
			return true
		}
	}
	return false
}

// extractPattern converts the PI assignment to a concrete pattern,
// filling X with 0.
func (p *refPodem) extractPattern() logicsim.Pattern {
	out := make(logicsim.Pattern, len(p.pi))
	for i, v := range p.pi {
		out[i] = v == logicsim.T
	}
	return out
}
