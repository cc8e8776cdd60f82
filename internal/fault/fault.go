// Package fault defines the single-stuck-at fault universe over a
// gate-level circuit and implements structural fault collapsing
// (equivalence and dominance), the standard reductions every fault
// simulator and ATPG front-end applies.
package fault

import (
	"fmt"

	"repro/internal/netlist"
)

// Fault is a single stuck-at fault. Pin = -1 places the fault on the
// gate's output (the stem); Pin >= 0 places it on that input pin of the
// gate (the fanout branch feeding this gate only).
type Fault struct {
	Gate  int  // gate ID
	Pin   int  // -1 = output stem, >= 0 = input pin index
	Stuck bool // stuck value: false = stuck-at-0, true = stuck-at-1
}

// String renders the fault with the circuit's gate names, e.g.
// "16/in1 s-a-1" or "22 s-a-0".
func (f Fault) String() string {
	v := 0
	if f.Stuck {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("g%d s-a-%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d/in%d s-a-%d", f.Gate, f.Pin, v)
}

// Name renders the fault using gate names from the circuit.
func (f Fault) Name(c *netlist.Circuit) string {
	v := 0
	if f.Stuck {
		v = 1
	}
	g := c.Gates[f.Gate]
	if f.Pin < 0 {
		return fmt.Sprintf("%s s-a-%d", g.Name, v)
	}
	return fmt.Sprintf("%s/in%d(%s) s-a-%d", g.Name, f.Pin, c.Gates[g.Fanin[f.Pin]].Name, v)
}

// AllFaults enumerates the complete single-stuck-at universe: two
// faults on every gate output and two on every gate input pin. This is
// the uncollapsed list N that fault coverage f = m/N is measured
// against before collapsing.
func AllFaults(c *netlist.Circuit) []Fault {
	var out []Fault
	for _, g := range c.Gates {
		out = append(out,
			Fault{Gate: g.ID, Pin: -1, Stuck: false},
			Fault{Gate: g.ID, Pin: -1, Stuck: true})
		for pin := range g.Fanin {
			out = append(out,
				Fault{Gate: g.ID, Pin: pin, Stuck: false},
				Fault{Gate: g.ID, Pin: pin, Stuck: true})
		}
	}
	return out
}

// Class is an equivalence class of faults: every member is detected by
// exactly the same test patterns. Rep is the canonical representative
// used for simulation.
type Class struct {
	Rep     Fault
	Members []Fault
}

// union-find over fault indices.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &dsu{parent: p}
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) { d.parent[d.find(a)] = d.find(b) }

// faultIndex maps fault sites to list indices without a map: fault
// (g, pin, stuck) owns slot off[g] + 2*(pin+1) + stuck of a dense
// table. A site the circuit lacks (an out-of-range gate, or a pin below
// -1 or past the gate's fanin) has no slot and is never found.
type faultIndex struct {
	off []int   // off[g+1]-off[g] = 2*(gate g's fanin + 1)
	at  []int32 // slot -> index+1, 0 where none was set
}

func newFaultIndex(c *netlist.Circuit) faultIndex {
	off := make([]int, len(c.Gates)+1)
	for g, gate := range c.Gates {
		off[g+1] = off[g] + 2*(len(gate.Fanin)+1)
	}
	return faultIndex{off: off, at: make([]int32, off[len(c.Gates)])}
}

// slot returns the table slot of fault (gate, pin, stuck), or -1.
func (x faultIndex) slot(gate, pin int, stuck bool) int {
	if gate < 0 || gate+1 >= len(x.off) || pin < -1 || pin >= (x.off[gate+1]-x.off[gate])/2-1 {
		return -1
	}
	if stuck {
		return x.off[gate] + 2*(pin+1) + 1
	}
	return x.off[gate] + 2*(pin+1)
}

// set records index i for fault f; a later set of the same fault wins.
func (x faultIndex) set(f Fault, i int) {
	if s := x.slot(f.Gate, f.Pin, f.Stuck); s >= 0 {
		x.at[s] = int32(i + 1)
	}
}

// get returns the index recorded for fault (gate, pin, stuck).
func (x faultIndex) get(gate, pin int, stuck bool) (int, bool) {
	s := x.slot(gate, pin, stuck)
	if s < 0 || x.at[s] == 0 {
		return 0, false
	}
	return int(x.at[s]) - 1, true
}

// CollapseEquivalence partitions the full fault universe into
// equivalence classes using the structural rules:
//
//  1. A single-fanout net has one line: the driver's output fault is
//     equivalent to the (sole) receiver's input-pin fault of the same
//     value.
//  2. Controlling-value collapse inside gates:
//     AND:  any input s-a-0 ≡ output s-a-0
//     NAND: any input s-a-0 ≡ output s-a-1
//     OR:   any input s-a-1 ≡ output s-a-1
//     NOR:  any input s-a-1 ≡ output s-a-0
//     BUF:  input s-a-v ≡ output s-a-v
//     NOT:  input s-a-v ≡ output s-a-(1-v)
//
// XOR/XNOR gates admit no structural equivalence. Members keep list
// order. A fault listed twice unions at its last index; one naming a
// site the circuit lacks stays a class of its own.
func CollapseEquivalence(c *netlist.Circuit, faults []Fault) []Class {
	index := newFaultIndex(c)
	for i, f := range faults {
		index.set(f, i)
	}
	d := newDSU(len(faults))
	// union joins the classes of two faults when both are listed.
	union := func(ga, pa int, sa bool, gb, pb int, sb bool) {
		a, okA := index.get(ga, pa, sa)
		b, okB := index.get(gb, pb, sb)
		if okA && okB {
			d.union(a, b)
		}
	}
	for _, g := range c.Gates {
		// Rule 1: single-fanout stem ≡ branch.
		if len(g.Fanout) == 1 {
			recv := g.Fanout[0]
			for pin, fin := range c.Gates[recv].Fanin {
				if fin != g.ID {
					continue
				}
				for _, stuck := range []bool{false, true} {
					union(g.ID, -1, stuck, recv, pin, stuck)
				}
			}
		}
		// Rule 2: controlling-value collapse.
		var inStuck, outStuck bool
		var applies bool
		switch g.Type {
		case netlist.And:
			inStuck, outStuck, applies = false, false, true
		case netlist.Nand:
			inStuck, outStuck, applies = false, true, true
		case netlist.Or:
			inStuck, outStuck, applies = true, true, true
		case netlist.Nor:
			inStuck, outStuck, applies = true, false, true
		}
		if applies {
			for pin := range g.Fanin {
				union(g.ID, pin, inStuck, g.ID, -1, outStuck)
			}
		}
		if g.Type == netlist.Buf || g.Type == netlist.Not {
			inv := g.Type == netlist.Not
			for _, stuck := range []bool{false, true} {
				union(g.ID, 0, stuck, g.ID, -1, stuck != inv)
			}
		}
	}
	// Bucket by root with a counting pass into one member array. A root
	// is its own parent, so an ascending scan numbers classes by root.
	classOf := make([]int, len(faults))
	var sizes []int
	for i := range faults {
		if d.find(i) == i {
			classOf[i] = len(sizes)
			sizes = append(sizes, 0)
		}
	}
	for i := range faults {
		classOf[i] = classOf[d.find(i)]
		sizes[classOf[i]]++
	}
	classes := make([]Class, len(sizes))
	members := make([]Fault, len(faults))
	for ci, k := range sizes {
		classes[ci].Members, members = members[:0:k], members[k:]
	}
	// Representative = the stem fault closest to the inputs (lowest gate
	// ID with Pin = -1), else the lowest-indexed member.
	for i, f := range faults {
		cl := &classes[classOf[i]]
		if len(cl.Members) == 0 || f.Pin < 0 && (cl.Rep.Pin >= 0 || f.Gate < cl.Rep.Gate) {
			cl.Rep = f
		}
		cl.Members = append(cl.Members, f)
	}
	return classes
}

// CollapseDominance removes classes that are dominated by a kept class:
// for a gate with a controlling input value, the output fault at the
// non-controlled value is detected by every test for any input fault at
// the controlling-complement value, so the output fault class can be
// dropped. Rules (value on the right is the dropped output fault):
//
//	AND:  output s-a-1 dominated by any input s-a-1
//	NAND: output s-a-0 dominated by any input s-a-1
//	OR:   output s-a-0 dominated by any input s-a-0
//	NOR:  output s-a-1 dominated by any input s-a-0
//
// Gates with a single input pin (BUF/NOT) are fully handled by
// equivalence. Classes containing any primary-output stem fault are
// never dropped (dominance holds, but keeping them preserves the
// convention that PO faults stay explicit in reports).
func CollapseDominance(c *netlist.Circuit, classes []Class) []Class {
	poStem := make([]bool, len(c.Gates))
	for _, o := range c.Outputs {
		poStem[o] = true
	}
	// Map each fault to its class index.
	where := newFaultIndex(c)
	for ci, cl := range classes {
		for _, f := range cl.Members {
			where.set(f, ci)
		}
	}
	dropped := make([]bool, len(classes))
	for _, g := range c.Gates {
		var inStuck, outStuck bool
		switch g.Type {
		case netlist.And:
			inStuck, outStuck = true, true
		case netlist.Nand:
			inStuck, outStuck = true, false
		case netlist.Or:
			inStuck, outStuck = false, false
		case netlist.Nor:
			inStuck, outStuck = false, true
		default:
			continue
		}
		if len(g.Fanin) < 2 {
			continue
		}
		outCi, ok := where.get(g.ID, -1, outStuck)
		if !ok {
			continue
		}
		// The dominating input faults must survive in other classes.
		dominatorExists := false
		for pin := range g.Fanin {
			if ci, ok := where.get(g.ID, pin, inStuck); ok && ci != outCi && !dropped[ci] {
				dominatorExists = true
				break
			}
		}
		if !dominatorExists {
			continue
		}
		// Never drop a class that contains a primary-output stem fault.
		containsPO := false
		for _, f := range classes[outCi].Members {
			if f.Pin < 0 && f.Gate >= 0 && f.Gate < len(poStem) && poStem[f.Gate] {
				containsPO = true
				break
			}
		}
		if !containsPO {
			dropped[outCi] = true
		}
	}
	kept := make([]Class, 0, len(classes))
	for i, cl := range classes {
		if !dropped[i] {
			kept = append(kept, cl)
		}
	}
	return kept
}

// Universe bundles the fault list views of one circuit.
type Universe struct {
	All       []Fault // complete uncollapsed list
	Collapsed []Class // equivalence classes
	Checkable []Class // after dominance collapsing
}

// BuildUniverse computes all three views.
func BuildUniverse(c *netlist.Circuit) Universe {
	all := AllFaults(c)
	eq := CollapseEquivalence(c, all)
	dom := CollapseDominance(c, eq)
	return Universe{All: all, Collapsed: eq, Checkable: dom}
}

// Reps returns the representative faults of the classes.
func Reps(classes []Class) []Fault {
	out := make([]Fault, len(classes))
	for i, cl := range classes {
		out[i] = cl.Rep
	}
	return out
}
