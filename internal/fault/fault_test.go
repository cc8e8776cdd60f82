package fault

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func TestAllFaultsCount(t *testing.T) {
	c := netlist.C17()
	all := AllFaults(c)
	// 11 gates * 2 output faults + (6 NAND gates * 2 pins) * 2 = 22 + 24.
	if len(all) != 46 {
		t.Errorf("c17 full universe = %d, want 46", len(all))
	}
	seen := make(map[Fault]bool)
	for _, f := range all {
		if seen[f] {
			t.Fatalf("duplicate fault %v", f)
		}
		seen[f] = true
	}
}

func TestFaultString(t *testing.T) {
	c := netlist.C17()
	f := Fault{Gate: 0, Pin: -1, Stuck: true}
	if !strings.Contains(f.String(), "s-a-1") {
		t.Error("String missing value")
	}
	if !strings.Contains(f.Name(c), "s-a-1") {
		t.Error("Name missing value")
	}
	g16, _ := c.GateByName("16")
	fb := Fault{Gate: g16, Pin: 1, Stuck: false}
	if !strings.Contains(fb.Name(c), "in1") || !strings.Contains(fb.Name(c), "11") {
		t.Errorf("branch Name = %q", fb.Name(c))
	}
}

// detectionVector computes, by brute force over all input patterns (the
// circuit must have few inputs), the set of patterns detecting each
// fault. Bit p of the result is set iff pattern p detects the fault.
func detectionVector(t *testing.T, c *netlist.Circuit, f Fault) uint64 {
	t.Helper()
	if len(c.Inputs) > 6 {
		t.Fatal("detectionVector needs <= 6 inputs")
	}
	n := 1 << len(c.Inputs)
	patterns := make([]logicsim.Pattern, n)
	for v := 0; v < n; v++ {
		p := make(logicsim.Pattern, len(c.Inputs))
		for i := range p {
			p[i] = v>>i&1 == 1
		}
		patterns[v] = p
	}
	sim, err := logicsim.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	block, err := logicsim.PackPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sim.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	goodCopy := append([]uint64(nil), good...)
	bad, err := sim.RunWithFault(block, f.Gate, f.Pin, f.Stuck)
	if err != nil {
		t.Fatal(err)
	}
	var diff uint64
	for o := range bad {
		diff |= (bad[o] ^ goodCopy[o]) & block.Mask()
	}
	return diff
}

// circuitsForCollapsing returns small circuits covering every gate type
// and fanout structure.
func circuitsForCollapsing(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	out = append(out, netlist.C17())
	rca, err := netlist.RippleAdder(1)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, rca)
	cmp, err := netlist.Comparator(2) // XNOR coverage
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, cmp)
	mux, err := netlist.MuxTree(1) // NOT + AND + OR
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mux)
	rnd, err := netlist.RandomCircuit("rnd6", 5, 20, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, rnd)
	return out
}

func TestEquivalenceClassesShareDetection(t *testing.T) {
	// The defining property of fault equivalence: every member of a
	// class is detected by exactly the same patterns. Verified by
	// exhaustive simulation.
	for _, c := range circuitsForCollapsing(t) {
		u := BuildUniverse(c)
		for _, cl := range u.Collapsed {
			want := detectionVector(t, c, cl.Members[0])
			for _, f := range cl.Members[1:] {
				if got := detectionVector(t, c, f); got != want {
					t.Errorf("%s: class of %v: member %v detection %b != %b",
						c.Name, cl.Rep.Name(c), f.Name(c), got, want)
				}
			}
		}
	}
}

func TestCollapsePreservesFaultSet(t *testing.T) {
	// Equivalence collapsing partitions the universe: every fault in
	// exactly one class.
	for _, c := range circuitsForCollapsing(t) {
		u := BuildUniverse(c)
		seen := make(map[Fault]int)
		for _, cl := range u.Collapsed {
			for _, f := range cl.Members {
				seen[f]++
			}
		}
		if len(seen) != len(u.All) {
			t.Errorf("%s: classes cover %d faults, universe has %d", c.Name, len(seen), len(u.All))
		}
		for f, n := range seen {
			if n != 1 {
				t.Errorf("%s: fault %v in %d classes", c.Name, f, n)
			}
		}
	}
}

func TestCollapseRatio(t *testing.T) {
	// Folklore: equivalence collapsing removes roughly 40-60% of the
	// universe on gate-level circuits. Check a sane reduction happens
	// and dominance removes more.
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	u := BuildUniverse(c)
	if len(u.Collapsed) >= len(u.All) {
		t.Errorf("equivalence collapsing did nothing: %d vs %d", len(u.Collapsed), len(u.All))
	}
	ratio := float64(len(u.Collapsed)) / float64(len(u.All))
	if ratio > 0.8 || ratio < 0.2 {
		t.Errorf("collapse ratio %v outside sane range", ratio)
	}
	if len(u.Checkable) >= len(u.Collapsed) {
		t.Errorf("dominance collapsing did nothing: %d vs %d", len(u.Checkable), len(u.Collapsed))
	}
}

func TestDominanceDroppedAreDominated(t *testing.T) {
	// For every class dropped by dominance collapsing there must be a
	// kept class whose every detecting pattern also detects the dropped
	// one (and which is detectable at all).
	for _, c := range circuitsForCollapsing(t) {
		u := BuildUniverse(c)
		keptSet := make(map[Fault]bool)
		for _, cl := range u.Checkable {
			keptSet[cl.Rep] = true
		}
		var droppedClasses []Class
		for _, cl := range u.Collapsed {
			if !keptSet[cl.Rep] {
				droppedClasses = append(droppedClasses, cl)
			}
		}
		for _, dc := range droppedClasses {
			dropVec := detectionVector(t, c, dc.Rep)
			if dropVec == 0 {
				continue // fault is redundant: dropping it loses nothing
			}
			dominated := false
			for _, kc := range u.Checkable {
				keepVec := detectionVector(t, c, kc.Rep)
				if keepVec != 0 && keepVec&^dropVec == 0 {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Errorf("%s: dropped class %v is not dominated by any kept class",
					c.Name, dc.Rep.Name(c))
			}
		}
	}
}

func TestRepsDeterministic(t *testing.T) {
	c := netlist.C17()
	a := BuildUniverse(c)
	b := BuildUniverse(c)
	ra, rb := Reps(a.Collapsed), Reps(b.Collapsed)
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic class count")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("nondeterministic representatives")
		}
	}
}

func TestC17CollapsedSize(t *testing.T) {
	// c17's collapsed fault list is a classic textbook number: the
	// 46-fault universe collapses to 24 equivalence classes... our
	// universe also carries branch faults on single-fanout nets (merged
	// by rule 1), so just pin the exact values for regression.
	u := BuildUniverse(netlist.C17())
	if len(u.All) != 46 {
		t.Errorf("universe %d", len(u.All))
	}
	if len(u.Collapsed) < 20 || len(u.Collapsed) > 30 {
		t.Errorf("collapsed %d outside expected band", len(u.Collapsed))
	}
	t.Logf("c17: %d all, %d collapsed, %d after dominance",
		len(u.All), len(u.Collapsed), len(u.Checkable))
}

func BenchmarkBuildUniverse(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildUniverse(c)
	}
}

// collapseEquivalenceReference and collapseDominanceReference are the
// map-keyed collapsing CollapseEquivalence and CollapseDominance
// replaced, kept as their test oracle.

// faultKey indexes faults for the DSU.
type faultKey struct {
	gate, pin int
	stuck     bool
}

// collapseEquivalenceReference partitions the full fault universe into
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
// XOR/XNOR gates admit no structural equivalence.
func collapseEquivalenceReference(c *netlist.Circuit, faults []Fault) []Class {
	index := make(map[faultKey]int, len(faults))
	for i, f := range faults {
		index[faultKey{f.Gate, f.Pin, f.Stuck}] = i
	}
	lookup := func(gate, pin int, stuck bool) (int, bool) {
		i, ok := index[faultKey{gate, pin, stuck}]
		return i, ok
	}
	d := newDSU(len(faults))
	for _, g := range c.Gates {
		// Rule 1: single-fanout stem ≡ branch.
		if len(g.Fanout) == 1 {
			recv := g.Fanout[0]
			for pin, fin := range c.Gates[recv].Fanin {
				if fin != g.ID {
					continue
				}
				for _, stuck := range []bool{false, true} {
					a, okA := lookup(g.ID, -1, stuck)
					b, okB := lookup(recv, pin, stuck)
					if okA && okB {
						d.union(a, b)
					}
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
			out, okOut := lookup(g.ID, -1, outStuck)
			if okOut {
				for pin := range g.Fanin {
					if in, ok := lookup(g.ID, pin, inStuck); ok {
						d.union(in, out)
					}
				}
			}
		}
		if g.Type == netlist.Buf || g.Type == netlist.Not {
			inv := g.Type == netlist.Not
			for _, stuck := range []bool{false, true} {
				in, okIn := lookup(g.ID, 0, stuck)
				out, okOut := lookup(g.ID, -1, stuck != inv)
				if okIn && okOut {
					d.union(in, out)
				}
			}
		}
	}
	// Gather classes; representative = the stem fault closest to the
	// inputs (lowest gate ID with Pin = -1), else the lowest-indexed
	// member. Deterministic by construction.
	groups := make(map[int][]int)
	for i := range faults {
		r := d.find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	classes := make([]Class, 0, len(groups))
	for _, r := range roots {
		idxs := groups[r]
		sort.Ints(idxs)
		cl := Class{Members: make([]Fault, len(idxs))}
		repIdx := idxs[0]
		for j, i := range idxs {
			cl.Members[j] = faults[i]
			if faults[i].Pin < 0 && (faults[repIdx].Pin >= 0 || faults[i].Gate < faults[repIdx].Gate) {
				repIdx = i
			}
		}
		cl.Rep = faults[repIdx]
		classes = append(classes, cl)
	}
	return classes
}

// collapseDominanceReference removes classes that are dominated by a kept class:
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
func collapseDominanceReference(c *netlist.Circuit, classes []Class) []Class {
	poStem := make(map[int]bool)
	for _, o := range c.Outputs {
		poStem[o] = true
	}
	// Map each fault to its class index.
	where := make(map[faultKey]int)
	for ci, cl := range classes {
		for _, f := range cl.Members {
			where[faultKey{f.Gate, f.Pin, f.Stuck}] = ci
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
		outCi, ok := where[faultKey{g.ID, -1, outStuck}]
		if !ok {
			continue
		}
		// The dominating input faults must survive in other classes.
		dominatorExists := false
		for pin := range g.Fanin {
			if ci, ok := where[faultKey{g.ID, pin, inStuck}]; ok && ci != outCi && !dropped[ci] {
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
			if f.Pin < 0 && poStem[f.Gate] {
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

// TestCollapseMatchesReference pins the dense-index collapsing to the
// map-keyed oracle: equal classes, members and representatives, before
// and after dominance, for the full universe, a shuffled and a subset
// list, one holding duplicates, and one holding faults at sites the
// circuit lacks.
func TestCollapseMatchesReference(t *testing.T) {
	mul8, err := netlist.ArrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*netlist.Circuit{netlist.C17(), mul8}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit(fmt.Sprintf("rand%d", seed), 10, 120, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	fh, err := os.Open("../circuits/fixtures/lsi1k.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	lsi, err := netlist.ParseBench("lsi1k", fh)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, lsi)
	rng := rand.New(rand.NewSource(9))
	for _, c := range cs {
		all := AllFaults(c)
		shuffled := slices.Clone(all)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var subset, dups []Fault
		for _, f := range shuffled {
			if rng.Intn(3) != 0 {
				subset = append(subset, f)
			}
			dups = append(dups, f)
			if rng.Intn(5) == 0 {
				dups = append(dups, all[rng.Intn(len(all))])
			}
		}
		odd := slices.Clone(subset)
		for _, f := range []Fault{
			{Gate: len(c.Gates) + 3, Pin: -1},
			{Gate: -1, Pin: -1, Stuck: true},
			{Gate: c.Outputs[0], Pin: -2},
			{Gate: c.Outputs[0], Pin: len(c.Gates[c.Outputs[0]].Fanin)},
			{Gate: c.Outputs[0], Pin: math.MaxInt},
		} {
			odd = slices.Insert(odd, rng.Intn(len(odd)+1), f)
		}
		for _, tc := range []struct {
			name   string
			faults []Fault
		}{{"full", all}, {"shuffled", shuffled}, {"subset", subset}, {"duplicates", dups}, {"out-of-range", odd}} {
			got := CollapseEquivalence(c, tc.faults)
			want := collapseEquivalenceReference(c, tc.faults)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: %d equivalence classes, reference %d, or members or reps differ",
					c.Name, tc.name, len(got), len(want))
			}
			if gotDom, wantDom := CollapseDominance(c, got), collapseDominanceReference(c, want); !reflect.DeepEqual(gotDom, wantDom) {
				t.Fatalf("%s %s: %d classes after dominance, reference %d, or members or reps differ",
					c.Name, tc.name, len(gotDom), len(wantDom))
			}
		}
	}
}
