package logicsim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// TestFlatConeSetMatchesConeSet pins the slot cones to the gate cones:
// same membership (modulo the slot↔gate mapping), same reachable
// outputs, slots ascending with the site first.
func TestFlatConeSetMatchesConeSet(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.C17()}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit("r", 7, 70, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		cs, err := NewConeSet(c)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fcs := NewFlatConeSet(f)
		for gate := range c.Gates {
			slot := f.SlotOf(gate)
			fc := fcs.ConeOf(slot)
			gc := cs.Cone(gate)
			if len(fc.Slots) != len(gc.Gates) {
				t.Fatalf("%s gate %d: flat cone %d slots, gate cone %d gates", c.Name, gate, len(fc.Slots), len(gc.Gates))
			}
			if fc.Slots[0] != int32(slot) {
				t.Fatalf("%s gate %d: cone does not start at the site slot", c.Name, gate)
			}
			in := make(map[int]bool, len(gc.Gates))
			for _, g := range gc.Gates {
				in[g] = true
			}
			for i, s := range fc.Slots {
				if i > 0 && fc.Slots[i-1] >= s {
					t.Fatalf("%s gate %d: cone slots not ascending", c.Name, gate)
				}
				if !in[f.GateAt(int(s))] {
					t.Fatalf("%s gate %d: slot %d (gate %d) not in the gate cone", c.Name, gate, s, f.GateAt(int(s)))
				}
			}
			if len(fc.Outputs) != len(gc.Outputs) || len(fc.OutPos) != len(fc.Outputs) {
				t.Fatalf("%s gate %d: output lists disagree", c.Name, gate)
			}
			for j, oi := range fc.Outputs {
				if int(oi) != gc.Outputs[j] {
					t.Fatalf("%s gate %d: output %d is %d, gate cone says %d", c.Name, gate, j, oi, gc.Outputs[j])
				}
				if got := int(fc.Slots[fc.OutPos[j]]); got != f.SlotOf(c.Outputs[oi]) {
					t.Fatalf("%s gate %d: OutPos[%d] points at slot %d, output %d lives at slot %d",
						c.Name, gate, j, got, oi, f.SlotOf(c.Outputs[oi]))
				}
			}
		}
	}
}

// TestRunConeMatchesRunWithFault is the core flat-cone correctness
// property: for every fault site, pin, and polarity, the flat cone walk
// must return the full-circuit faulty-vs-good diff of the pointer-
// walking oracle (Simulator.RunWithFault), both as the OR-ed diff word
// and per reachable output, and no unreachable output may differ.
func TestRunConeMatchesRunWithFault(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.C17()}
	adder, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, adder)
	for seed := int64(4); seed <= 5; seed++ {
		c, err := netlist.RandomCircuit("r", 8, 80, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		sim, err := NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fcs := NewFlatConeSet(f)
		fs := NewFlatSim(f)
		block := randomBlock(t, c, 1+int(int64(len(c.Gates))%64), int64(len(c.Gates)))
		mask := block.Mask()
		good, err := sim.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		good = append([]uint64(nil), good...)
		if _, err := fs.RunInto(block, nil); err != nil {
			t.Fatal(err)
		}
		gotDiffs := make([]uint64, len(c.Outputs))
		for gate, g := range c.Gates {
			slot := f.SlotOf(gate)
			cone := fcs.ConeOf(slot)
			reach := make([]bool, len(c.Outputs))
			for _, oi := range cone.Outputs {
				reach[oi] = true
			}
			for pin := -1; pin < len(g.Fanin); pin++ {
				for _, stuck := range []bool{false, true} {
					bad, err := sim.RunWithFault(block, gate, pin, stuck)
					if err != nil {
						t.Fatal(err)
					}
					var got uint64
					if pin < 0 {
						got, err = fs.RunCone(slot, stuck, &cone, gotDiffs)
					} else {
						got, err = fs.RunConeForced(slot, pin, stuck, &cone, gotDiffs)
					}
					if err != nil {
						t.Fatal(err)
					}
					var want uint64
					for o := range bad {
						d := (bad[o] ^ good[o]) & mask
						want |= d
						switch {
						case reach[o] && gotDiffs[o] != d:
							t.Fatalf("%s gate %d pin %d stuck %v: output %d cone diff %x, full diff %x",
								c.Name, gate, pin, stuck, o, gotDiffs[o], d)
						case !reach[o] && d != 0:
							t.Fatalf("%s gate %d pin %d stuck %v: unreachable output %d differs",
								c.Name, gate, pin, stuck, o)
						}
					}
					if got != want {
						t.Fatalf("%s gate %d pin %d stuck %v: cone diff %x, full diff %x",
							c.Name, gate, pin, stuck, got, want)
					}
				}
			}
		}
		// After all the cone runs the flat value plane must still hold
		// the good machine.
		if _, err := sim.Run(block); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < f.Slots(); slot++ {
			if fs.Value(slot)&mask != sim.Value(f.GateAt(slot))&mask {
				t.Fatalf("%s slot %d: good machine not restored after cone runs", c.Name, slot)
			}
		}
	}
}

// TestRunConeZeroAllocs pins the steady-state flat cone walk — the
// PPSFP inner loop — to zero allocations per fault.
func TestRunConeZeroAllocs(t *testing.T) {
	c, err := netlist.RandomCircuit("a", 10, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fcs := NewFlatConeSet(f)
	fs := NewFlatSim(f)
	block, err := PackPatterns(randomPatterns(c, 64, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.RunInto(block, nil); err != nil {
		t.Fatal(err)
	}
	outDiffs := make([]uint64, len(c.Outputs))
	// Warm once so the shadow plane reaches its high-water mark, and
	// compile every cone: first-request compilation allocates by design,
	// the steady state (cone hits included) must not.
	for slot := 0; slot < f.Slots(); slot++ {
		fcs.ConeOfPtr(slot)
	}
	if _, err := fs.RunCone(f.NumInputs(), true, fcs.ConeOfPtr(f.NumInputs()), outDiffs); err != nil {
		t.Fatal(err)
	}
	slot := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.RunCone(slot%f.Slots(), slot%2 == 0, fcs.ConeOfPtr(slot%f.Slots()), outDiffs); err != nil {
			t.Fatal(err)
		}
		slot++
	}); allocs != 0 {
		t.Errorf("FlatSim.RunCone allocates %v per run, want 0", allocs)
	}
	pinSlot := f.NumInputs() // first logic slot always has a pin 0
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.RunConeForced(pinSlot, 0, true, conePtr(fcs.ConeOf(pinSlot)), nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("FlatSim.RunConeForced allocates %v per run, want 0", allocs)
	}
}

// TestFlatConeSetLazyMatchesEager pins on-demand compilation: goroutines
// request overlapping random slots of one shared set concurrently (the
// access pattern of sharded fault simulation; run it under -race),
// and every cone they get — program and boundary included — must equal
// the one a fresh set compiles when every slot is requested in order.
func TestFlatConeSetLazyMatchesEager(t *testing.T) {
	c, err := netlist.RandomCircuit("lazy", 12, 300, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	eager := NewFlatConeSet(f)
	for slot := 0; slot < f.Slots(); slot++ {
		eager.ConeOfPtr(slot)
	}
	lazy := NewFlatConeSet(f)
	const workers = 4
	got := make([][]*FlatCone, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			got[w] = make([]*FlatCone, f.Slots())
			for _, slot := range rng.Perm(f.Slots()) {
				got[w][slot] = lazy.ConeOfPtr(slot)
			}
		}(w)
	}
	wg.Wait()
	for slot := 0; slot < f.Slots(); slot++ {
		want := eager.ConeOfPtr(slot)
		for w := range got {
			if got[w][slot] != got[0][slot] {
				t.Fatalf("slot %d: workers got different cone objects", slot)
			}
		}
		g := got[0][slot]
		for _, field := range []struct {
			name      string
			got, want []int32
		}{
			{"Slots", g.Slots, want.Slots},
			{"Outputs", g.Outputs, want.Outputs},
			{"OutPos", g.OutPos, want.OutPos},
			{"Prog", g.Prog, want.Prog},
			{"Bound", g.Bound, want.Bound},
		} {
			if !slices.Equal(field.got, field.want) {
				t.Fatalf("slot %d: lazy %s %v, eager %v", slot, field.name, field.got, field.want)
			}
		}
	}
}

// TestFlatConeErrors exercises the cone-walk validation paths.
func TestFlatConeErrors(t *testing.T) {
	c := netlist.C17()
	f, err := NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fcs := NewFlatConeSet(f)
	fs := NewFlatSim(f)
	// A cone walk without a preceding good run must be rejected, not
	// silently report every fault undetected.
	if _, err := fs.RunCone(0, true, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("cone walk without a preceding RunInto accepted")
	}
	block := randomBlock(t, c, 8, 1)
	if _, err := fs.RunInto(block, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.RunCone(-1, false, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := fs.RunCone(1, false, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("mismatched cone accepted")
	}
	logic := f.NumInputs()
	if _, err := fs.RunConeForced(logic, 99, false, conePtr(fcs.ConeOf(logic)), nil); err == nil {
		t.Error("bad pin accepted")
	}
	if _, err := fs.RunConeForced(0, 0, false, conePtr(fcs.ConeOf(0)), nil); err == nil {
		t.Error("pin fault on a primary input accepted")
	}
}

// TestFlatConeSetForCachesAndInvalidates checks the third member of the
// simCaches bundle obeys the one invalidation rule: cached alongside
// the Flat and ConeSet, dropped with them on any mutation.
func TestFlatConeSetForCachesAndInvalidates(t *testing.T) {
	c := netlist.C17()
	cs1, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs1 != cs2 {
		t.Error("FlatConeSetFor rebuilt on second call")
	}
	// The slot cones build over (and share) the cached Flat.
	f, err := FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs1.Flat() != f {
		t.Error("slot cones built over a different Flat than the cached one")
	}
	if _, err := c.AddGate("extra", netlist.Not, "22"); err != nil {
		t.Fatal(err)
	}
	cs3, err := FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs3 == cs1 {
		t.Error("mutation did not invalidate the slot cones")
	}
}

// conePtr lets test call sites pass an rvalue cone by address.
func conePtr(c FlatCone) *FlatCone { return &c }
