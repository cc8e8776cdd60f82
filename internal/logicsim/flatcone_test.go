package logicsim_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/logicsim"
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
		cs, err := logicsim.NewConeSet(c)
		if err != nil {
			t.Fatal(err)
		}
		f, err := logicsim.NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fcs := logicsim.NewFlatConeSet(f)
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
			if len(fc.Outputs) != len(gc.Outputs) {
				t.Fatalf("%s gate %d: output lists disagree", c.Name, gate)
			}
			for j, oi := range fc.Outputs {
				if int(oi) != gc.Outputs[j] {
					t.Fatalf("%s gate %d: output %d is %d, gate cone says %d", c.Name, gate, j, oi, gc.Outputs[j])
				}
			}
		}
	}
}

// TestFlatConeSlotsAreSortedReach pins cone membership and order
// directly on the flat form: each cone's Slots is strictly ascending and
// equals the sorted set of slots a plain fanout BFS reaches from the
// site, site included.
func TestFlatConeSlotsAreSortedReach(t *testing.T) {
	c, err := netlist.RandomCircuit("reach", 10, 250, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fcs := logicsim.NewFlatConeSet(f)
	for site := 0; site < f.Slots(); site++ {
		seen := map[int32]bool{int32(site): true}
		want := []int32{int32(site)}
		for i := 0; i < len(want); i++ {
			for _, fo := range f.FanoutSlots(int(want[i])) {
				if !seen[fo] {
					seen[fo] = true
					want = append(want, fo)
				}
			}
		}
		slices.Sort(want)
		got := fcs.ConeOf(site).Slots
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("slot %d: cone slots %v not strictly ascending", site, got)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("slot %d: cone slots %v, fanout BFS reaches %v", site, got, want)
		}
	}
}

// TestFlatConeSetLazyMatchesEager pins on-demand building: goroutines
// request overlapping random slots of one shared set concurrently (run
// it under -race), and every cone they get must equal the one a fresh
// set builds when every slot is requested in order.
func TestFlatConeSetLazyMatchesEager(t *testing.T) {
	c, err := netlist.RandomCircuit("lazy", 12, 300, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	eager := logicsim.NewFlatConeSet(f)
	for slot := 0; slot < f.Slots(); slot++ {
		eager.ConeOf(slot)
	}
	lazy := logicsim.NewFlatConeSet(f)
	const workers = 4
	got := make([][]logicsim.FlatCone, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			got[w] = make([]logicsim.FlatCone, f.Slots())
			for _, slot := range rng.Perm(f.Slots()) {
				got[w][slot] = lazy.ConeOf(slot)
			}
		}(w)
	}
	wg.Wait()
	for slot := 0; slot < f.Slots(); slot++ {
		want := eager.ConeOf(slot)
		for w := range got {
			g := got[w][slot]
			if !slices.Equal(g.Slots, want.Slots) || !slices.Equal(g.Outputs, want.Outputs) {
				t.Fatalf("slot %d worker %d: lazy cone %+v, eager %+v", slot, w, g, want)
			}
		}
	}
}

// TestFlatConeSetForCachesAndInvalidates checks the third member of the
// simCaches bundle obeys the one invalidation rule: cached alongside
// the Flat and ConeSet, dropped with them on any mutation.
func TestFlatConeSetForCachesAndInvalidates(t *testing.T) {
	c := netlist.C17()
	cs1, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs1 != cs2 {
		t.Error("FlatConeSetFor rebuilt on second call")
	}
	// The slot cones build over (and share) the cached Flat.
	f, err := logicsim.FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs1.Flat() != f {
		t.Error("slot cones built over a different Flat than the cached one")
	}
	if _, err := c.AddGate("extra", netlist.Not, "22"); err != nil {
		t.Fatal(err)
	}
	cs3, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if cs3 == cs1 {
		t.Error("mutation did not invalidate the slot cones")
	}
}
