package logicsim_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

// randomPatterns builds n random patterns for the circuit.
func randomPatterns(c *netlist.Circuit, n int, rng *rand.Rand) []logicsim.Pattern {
	patterns := make([]logicsim.Pattern, n)
	for i := range patterns {
		p := make(logicsim.Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		patterns[i] = p
	}
	return patterns
}

func TestFlatStructure(t *testing.T) {
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Circuit() != c {
		t.Error("Circuit() lost the source circuit")
	}
	if f.Slots() != len(c.Gates) {
		t.Fatalf("Slots %d != gates %d", f.Slots(), len(c.Gates))
	}
	if f.NumInputs() != len(c.Inputs) {
		t.Fatalf("NumInputs %d != inputs %d", f.NumInputs(), len(c.Inputs))
	}
	// Inputs occupy the leading slots in Circuit.Inputs order.
	for i, id := range c.Inputs {
		if f.SlotOf(id) != i {
			t.Errorf("input %d at slot %d, want %d", id, f.SlotOf(id), i)
		}
		if !f.IsInputSlot(i) {
			t.Errorf("slot %d not an input slot", i)
		}
	}
	if f.IsInputSlot(f.NumInputs()) {
		t.Error("first logic slot reported as input")
	}
	// Slot<->gate maps are inverse bijections, and every fanin slot
	// precedes its gate's slot (slot order is topological).
	for slot := 0; slot < f.Slots(); slot++ {
		if f.SlotOf(f.GateAt(slot)) != slot {
			t.Errorf("slot %d does not round-trip", slot)
		}
		for _, fs := range f.FaninSlots(slot) {
			if int(fs) >= slot {
				t.Errorf("slot %d has fanin slot %d (not topological)", slot, fs)
			}
		}
	}
	for oi, id := range c.Outputs {
		if f.OutputSlot(oi) != f.SlotOf(id) {
			t.Errorf("output %d slot mismatch", oi)
		}
	}
}

// TestFlatForConcurrentBuild races many goroutines into the lazy cache
// builds on one fresh shared circuit — the shape of sweep workers
// lazily compiling the shared workload from per-worker ATEs. Run under
// -race this is the regression guard for the cacheMu serialization;
// without it, all callers must also observe the same compiled forms.
func TestFlatForConcurrentBuild(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Levelize(); err != nil { // share only levelized circuits
		t.Fatal(err)
	}
	const workers = 8
	flats := make([]*logicsim.Flat, workers)
	cones := make([]*logicsim.ConeSet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := logicsim.FlatFor(c)
			if err != nil {
				t.Error(err)
				return
			}
			cs, err := logicsim.ConeSetFor(c)
			if err != nil {
				t.Error(err)
				return
			}
			flats[w], cones[w] = f, cs
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if flats[w] != flats[0] || cones[w] != cones[0] {
			t.Fatalf("worker %d saw a different compiled form", w)
		}
	}
}

func TestFlatForCachesAndInvalidates(t *testing.T) {
	c := netlist.C17()
	f1, err := logicsim.FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := logicsim.FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("FlatFor rebuilt on second call")
	}
	// The cone set shares the same cache bundle without evicting the
	// flat form.
	cs1, err := logicsim.ConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := logicsim.FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := logicsim.ConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if f3 != f1 || cs2 != cs1 {
		t.Error("cone set and flat form evicted each other")
	}
	// Any mutation drops both.
	if _, err := c.AddGate("extra", netlist.Not, "22"); err != nil {
		t.Fatal(err)
	}
	f4, err := logicsim.FlatFor(c)
	if err != nil {
		t.Fatal(err)
	}
	cs3, err := logicsim.ConeSetFor(c)
	if err != nil {
		t.Fatal(err)
	}
	if f4 == f1 || cs3 == cs1 {
		t.Error("mutation did not invalidate the caches")
	}
}

// TestFlatSimMatchesSimulator pins the flat walk to the levelized
// Simulator over random circuits: same blocks, bit-identical outputs.
func TestFlatSimMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		c, err := netlist.RandomCircuit("r", 5+rng.Intn(8), 30+rng.Intn(150), 2+rng.Intn(7), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		sim, err := ref.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		f, err := logicsim.NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		fs := logicsim.NewFlatSim(f)
		block, err := logicsim.PackPatterns(randomPatterns(c, 1+rng.Intn(64), rng))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.RunInto(block, nil)
		if err != nil {
			t.Fatal(err)
		}
		mask := block.Mask()
		for o := range want {
			if want[o]&mask != got[o]&mask {
				t.Fatalf("trial %d output %d: flat %x, simulator %x", trial, o, got[o]&mask, want[o]&mask)
			}
		}
		// Value exposes per-slot words consistent with the gate map.
		for slot := 0; slot < f.Slots(); slot++ {
			if fs.Value(slot)&mask != sim.Value(f.GateAt(slot))&mask {
				t.Fatalf("trial %d slot %d: value plane diverged", trial, slot)
			}
		}
	}
}

// TestFlatWalkZeroAllocs pins the steady-state flat walk to zero
// allocations per run, the contract the engines' hot loops rely on.
func TestFlatWalkZeroAllocs(t *testing.T) {
	c, err := netlist.RandomCircuit("r", 10, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fs := logicsim.NewFlatSim(f)
	block, err := logicsim.PackPatterns(randomPatterns(c, 64, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 0, len(c.Outputs))
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		out, err = fs.RunInto(block, out)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("FlatSim.RunInto allocates %v per run, want 0", allocs)
	}
}

// TestZeroFaninGateRejectedAtLoad is the regression for the mid-walk
// panic: a hand-built netlist with a fanin-less logic gate must be
// rejected by name at simulator construction, in every compiled form.
func TestZeroFaninGateRejectedAtLoad(t *testing.T) {
	build := func() *netlist.Circuit {
		c := netlist.New("broken")
		if _, err := c.AddGate("a", netlist.Input); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddGate("b", netlist.Input); err != nil {
			t.Fatal(err)
		}
		id, err := c.AddGate("g", netlist.And, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.MarkOutput("g"); err != nil {
			t.Fatal(err)
		}
		// AddGate enforces MinFanin, so a malformed netlist can only come
		// from direct struct surgery — exactly what a buggy generator or
		// loader would produce.
		c.Gates[id].Fanin = nil
		return c
	}
	if _, err := ref.NewSimulator(build()); err == nil || !strings.Contains(err.Error(), `"g"`) {
		t.Errorf("NewSimulator: want named-gate error, got %v", err)
	}
	if _, err := logicsim.NewFlat(build()); err == nil || !strings.Contains(err.Error(), `"g"`) {
		t.Errorf("NewFlat: want named-gate error, got %v", err)
	}
	if err := build().Validate(); err == nil || !strings.Contains(err.Error(), `"g"`) {
		t.Errorf("Validate: want named-gate error, got %v", err)
	}
}

// TestZeroValuePatternBlockRejected is the regression for the Mask()
// shift-wrap: a zero-value (or otherwise out-of-range Count) block must
// be rejected at every Run entry point instead of silently treating 64
// garbage lanes as valid patterns.
func TestZeroValuePatternBlockRejected(t *testing.T) {
	c := netlist.C17()
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	fs := logicsim.NewFlatSim(f)
	ws, err := logicsim.NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	wlf, err := logicsim.NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []logicsim.PatternBlock{
		{},
		{Inputs: make([]uint64, len(c.Inputs))}, // Count 0
		{Inputs: make([]uint64, len(c.Inputs)), Count: -3},   // negative wraps Mask
		{Inputs: make([]uint64, len(c.Inputs)), Count: 65},   // too many lanes
		{Inputs: make([]uint64, len(c.Inputs)-1), Count: 64}, // width mismatch
	}
	for i, b := range blocks {
		if _, err := sim.Run(b); err == nil {
			t.Errorf("block %d: Run accepted it", i)
		}
		if _, err := sim.RunWithFault(b, 0, -1, true); err == nil {
			t.Errorf("block %d: RunWithFault accepted it", i)
		}
		if _, err := sim.RunWithFaults(b, nil); err == nil {
			t.Errorf("block %d: RunWithFaults accepted it", i)
		}
		if _, err := fs.RunInto(b, nil); err == nil {
			t.Errorf("block %d: FlatSim.RunInto accepted it", i)
		}
		if _, err := ws.RunLaneForced(b, 0, wlf, nil); err == nil {
			t.Errorf("block %d: WideSim.RunLaneForced accepted it", i)
		}
	}
	// The boundary Counts stay accepted.
	for _, count := range []int{1, 64} {
		b := logicsim.PatternBlock{Inputs: make([]uint64, len(c.Inputs)), Count: count}
		if _, err := sim.Run(b); err != nil {
			t.Errorf("Count %d rejected: %v", count, err)
		}
	}
}
