package logicsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

// The RunWithFault* tests check the oracle itself (ref.Simulator); they
// sit beside the flat-core tests that compare against it.

func TestRunWithFaultsSingleMatchesRunWithFault(t *testing.T) {
	c, err := netlist.RandomCircuit("r", 8, 80, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	patterns := make([]logicsim.Pattern, 32)
	for i := range patterns {
		p := make(logicsim.Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		patterns[i] = p
	}
	block, err := logicsim.PackPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		gate := rng.Intn(len(c.Gates))
		pin := -1
		if n := len(c.Gates[gate].Fanin); n > 0 && rng.Intn(2) == 1 {
			pin = rng.Intn(n)
		}
		stuck := rng.Intn(2) == 1
		single, err := sim.RunWithFault(block, gate, pin, stuck)
		if err != nil {
			t.Fatal(err)
		}
		singleCopy := append([]uint64(nil), single...)
		multi, err := sim.RunWithFaults(block, []logicsim.Injection{{Gate: gate, Pin: pin, Stuck: stuck}})
		if err != nil {
			t.Fatal(err)
		}
		for o := range multi {
			if multi[o]&block.Mask() != singleCopy[o]&block.Mask() {
				t.Fatalf("trial %d output %d: multi %x single %x", trial, o, multi[o], singleCopy[o])
			}
		}
	}
}

func TestRunWithFaultsDominantStem(t *testing.T) {
	// Two faults where one is on a PO stem: the PO must read the stuck
	// value regardless of the other fault.
	c := netlist.C17()
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	g22, _ := c.GateByName("22")
	g10, _ := c.GateByName("10")
	patterns := make([]logicsim.Pattern, 32)
	for v := 0; v < 32; v++ {
		p := make(logicsim.Pattern, 5)
		for i := range p {
			p[i] = v>>i&1 == 1
		}
		patterns[v] = p
	}
	block, _ := logicsim.PackPatterns(patterns)
	out, err := sim.RunWithFaults(block, []logicsim.Injection{
		{Gate: g22, Pin: -1, Stuck: false},
		{Gate: g10, Pin: -1, Stuck: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&block.Mask() != 0 {
		t.Errorf("output 22 should be stuck at 0, got %b", out[0]&block.Mask())
	}
}

func TestRunWithFaultsErrors(t *testing.T) {
	sim, err := ref.NewSimulator(netlist.C17())
	if err != nil {
		t.Fatal(err)
	}
	p := make(logicsim.Pattern, 5)
	block, _ := logicsim.PackPatterns([]logicsim.Pattern{p})
	if _, err := sim.RunWithFaults(block, []logicsim.Injection{{Gate: 999, Pin: -1}}); err == nil {
		t.Error("bad gate should error")
	}
	if _, err := sim.RunWithFaults(block, []logicsim.Injection{{Gate: 10, Pin: 9}}); err == nil {
		t.Error("bad pin should error")
	}
	short := logicsim.PatternBlock{Inputs: []uint64{0}, Count: 1}
	if _, err := sim.RunWithFaults(short, nil); err == nil {
		t.Error("wrong width should error")
	}
}

func TestRunWithFaultsInputStem(t *testing.T) {
	// Stem fault on a primary input.
	c := netlist.C17()
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	in3, _ := c.GateByName("3")
	patterns := []logicsim.Pattern{{true, true, false, true, true}}
	block, _ := logicsim.PackPatterns(patterns)
	// Input 3 stuck at 1 with applied 0: gates 10 = NAND(1,3) sees 1,1.
	out, err := sim.RunWithFaults(block, []logicsim.Injection{{Gate: in3, Pin: -1, Stuck: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Reference with every line at 1 after the stuck input: i1=1, i2=1,
	// i3=1 (stuck), i6=1, i7=1.
	nandTrue := false // NAND of two 1s
	n10, n11 := nandTrue, nandTrue
	n16 := !n11
	n19 := !n11
	n22 := !(n10 && n16)
	n23 := !(n16 && n19)
	if (out[0]&1 == 1) != n22 || (out[1]&1 == 1) != n23 {
		t.Error("input stem fault wrong")
	}
}

// TestRunLaneForcedMatchesPerMachineRunWithFaults is the chip-parallel
// transpose identity at one word, the width the compacting lot engine
// settles at: lane l of one WideSim.RunLaneForced walk must equal bit p
// of a separate RunWithFaults pass over that lane's fault set, with
// lane 0 computing the good machine.
func TestRunLaneForcedMatchesPerMachineRunWithFaults(t *testing.T) {
	c, err := netlist.RandomCircuit("r", 9, 90, 7, 23)
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
	ws, err := logicsim.NewWideSim(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := logicsim.NewWideLaneForces(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	block, err := logicsim.PackPatterns(randomPatterns(c, 17, rng))
	if err != nil {
		t.Fatal(err)
	}
	// 12 machines in lanes 1..12, each with 1..5 random faults; lane 0
	// stays good.
	machines := randomMachines(c, 12, rng)
	for m := range machines {
		forceMachine(t, f, lf, machines[m], m+1)
	}
	good, err := sim.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	good = append([]uint64(nil), good...)
	want := make([][]uint64, len(machines))
	for m := range machines {
		out, err := sim.RunWithFaults(block, machines[m])
		if err != nil {
			t.Fatal(err)
		}
		want[m] = append([]uint64(nil), out...)
	}
	var out []uint64
	for p := 0; p < block.Count; p++ {
		out, err = ws.RunLaneForced(block, p, lf, out)
		if err != nil {
			t.Fatal(err)
		}
		for o := range out {
			if got := out[o] & 1; got != good[o]>>uint(p)&1 {
				t.Fatalf("pattern %d output %d: lane 0 bit %d, good machine bit %d",
					p, o, got, good[o]>>uint(p)&1)
			}
			for m := range machines {
				got := out[o] >> uint(m+1) & 1
				if got != want[m][o]>>uint(p)&1 {
					t.Fatalf("pattern %d output %d machine %d: lane bit %d, RunWithFaults bit %d",
						p, o, m, got, want[m][o]>>uint(p)&1)
				}
			}
		}
	}
}

// TestLaneForcesLastValueWins pins the oracle's forcing table: adding
// both polarities of one site keeps the last, the order-dependent
// overwrite a chip's fault list gets, on stems and on input pins.
func TestLaneForcesLastValueWins(t *testing.T) {
	c := netlist.C17()
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	g22, _ := c.GateByName("22")
	block, _ := logicsim.PackPatterns([]logicsim.Pattern{make(logicsim.Pattern, 5)})
	for _, last := range []bool{false, true} {
		out, err := sim.RunWithFaults(block, []logicsim.Injection{
			{Gate: g22, Pin: -1, Stuck: !last},
			{Gate: g22, Pin: -1, Stuck: last},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0]&1 == 1; got != last {
			t.Errorf("stem: output 22 reads %v, want the last polarity %v", got, last)
		}
		// Both fanins of NAND 22 are 1 on the all-zero pattern, so
		// output 22 reads the complement of the last value on pin 0.
		out, err = sim.RunWithFaults(block, []logicsim.Injection{
			{Gate: g22, Pin: 0, Stuck: last},
			{Gate: g22, Pin: 0, Stuck: !last},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0]&1 == 1; got != last {
			t.Errorf("pin: output 22 reads %v, want %v", got, last)
		}
	}
}

// TestRunLaneForcedErrors pins the lane walk's validation: bad sites
// and pins are rejected at ResolveInjections, a pattern outside the
// block, a forcing table built for another circuit, and a block of the
// wrong width at the walk.
func TestRunLaneForcedErrors(t *testing.T) {
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := logicsim.NewWideSim(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := logicsim.NewWideLaneForces(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ResolveInjections([]logicsim.Injection{{Gate: 999, Pin: -1}}); err == nil {
		t.Error("bad gate should error")
	}
	if _, err := f.ResolveInjections([]logicsim.Injection{{Gate: 10, Pin: 9}}); err == nil {
		t.Error("bad pin should error")
	}
	block, _ := logicsim.PackPatterns([]logicsim.Pattern{make(logicsim.Pattern, 5)})
	if _, err := ws.RunLaneForced(block, 5, lf, nil); err == nil {
		t.Error("pattern outside block should error")
	}
	other, _ := netlist.RippleAdder(2)
	of, err := logicsim.NewFlat(other)
	if err != nil {
		t.Fatal(err)
	}
	otherLf, err := logicsim.NewWideLaneForces(of, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.RunLaneForced(block, 0, otherLf, nil); err == nil {
		t.Error("foreign forcing table should error")
	}
	short := logicsim.PatternBlock{Inputs: []uint64{0}, Count: 1}
	if _, err := ws.RunLaneForced(short, 0, lf, nil); err == nil {
		t.Error("wrong width should error")
	}
}
