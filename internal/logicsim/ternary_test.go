package logicsim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

func TestTritString(t *testing.T) {
	if logicsim.F.String() != "0" || logicsim.T.String() != "1" || logicsim.X.String() != "X" {
		t.Error("trit strings")
	}
	if logicsim.Trit(7).String() != "Trit(7)" {
		t.Error("unknown trit string")
	}
}

func TestTernaryTruthTables(t *testing.T) {
	// AND: 0 dominates, OR: 1 dominates, XOR: X poisons.
	andTab := map[[2]logicsim.Trit]logicsim.Trit{
		{logicsim.F, logicsim.F}: logicsim.F, {logicsim.F, logicsim.T}: logicsim.F, {logicsim.F, logicsim.X}: logicsim.F,
		{logicsim.T, logicsim.F}: logicsim.F, {logicsim.T, logicsim.T}: logicsim.T, {logicsim.T, logicsim.X}: logicsim.X,
		{logicsim.X, logicsim.F}: logicsim.F, {logicsim.X, logicsim.T}: logicsim.X, {logicsim.X, logicsim.X}: logicsim.X,
	}
	orTab := map[[2]logicsim.Trit]logicsim.Trit{
		{logicsim.F, logicsim.F}: logicsim.F, {logicsim.F, logicsim.T}: logicsim.T, {logicsim.F, logicsim.X}: logicsim.X,
		{logicsim.T, logicsim.F}: logicsim.T, {logicsim.T, logicsim.T}: logicsim.T, {logicsim.T, logicsim.X}: logicsim.T,
		{logicsim.X, logicsim.F}: logicsim.X, {logicsim.X, logicsim.T}: logicsim.T, {logicsim.X, logicsim.X}: logicsim.X,
	}
	xorTab := map[[2]logicsim.Trit]logicsim.Trit{
		{logicsim.F, logicsim.F}: logicsim.F, {logicsim.F, logicsim.T}: logicsim.T, {logicsim.F, logicsim.X}: logicsim.X,
		{logicsim.T, logicsim.F}: logicsim.T, {logicsim.T, logicsim.T}: logicsim.F, {logicsim.T, logicsim.X}: logicsim.X,
		{logicsim.X, logicsim.F}: logicsim.X, {logicsim.X, logicsim.T}: logicsim.X, {logicsim.X, logicsim.X}: logicsim.X,
	}
	for in, want := range andTab {
		if got := ref.AndT(in[0], in[1]); got != want {
			t.Errorf("AND%v = %v, want %v", in, got, want)
		}
	}
	for in, want := range orTab {
		if got := ref.OrT(in[0], in[1]); got != want {
			t.Errorf("OR%v = %v, want %v", in, got, want)
		}
	}
	for in, want := range xorTab {
		if got := ref.XorT(in[0], in[1]); got != want {
			t.Errorf("XOR%v = %v, want %v", in, got, want)
		}
	}
	if logicsim.NotT(logicsim.X) != logicsim.X || logicsim.NotT(logicsim.F) != logicsim.T || logicsim.NotT(logicsim.T) != logicsim.F {
		t.Error("NOT table")
	}
}

func TestEvalTAllTypes(t *testing.T) {
	cases := []struct {
		typ  netlist.GateType
		in   []logicsim.Trit
		want logicsim.Trit
	}{
		{netlist.Buf, []logicsim.Trit{logicsim.T}, logicsim.T},
		{netlist.Not, []logicsim.Trit{logicsim.T}, logicsim.F},
		{netlist.And, []logicsim.Trit{logicsim.T, logicsim.T, logicsim.T}, logicsim.T},
		{netlist.And, []logicsim.Trit{logicsim.T, logicsim.F, logicsim.X}, logicsim.F},
		{netlist.Nand, []logicsim.Trit{logicsim.T, logicsim.T}, logicsim.F},
		{netlist.Or, []logicsim.Trit{logicsim.F, logicsim.F, logicsim.T}, logicsim.T},
		{netlist.Nor, []logicsim.Trit{logicsim.F, logicsim.F}, logicsim.T},
		{netlist.Xor, []logicsim.Trit{logicsim.T, logicsim.T, logicsim.T}, logicsim.T},
		{netlist.Xnor, []logicsim.Trit{logicsim.T, logicsim.F}, logicsim.F},
		{netlist.Xnor, []logicsim.Trit{logicsim.X, logicsim.F}, logicsim.X},
	}
	for _, c := range cases {
		if got := ref.EvalT(c.typ, c.in); got != c.want {
			t.Errorf("EvalT(%v, %v) = %v, want %v", c.typ, c.in, got, c.want)
		}
	}
}

// walkT loads the input trits into a slot-indexed plane and evaluates
// every logic slot in slot (= topological) order with the flat ternary
// kernel, returning the plane.
func walkT(f *logicsim.Flat, inputs []logicsim.Trit) []logicsim.Trit {
	val := make([]logicsim.Trit, f.Slots())
	copy(val, inputs)
	for slot := f.NumInputs(); slot < f.Slots(); slot++ {
		val[slot] = f.EvalSlotT(val, slot, -1, logicsim.X)
	}
	return val
}

func TestTernaryAgreesWithBinary(t *testing.T) {
	// With no X inputs, the flat ternary kernel must agree with the
	// parallel simulator on every gate.
	c, err := netlist.RandomCircuit("r", 10, 200, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	bsim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint32) bool {
		in := make([]logicsim.Trit, len(c.Inputs))
		p := make(logicsim.Pattern, len(c.Inputs))
		s := seed
		for i := range in {
			s = s*1664525 + 1013904223
			bit := s>>16&1 == 1
			p[i] = bit
			if bit {
				in[i] = logicsim.T
			} else {
				in[i] = logicsim.F
			}
		}
		tv := walkT(f, in)
		if _, err := bsim.RunSingle(p); err != nil {
			return false
		}
		for id := range c.Gates {
			bin := bsim.Value(id)&1 == 1
			v := tv[f.SlotOf(id)]
			if v == logicsim.X {
				return false // no X can appear with fully assigned inputs
			}
			if (v == logicsim.T) != bin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTernaryXPropagation(t *testing.T) {
	// c17 with all-X inputs: every gate is X. With input 3=0, gates 10
	// and 11 become 1 regardless of other inputs.
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	vals := walkT(f, []logicsim.Trit{logicsim.X, logicsim.X, logicsim.X, logicsim.X, logicsim.X})
	for _, id := range c.Outputs {
		if vals[f.SlotOf(id)] != logicsim.X {
			t.Errorf("all-X inputs: output %s = %v", c.Gates[id].Name, vals[f.SlotOf(id)])
		}
	}
	// Input order: 1,2,3,6,7. Set 3 = 0.
	vals = walkT(f, []logicsim.Trit{logicsim.X, logicsim.X, logicsim.F, logicsim.X, logicsim.X})
	g10, _ := c.GateByName("10")
	g11, _ := c.GateByName("11")
	if vals[f.SlotOf(g10)] != logicsim.T || vals[f.SlotOf(g11)] != logicsim.T {
		t.Errorf("NAND with a 0 input must be 1: g10=%v g11=%v", vals[f.SlotOf(g10)], vals[f.SlotOf(g11)])
	}
}

// TestEvalSlotTMatchesEvalT pins the flat kernel to the per-gate
// reference on random ternary planes, with and without a forced pin:
// every gate type and fanin shape a random circuit produces, X inputs
// included.
func TestEvalSlotTMatchesEvalT(t *testing.T) {
	c, err := netlist.RandomCircuit("r", 9, 250, 6, 21)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	val := make([]logicsim.Trit, f.Slots())
	var in []logicsim.Trit
	for round := 0; round < 20; round++ {
		for i := range val {
			val[i] = logicsim.Trit(rng.Intn(3))
		}
		for slot := f.NumInputs(); slot < f.Slots(); slot++ {
			g := &c.Gates[f.GateAt(slot)]
			for pin := -1; pin < len(g.Fanin); pin++ {
				forced := logicsim.Trit(rng.Intn(3))
				in = in[:0]
				for i, fs := range f.FaninSlots(slot) {
					v := val[fs]
					if i == pin {
						v = forced
					}
					in = append(in, v)
				}
				if got, want := f.EvalSlotT(val, slot, pin, forced), ref.EvalT(g.Type, in); got != want {
					t.Fatalf("slot %d (%v %v) pin %d: EvalSlotT %v, EvalT %v", slot, g.Type, in, pin, got, want)
				}
			}
		}
	}
}
