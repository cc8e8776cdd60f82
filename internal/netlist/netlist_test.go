package netlist

import (
	"strings"
	"testing"
)

func TestAddGateAndLookup(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("b", Input); err != nil {
		t.Fatal(err)
	}
	id, err := c.AddGate("g", And, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.GateByName("g"); !ok || got != id {
		t.Errorf("GateByName = %d,%v", got, ok)
	}
	if len(c.Gates[0].Fanout) != 1 || c.Gates[0].Fanout[0] != id {
		t.Error("fanout back-edge missing")
	}
}

func TestAddGateErrors(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("", Input); err == nil {
		t.Error("empty name should error")
	}
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("a", Input); err == nil {
		t.Error("duplicate name should error")
	}
	if _, err := c.AddGate("g", And, "a"); err == nil {
		t.Error("AND with one fanin should error")
	}
	if _, err := c.AddGate("g", Not, "a", "a"); err == nil {
		t.Error("NOT with two fanins should error")
	}
	if _, err := c.AddGate("g", And, "a", "zzz"); err == nil {
		t.Error("undefined fanin should error")
	}
	if _, err := c.AddGate("g", And); err == nil {
		t.Error("AND with zero fanin should error")
	}
}

func TestValidateRejectsZeroFaninGate(t *testing.T) {
	// AddGate blocks zero-fanin logic gates up front, so the only way to
	// make one is direct struct surgery (a buggy generator or loader);
	// Validate must still catch it and name the gate, because the
	// simulators' hot loops index fanin[0] unconditionally.
	c := New("t")
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	id, err := c.AddGate("orphan", Not, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput("orphan"); err != nil {
		t.Fatal(err)
	}
	c.Gates[id].Fanin = nil
	err = c.Validate()
	if err == nil || !strings.Contains(err.Error(), `"orphan"`) {
		t.Errorf("want named-gate zero-fanin error, got %v", err)
	}
}

func TestMarkOutputErrors(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput("zzz"); err == nil {
		t.Error("unknown output should error")
	}
	if err := c.MarkOutput("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput("a"); err == nil {
		t.Error("double-marking should error")
	}
}

func TestLevelizeAndDepth(t *testing.T) {
	c := C17()
	depth, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if depth != 3 {
		t.Errorf("c17 depth = %d, want 3", depth)
	}
	// Inputs at level 0.
	for _, id := range c.Inputs {
		if l := c.level[id]; l != 0 {
			t.Errorf("input %q level %d", c.Gates[id].Name, l)
		}
	}
	// Every gate's level exceeds its fanins'.
	order, _ := c.Order()
	if len(order) != len(c.Gates) {
		t.Fatal("order incomplete")
	}
	for _, g := range c.Gates {
		gl := c.level[g.ID]
		for _, f := range g.Fanin {
			if fl := c.level[f]; fl >= gl {
				t.Errorf("gate %q level %d <= fanin level %d", g.Name, gl, fl)
			}
		}
	}
}

func TestTopologicalOrderProperty(t *testing.T) {
	c, err := RandomCircuit("r", 8, 200, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	order, err := c.Order()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(c.Gates))
	for i, id := range order {
		pos[id] = i
	}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			if pos[f] >= pos[g.ID] {
				t.Fatalf("fanin %d after gate %d in order", f, g.ID)
			}
		}
	}
}

func TestValidateCatchesMissingIO(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("no outputs should fail validation")
	}
	c2 := New("t2")
	if err := c2.Validate(); err == nil {
		t.Error("empty circuit should fail validation")
	}
}

func TestC17Stats(t *testing.T) {
	c := C17()
	s, err := c.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Gates != 11 || s.Inputs != 5 || s.Outputs != 2 {
		t.Errorf("c17 stats: %+v", s)
	}
	if s.ByType["NAND"] != 6 {
		t.Errorf("c17 should have 6 NANDs, got %d", s.ByType["NAND"])
	}
	// c17 has 3 fanout stems (3, 11, 16 drive two gates each... input 3
	// drives 10,11; 11 drives 16,19; 16 drives 22,23).
	if s.FanoutStem != 3 {
		t.Errorf("c17 fanout stems = %d, want 3", s.FanoutStem)
	}
	if !strings.Contains(s.String(), "gates=11") {
		t.Errorf("stats string: %s", s)
	}
}

func TestGateTypeStringAndParse(t *testing.T) {
	for _, typ := range []GateType{Input, Buf, Not, And, Nand, Or, Nor, Xor, Xnor} {
		got, err := ParseGateType(typ.String())
		if err != nil || got != typ {
			t.Errorf("round trip %v: %v, %v", typ, got, err)
		}
	}
	if _, err := ParseGateType("FLIPFLOP"); err == nil {
		t.Error("unknown type should error")
	}
	for alias, want := range map[string]GateType{"BUFF": Buf, "INV": Not} {
		got, err := ParseGateType(alias)
		if err != nil || got != want {
			t.Errorf("alias %s: %v, %v", alias, got, err)
		}
	}
	if GateType(99).String() != "GateType(99)" {
		t.Error("unknown type String")
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	// Build a loop by editing the graph directly (AddGate cannot).
	c := New("loop")
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("g1", And, "a", "a"); err == nil {
		// duplicate fanin is allowed structurally; ignore error state
		_ = err
	}
	if _, err := c.AddGate("g2", And, "a", "g1"); err != nil {
		t.Fatal(err)
	}
	// Introduce cycle: g1 gains g2 as fanin.
	g1, _ := c.GateByName("g1")
	g2, _ := c.GateByName("g2")
	c.Gates[g1].Fanin = append(c.Gates[g1].Fanin, g2)
	c.Gates[g2].Fanout = append(c.Gates[g2].Fanout, g1)
	c.invalidate()
	if err := c.Levelize(); err == nil {
		t.Error("loop should fail levelization")
	}
}
