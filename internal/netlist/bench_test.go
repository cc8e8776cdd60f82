package netlist

import (
	"errors"
	"strings"
	"testing"
)

func TestParseBenchC17(t *testing.T) {
	c, err := ParseBench("c17", strings.NewReader(C17Bench))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 11 || len(c.Inputs) != 5 || len(c.Outputs) != 2 {
		t.Errorf("c17 parse: gates=%d in=%d out=%d", len(c.Gates), len(c.Inputs), len(c.Outputs))
	}
	id, ok := c.GateByName("22")
	if !ok {
		t.Fatal("gate 22 missing")
	}
	if c.Gates[id].Type != Nand || len(c.Gates[id].Fanin) != 2 {
		t.Error("gate 22 malformed")
	}
}

// TestParseBenchMaxCeiling pins the gate ceiling: c17's 11 gates parse
// under a ceiling of 11 (and with none) and fail with ErrTooManyGates
// under 10.
func TestParseBenchMaxCeiling(t *testing.T) {
	for _, max := range []int{0, 11, 12} {
		if _, err := ParseBenchMax("c17", strings.NewReader(C17Bench), max); err != nil {
			t.Errorf("ceiling %d: %v", max, err)
		}
	}
	if _, err := ParseBenchMax("c17", strings.NewReader(C17Bench), 10); !errors.Is(err, ErrTooManyGates) {
		t.Errorf("ceiling 10: error %v, want ErrTooManyGates", err)
	}
}

func TestParseBenchForwardOutput(t *testing.T) {
	// OUTPUT before gate definition, as in published ISCAS files.
	src := `OUTPUT(z)
INPUT(a)
INPUT(b)
z = AND(a, b)
`
	c, err := ParseBench("fwd", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outputs) != 1 {
		t.Error("forward output not resolved")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n",        // unknown type
		"INPUT(a)\nz = AND(a, ghost)\nOUTPUT(z)\n",  // undefined fanin
		"INPUT(a)\nz AND(a)\nOUTPUT(z)\n",           // missing =
		"INPUT(a)\nOUTPUT(ghost)\nz = NOT(a)\n",     // unknown output
		"INPUT()\n",                                 // empty name
		"INPUT(a)\nINPUT(a)\nz = NOT(a)\nOUTPUT(z)", // duplicate
		"INPUT(a)\nz = NOT(a,)\nOUTPUT(z)\n",        // empty fanin
		"INPUT(a)\nz = AND()\nOUTPUT(z)\n",          // zero-fanin gate
		"INPUT(a\n",                                 // malformed decl
		"INPUT(a) pad 4)\nz = NOT(a)\nOUTPUT(z)\n",  // trailing junk on decl
		"INPUT(a))\nz = NOT(a)\nOUTPUT(z)\n",        // doubled close paren
		"INPUT(a)\nz = NOT(a) junk\nOUTPUT(z)\n",    // trailing junk on gate
	}
	for i, src := range cases {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Errorf("case %d: malformed bench accepted", i)
		}
	}
}

func TestParseBenchCommentsAndBlanks(t *testing.T) {
	src := `# header

INPUT(a)
# middle comment
INPUT(b)
z = NAND(a, b)
OUTPUT(z)
`
	c, err := ParseBench("cmt", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 3 {
		t.Errorf("gates = %d", len(c.Gates))
	}
}

func TestParseBenchInlineComments(t *testing.T) {
	// Inline comments must be stripped before parsing: "INPUT(G1) # pad 4)"
	// declares a gate named G1, not "G1) # pad 4".
	src := `INPUT(a) # pad 4)
INPUT(b)# no space before hash
z = NAND(a, b) # the only gate
OUTPUT(z) ## doubled hash
`
	c, err := ParseBench("inline", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "z"} {
		if _, ok := c.GateByName(name); !ok {
			t.Errorf("gate %q missing; names: %v", name, c.SortedNames())
		}
	}
	if len(c.Gates) != 3 || len(c.Outputs) != 1 {
		t.Errorf("gates=%d outputs=%d", len(c.Gates), len(c.Outputs))
	}
	// And the parsed circuit must survive a write/parse round trip.
	rt, err := c.RoundTrip()
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Gates) != 3 || len(rt.Outputs) != 1 {
		t.Error("round trip changed shape")
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	circuits := []*Circuit{C17()}
	if rca, err := RippleAdder(4); err == nil {
		circuits = append(circuits, rca)
	} else {
		t.Fatal(err)
	}
	if mul, err := ArrayMultiplier(3); err == nil {
		circuits = append(circuits, mul)
	} else {
		t.Fatal(err)
	}
	for _, c := range circuits {
		rt, err := c.RoundTrip()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if len(rt.Gates) != len(c.Gates) {
			t.Errorf("%s: round trip gates %d != %d", c.Name, len(rt.Gates), len(c.Gates))
		}
		if len(rt.Inputs) != len(c.Inputs) || len(rt.Outputs) != len(c.Outputs) {
			t.Errorf("%s: round trip IO mismatch", c.Name)
		}
		// Same names present.
		a, b := c.SortedNames(), rt.SortedNames()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: name %d differs: %s vs %s", c.Name, i, a[i], b[i])
			}
		}
		// Same structure: for each gate, same type and fanin names.
		for _, g := range c.Gates {
			rid, ok := rt.GateByName(g.Name)
			if !ok {
				t.Fatalf("%s: gate %q lost", c.Name, g.Name)
			}
			rg := rt.Gates[rid]
			if rg.Type != g.Type || len(rg.Fanin) != len(g.Fanin) {
				t.Fatalf("%s: gate %q changed shape", c.Name, g.Name)
			}
			for i, f := range g.Fanin {
				if rt.Gates[rg.Fanin[i]].Name != c.Gates[f].Name {
					t.Fatalf("%s: gate %q fanin %d changed", c.Name, g.Name, i)
				}
			}
		}
	}
}

// BenchmarkParseBench10k measures cold-loading an LSI-scale netlist
// from .bench text — the satellite target is single-digit milliseconds
// for 10k gates, which the pre-sized tables and allocation-free line
// walk provide. Run with -benchmem to see the per-parse churn.
func BenchmarkParseBench10k(b *testing.B) {
	c, err := LSIChip(10000)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := c.WriteBench(&sb); err != nil {
		b.Fatal(err)
	}
	src := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBench("lsi10000", strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c.Gates)), "gates")
}
