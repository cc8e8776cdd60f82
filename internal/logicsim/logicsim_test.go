package logicsim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// runC17 simulates c17 for a single pattern given as input bits in the
// order 1,2,3,6,7 and returns outputs 22,23.
func runC17(t *testing.T, bits [5]bool) [2]bool {
	t.Helper()
	c := netlist.C17()
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunSingle(Pattern(bits[:]))
	if err != nil {
		t.Fatal(err)
	}
	return [2]bool{out[0], out[1]}
}

// c17Reference computes c17 outputs directly from its equations.
func c17Reference(in [5]bool) [2]bool {
	i1, i2, i3, i6, i7 := in[0], in[1], in[2], in[3], in[4]
	n10 := !(i1 && i3)
	n11 := !(i3 && i6)
	n16 := !(i2 && n11)
	n19 := !(n11 && i7)
	n22 := !(n10 && n16)
	n23 := !(n16 && n19)
	return [2]bool{n22, n23}
}

func TestC17Exhaustive(t *testing.T) {
	for v := 0; v < 32; v++ {
		var in [5]bool
		for i := 0; i < 5; i++ {
			in[i] = v>>i&1 == 1
		}
		got := runC17(t, in)
		want := c17Reference(in)
		if got != want {
			t.Errorf("c17(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestPackPatterns(t *testing.T) {
	p0 := Pattern{true, false, true}
	p1 := Pattern{false, false, true}
	b, err := PackPatterns([]Pattern{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Count != 2 || b.Mask() != 3 {
		t.Errorf("count %d mask %x", b.Count, b.Mask())
	}
	if b.Inputs[0] != 0b01 || b.Inputs[1] != 0 || b.Inputs[2] != 0b11 {
		t.Errorf("packed words %v", b.Inputs)
	}
}

func TestPackPatternsErrors(t *testing.T) {
	if _, err := PackPatterns(nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := PackPatterns([]Pattern{{true}, {true, false}}); err == nil {
		t.Error("ragged widths should error")
	}
	many := make([]Pattern, 65)
	for i := range many {
		many[i] = Pattern{true}
	}
	if _, err := PackPatterns(many); err == nil {
		t.Error(">64 should error")
	}
}

// TestPackBlocks: 130 patterns pack to two full blocks and a
// two-pattern tail, bit p of block bi being pattern bi*64+p; no
// patterns pack to no blocks, and a ragged width fails.
func TestPackBlocks(t *testing.T) {
	patterns := make([]Pattern, 130)
	for i := range patterns {
		patterns[i] = Pattern{i%3 == 0, i%5 == 0}
	}
	blocks, err := PackBlocks(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 || blocks[0].Count != 64 || blocks[1].Count != 64 || blocks[2].Count != 2 {
		t.Fatalf("%d blocks, want counts 64, 64, 2", len(blocks))
	}
	for i, p := range patterns {
		b := blocks[i/64]
		for in, v := range p {
			if got := b.Inputs[in]>>uint(i%64)&1 == 1; got != v {
				t.Fatalf("pattern %d input %d: packed %v, want %v", i, in, got, v)
			}
		}
	}
	if blocks, err := PackBlocks(nil); err != nil || len(blocks) != 0 {
		t.Errorf("no patterns: %d blocks, error %v", len(blocks), err)
	}
	patterns[100] = Pattern{true}
	if _, err := PackBlocks(patterns); err == nil {
		t.Error("a ragged width in a later block should error")
	}
}

func TestMaskFull(t *testing.T) {
	b := PatternBlock{Count: 64}
	if b.Mask() != ^uint64(0) {
		t.Error("full mask wrong")
	}
}

func TestParallelMatchesScalar(t *testing.T) {
	// 64 random patterns through the parallel simulator must match 64
	// single-pattern runs.
	c, err := netlist.RandomCircuit("r", 12, 250, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	patterns := make([]Pattern, 64)
	for i := range patterns {
		p := make(Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		patterns[i] = p
	}
	block, err := PackPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	words, err := sim.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	for p, pat := range patterns {
		single, err := sim.RunSingle(pat)
		if err != nil {
			t.Fatal(err)
		}
		for o := range single {
			if got := words[o]>>uint(p)&1 == 1; got != single[o] {
				t.Fatalf("pattern %d output %d: parallel %v scalar %v", p, o, got, single[o])
			}
		}
	}
}

func TestRunInputWidthError(t *testing.T) {
	sim, err := NewSimulator(netlist.C17())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(PatternBlock{Inputs: []uint64{1}, Count: 1}); err == nil {
		t.Error("wrong width should error")
	}
	if _, err := sim.RunWithFault(PatternBlock{Inputs: []uint64{1}, Count: 1}, 0, -1, true); err == nil {
		t.Error("wrong width should error in RunWithFault")
	}
}

func TestAdderAdds(t *testing.T) {
	const w = 6
	c, err := netlist.RippleAdder(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(1 << w)
		b := rng.Intn(1 << w)
		cin := rng.Intn(2)
		// Inputs in declaration order: a0,b0,a1,b1,...,cin.
		p := make(Pattern, 0, 2*w+1)
		for i := 0; i < w; i++ {
			p = append(p, a>>i&1 == 1, b>>i&1 == 1)
		}
		p = append(p, cin == 1)
		out, err := sim.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		// Outputs: s0..s{w-1}, cout.
		got := 0
		for i := 0; i < w; i++ {
			if out[i] {
				got |= 1 << i
			}
		}
		if out[w] {
			got |= 1 << w
		}
		if want := a + b + cin; got != want {
			t.Fatalf("%d + %d + %d = %d, circuit says %d", a, b, cin, want, got)
		}
	}
}

func TestMultiplierMultiplies(t *testing.T) {
	const w = 4
	c, err := netlist.ArrayMultiplier(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<w; a++ {
		for b := 0; b < 1<<w; b++ {
			p := make(Pattern, 0, 2*w)
			for i := 0; i < w; i++ {
				p = append(p, a>>i&1 == 1)
			}
			for i := 0; i < w; i++ {
				p = append(p, b>>i&1 == 1)
			}
			out, err := sim.RunSingle(p)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for i := range out {
				if out[i] {
					got |= 1 << i
				}
			}
			if got != a*b {
				t.Fatalf("%d * %d = %d, circuit says %d", a, b, a*b, got)
			}
		}
	}
}

func TestParityTreeCorrect(t *testing.T) {
	const w = 7
	c, err := netlist.ParityTree(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 1<<w; v++ {
		p := make(Pattern, w)
		parity := false
		for i := 0; i < w; i++ {
			p[i] = v>>i&1 == 1
			if p[i] {
				parity = !parity
			}
		}
		out, err := sim.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != parity {
			t.Fatalf("parity(%07b) = %v, want %v", v, out[0], parity)
		}
	}
}

func TestDecoderCorrect(t *testing.T) {
	const bits = 3
	c, err := netlist.Decoder(bits)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 1<<bits; v++ {
		for _, en := range []bool{false, true} {
			p := make(Pattern, bits+1)
			for i := 0; i < bits; i++ {
				p[i] = v>>i&1 == 1
			}
			p[bits] = en
			out, err := sim.RunSingle(p)
			if err != nil {
				t.Fatal(err)
			}
			for o := range out {
				want := en && o == v
				if out[o] != want {
					t.Fatalf("dec(v=%d en=%v) output %d = %v, want %v", v, en, o, out[o], want)
				}
			}
		}
	}
}

func TestMuxTreeCorrect(t *testing.T) {
	const sel = 3
	c, err := netlist.MuxTree(sel)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << sel
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		data := rng.Intn(1 << n)
		s := rng.Intn(n)
		p := make(Pattern, 0, n+sel)
		for i := 0; i < n; i++ {
			p = append(p, data>>i&1 == 1)
		}
		for i := 0; i < sel; i++ {
			p = append(p, s>>i&1 == 1)
		}
		out, err := sim.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := data>>s&1 == 1; out[0] != want {
			t.Fatalf("mux(data=%08b, s=%d) = %v, want %v", data, s, out[0], want)
		}
	}
}

func TestComparatorCorrect(t *testing.T) {
	const w = 5
	c, err := netlist.Comparator(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(1 << w)
		b := a
		if trial%2 == 0 {
			b = rng.Intn(1 << w)
		}
		p := make(Pattern, 0, 2*w)
		for i := 0; i < w; i++ {
			p = append(p, a>>i&1 == 1, b>>i&1 == 1)
		}
		out, err := sim.RunSingle(p)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (a == b) {
			t.Fatalf("cmp(%d,%d) = %v", a, b, out[0])
		}
	}
}

func TestRunWithFaultStuckOutput(t *testing.T) {
	// c17: force gate 22's output stuck-at-1; output 22 must read 1 for
	// every pattern.
	c := netlist.C17()
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := c.GateByName("22")
	patterns := allC17Patterns()
	block, _ := PackPatterns(patterns)
	out, err := sim.RunWithFault(block, id, -1, true)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&block.Mask() != block.Mask() {
		t.Errorf("stuck-at-1 output should read all ones, got %b", out[0]&block.Mask())
	}
}

func TestRunWithFaultInputPin(t *testing.T) {
	// Fault on one branch of a fanout stem must not affect the other
	// branch. In c17, gate 11 fans out to 16 and 19. Stuck a pin of 16
	// and check gate 19's behaviour is untouched by comparing output 23
	// against a direct reference with only that pin forced.
	c := netlist.C17()
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	g16, _ := c.GateByName("16")
	// Pin 1 of gate 16 is the branch from 11 (fanin order: 2, 11).
	patterns := allC17Patterns()
	block, _ := PackPatterns(patterns)
	got, err := sim.RunWithFault(block, g16, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for p, pat := range patterns {
		i1, i2, i3, i6, i7 := pat[0], pat[1], pat[2], pat[3], pat[4]
		_ = i3
		_ = i6
		n10 := !(i1 && i3)
		n11 := !(i3 && i6)
		n16 := !(i2 && true) // pin from 11 stuck at 1
		n19 := !(n11 && i7)  // unaffected
		n22 := !(n10 && n16)
		n23 := !(n16 && n19)
		if g := got[0]>>uint(p)&1 == 1; g != n22 {
			t.Fatalf("pattern %d: output 22 = %v, want %v", p, g, n22)
		}
		if g := got[1]>>uint(p)&1 == 1; g != n23 {
			t.Fatalf("pattern %d: output 23 = %v, want %v", p, g, n23)
		}
	}
}

func TestRunWithFaultErrors(t *testing.T) {
	sim, err := NewSimulator(netlist.C17())
	if err != nil {
		t.Fatal(err)
	}
	block, _ := PackPatterns(allC17Patterns()[:1])
	if _, err := sim.RunWithFault(block, 999, -1, true); err == nil {
		t.Error("bad site should error")
	}
	if _, err := sim.RunWithFault(block, 10, 7, true); err == nil {
		t.Error("bad pin should error")
	}
}

// allC17Patterns returns all 32 input patterns of c17.
func allC17Patterns() []Pattern {
	out := make([]Pattern, 32)
	for v := 0; v < 32; v++ {
		p := make(Pattern, 5)
		for i := 0; i < 5; i++ {
			p[i] = v>>i&1 == 1
		}
		out[v] = p
	}
	return out
}

func BenchmarkParallelSim(b *testing.B) {
	c, err := netlist.ArrayMultiplier(16)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	patterns := make([]Pattern, 64)
	for i := range patterns {
		p := make(Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		patterns[i] = p
	}
	block, _ := PackPatterns(patterns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(block); err != nil {
			b.Fatal(err)
		}
	}
}
