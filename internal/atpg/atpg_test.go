package atpg

import (
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func TestRandomSource(t *testing.T) {
	if _, err := NewRandomSource(0, 1); err == nil {
		t.Error("width 0 should error")
	}
	s, err := NewRandomSource(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	a := Take(s, 10)
	s2, _ := NewRandomSource(8, 42)
	b := Take(s2, 10)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed should reproduce")
			}
		}
	}
}

func TestLFSRSource(t *testing.T) {
	if _, err := NewLFSRSource(4, 0); err == nil {
		t.Error("zero seed should error")
	}
	if _, err := NewLFSRSource(0, 1); err == nil {
		t.Error("zero width should error")
	}
	s, err := NewLFSRSource(16, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	// The stream must be balanced-ish and not constant.
	ones, total := 0, 0
	for i := 0; i < 100; i++ {
		p := s.Next()
		for _, b := range p {
			total++
			if b {
				ones++
			}
		}
	}
	frac := float64(ones) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("LFSR bit balance %v", frac)
	}
}

func TestExhaustive(t *testing.T) {
	c := netlist.C17()
	ps, err := Exhaustive(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 32 {
		t.Errorf("c17 exhaustive = %d", len(ps))
	}
	big, err := netlist.RandomCircuit("big", 30, 40, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exhaustive(big); err == nil {
		t.Error("30 inputs should refuse exhaustive")
	}
}

func TestPodemDetectsKnownFault(t *testing.T) {
	// c17, gate 10 output s-a-1: a known-testable fault. The generated
	// pattern must be confirmed by the fault simulator.
	c := netlist.C17()
	gen, err := NewPodem(c)
	if err != nil {
		t.Fatal(err)
	}
	g10, _ := c.GateByName("10")
	f := fault.Fault{Gate: g10, Pin: -1, Stuck: true}
	pattern, status := gen.Generate(f)
	if status != Detected {
		t.Fatalf("status = %v", status)
	}
	if !oracleDetects(t, c, f, pattern) {
		t.Error("PODEM pattern does not detect its target")
	}
}

func TestPodemAllC17Faults(t *testing.T) {
	// Every collapsed c17 fault is testable; PODEM must find a test for
	// each and every test must check out in the simulator.
	c := netlist.C17()
	u := fault.BuildUniverse(c)
	gen, err := NewPodem(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range u.Collapsed {
		pattern, status := gen.Generate(cl.Rep)
		if status != Detected {
			t.Errorf("fault %v: status %v", cl.Rep.Name(c), status)
			continue
		}
		if !oracleDetects(t, c, cl.Rep, pattern) {
			t.Errorf("fault %v: generated pattern misses it", cl.Rep.Name(c))
		}
	}
}

func TestPodemFindsRedundantFault(t *testing.T) {
	// Build a circuit with a classic redundancy: z = OR(AND(a, na), b)
	// where na = NOT(a). AND output s-a-0 is untestable (AND is
	// constant 0).
	c := netlist.New("redundant")
	mustAdd(t, c, "a", netlist.Input)
	mustAdd(t, c, "b", netlist.Input)
	mustAdd(t, c, "na", netlist.Not, "a")
	mustAdd(t, c, "const0", netlist.And, "a", "na")
	mustAdd(t, c, "z", netlist.Or, "const0", "b")
	if err := c.MarkOutput("z"); err != nil {
		t.Fatal(err)
	}
	gen, err := NewPodem(c)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := c.GateByName("const0")
	_, status := gen.Generate(fault.Fault{Gate: id, Pin: -1, Stuck: false})
	if status != Untestable {
		t.Errorf("redundant fault status = %v, want untestable", status)
	}
	// The stuck-at-1 on the same line IS testable (set b=0, observe z).
	p, status := gen.Generate(fault.Fault{Gate: id, Pin: -1, Stuck: true})
	if status != Detected {
		t.Fatalf("s-a-1 status = %v", status)
	}
	if !oracleDetects(t, c, fault.Fault{Gate: id, Pin: -1, Stuck: true}, p) {
		t.Error("test for s-a-1 not confirmed")
	}
}

// oracleDetects reports whether the pattern detects the fault on the
// pointer-walking logicsim.Simulator, which shares no code with the
// flat core PODEM and the fault simulator run on.
func oracleDetects(t *testing.T, c *netlist.Circuit, f fault.Fault, pattern logicsim.Pattern) bool {
	t.Helper()
	sim, err := logicsim.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	block, err := logicsim.PackPatterns([]logicsim.Pattern{pattern})
	if err != nil {
		t.Fatal(err)
	}
	good, err := sim.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sim.RunWithFault(block, f.Gate, f.Pin, f.Stuck)
	if err != nil {
		t.Fatal(err)
	}
	for o := range bad {
		if (bad[o]^good[o])&block.Mask() != 0 {
			return true
		}
	}
	return false
}

func mustAdd(t *testing.T, c *netlist.Circuit, name string, typ netlist.GateType, fanin ...string) {
	t.Helper()
	if _, err := c.AddGate(name, typ, fanin...); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateAllC17(t *testing.T) {
	res, err := GenerateAll(netlist.C17())
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Errorf("c17 ATPG coverage = %v, want 1", res.Coverage)
	}
	if res.Untestable != 0 || res.Aborted != 0 {
		t.Errorf("c17 should have no untestable/aborted: %+v", res)
	}
	if len(res.Patterns) == 0 || len(res.Patterns) > res.Faults {
		t.Errorf("pattern count %d implausible", len(res.Patterns))
	}
}

func TestGenerateAllAdder(t *testing.T) {
	c, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GenerateAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Errorf("adder ATPG coverage = %v (untestable %d aborted %d)",
			res.Coverage, res.Untestable, res.Aborted)
	}
	// Verify the claimed coverage by independent fault simulation.
	u := fault.BuildUniverse(c)
	check, err := faultsim.Run(c, fault.Reps(u.Collapsed), res.Patterns, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	if check.Coverage() != res.Coverage {
		t.Errorf("claimed %v, fault simulator says %v", res.Coverage, check.Coverage())
	}
}

func TestGenerateAllDecoder(t *testing.T) {
	// Decoders are random-resistant but fully deterministic-testable.
	c, err := netlist.Decoder(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GenerateAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Errorf("decoder coverage = %v", res.Coverage)
	}
}

// patternDigest is an FNV-64a digest of a pattern set: each pattern as
// a line of '0'/'1' characters.
func patternDigest(ps []logicsim.Pattern) uint64 {
	h := fnv.New64a()
	for _, p := range ps {
		line := make([]byte, len(p)+1)
		for i, v := range p {
			line[i] = '0'
			if v {
				line[i] = '1'
			}
		}
		line[len(p)] = '\n'
		h.Write(line)
	}
	return h.Sum64()
}

// TestGenerateAllPinned pins GenerateAll's pattern sets (count plus
// digest) to the values its original private PODEM-and-drop loop
// produced, now that it runs through CleanupTestsBudget, and checks
// that its outcome tally partitions the fault list. The old loop
// counted an abort when PODEM gave up, even if a later pattern dropped
// the fault, so the three buckets could sum past Faults.
func TestGenerateAllPinned(t *testing.T) {
	cases := []struct {
		name     string
		build    func() (*netlist.Circuit, error)
		patterns int
		digest   uint64
	}{
		{"c17", func() (*netlist.Circuit, error) { return netlist.C17(), nil }, 7, 0x4df5ad818c1a543e},
		{"rca4", func() (*netlist.Circuit, error) { return netlist.RippleAdder(4) }, 18, 0x6ed9518c15d6dc64},
		{"dec3", func() (*netlist.Circuit, error) { return netlist.Decoder(3) }, 16, 0xc28235f9ca2355c3},
		{"mul4", func() (*netlist.Circuit, error) { return netlist.ArrayMultiplier(4) }, 16, 0x6b99c5d5c05743a},
		{"mul8", func() (*netlist.Circuit, error) { return netlist.ArrayMultiplier(8) }, 36, 0x226571421bae5f35},
	}
	for _, tc := range cases {
		c, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := GenerateAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := patternDigest(res.Patterns); len(res.Patterns) != tc.patterns || got != tc.digest {
			t.Errorf("%s: %d patterns, digest %#x; want %d, %#x", tc.name, len(res.Patterns), got, tc.patterns, tc.digest)
		}
		if sum := res.Detected + res.Untestable + res.Aborted; sum != res.Faults {
			t.Errorf("%s: buckets sum to %d, want %d (%+v)", tc.name, sum, res.Faults, res)
		}
	}
}

func TestCompactPreservesCoverage(t *testing.T) {
	c, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	src, _ := NewRandomSource(len(c.Inputs), 77)
	patterns := Take(src, 400)
	before, err := faultsim.Run(c, reps, patterns, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Compact(c, reps, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) >= len(patterns)/2 {
		t.Errorf("compaction kept %d of %d patterns", len(compacted), len(patterns))
	}
	after, err := faultsim.Run(c, reps, compacted, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage() != before.Coverage() {
		t.Errorf("compaction changed coverage: %v -> %v", before.Coverage(), after.Coverage())
	}
}

func TestCompactEmpty(t *testing.T) {
	got, err := Compact(netlist.C17(), nil, nil)
	if err != nil || got != nil {
		t.Error("empty compaction should be a no-op")
	}
}

func TestHybridTestsReachFullCoverage(t *testing.T) {
	// Random + PODEM cleanup should reach 100% of testable faults on a
	// decoder (random alone usually cannot, cheaply).
	c, err := netlist.Decoder(4)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := HybridTests(c, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	res, err := faultsim.Run(c, fault.Reps(u.Collapsed), patterns, faultsim.PPSFP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 {
		t.Errorf("hybrid coverage = %v", res.Coverage())
	}
}

// TestHybridTestsRejectsNegativeCount: a negative random-pattern count
// is an error, not a makeslice panic in Take.
func TestHybridTestsRejectsNegativeCount(t *testing.T) {
	if _, err := HybridTests(netlist.C17(), -1, 5); err == nil {
		t.Error("negative random count accepted")
	}
}

func TestStatusString(t *testing.T) {
	if Detected.String() != "detected" || Untestable.String() != "untestable" || Aborted.String() != "aborted" {
		t.Error("status names")
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status name")
	}
}

func BenchmarkPodemC17(b *testing.B) {
	c := netlist.C17()
	u := fault.BuildUniverse(c)
	gen, err := NewPodem(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := u.Collapsed[i%len(u.Collapsed)]
		gen.Generate(cl.Rep)
	}
}

func BenchmarkGenerateAllAdder8(b *testing.B) {
	c, err := netlist.RippleAdder(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateAll(c); err != nil {
			b.Fatal(err)
		}
	}
}
