package atpg

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// podemCircuits is the small-circuit set of the PODEM property tests:
// every one has at most 16 inputs, so each fault can also be settled
// exhaustively.
func podemCircuits(t testing.TB) []*netlist.Circuit {
	t.Helper()
	out := []*netlist.Circuit{netlist.C17()}
	for _, build := range []func() (*netlist.Circuit, error){
		func() (*netlist.Circuit, error) { return netlist.RippleAdder(4) },
		func() (*netlist.Circuit, error) { return netlist.ArrayMultiplier(4) },
		func() (*netlist.Circuit, error) { return netlist.Comparator(8) },
		func() (*netlist.Circuit, error) { return netlist.RandomCircuit("rand-a", 10, 120, 6, 3) },
		func() (*netlist.Circuit, error) { return netlist.RandomCircuit("rand-b", 14, 200, 8, 9) },
	} {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// lsi1k parses the embedded 1k-gate LSI fixture and draws a fixed
// sample of m collapsed faults from it.
func lsi1k(t testing.TB, m int) (*netlist.Circuit, []fault.Fault) {
	t.Helper()
	fh, err := os.Open("../circuits/fixtures/lsi1k.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	c, err := netlist.ParseBench("lsi1k", fh)
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
	rng := rand.New(rand.NewSource(1))
	idx := rng.Perm(len(reps))[:m]
	slices.Sort(idx)
	sample := make([]fault.Fault, m)
	for i, fi := range idx {
		sample[i] = reps[fi]
	}
	return c, sample
}

// comparePodem runs the flat generator and the per-gate reference over
// the faults at one backtrack budget and requires identical outcomes:
// same status, same pattern. Both generators are reused across calls,
// so stale scratch from an earlier fault would show up as a mismatch.
func comparePodem(t *testing.T, c *netlist.Circuit, gen *Podem, ref *refPodem, faults []fault.Fault, limit int) {
	t.Helper()
	gen.BacktrackLimit, ref.BacktrackLimit = limit, limit
	for _, f := range faults {
		got, gs := gen.Generate(f)
		want, ws := ref.Generate(f)
		if gs != ws || !slices.Equal(got, want) {
			t.Fatalf("%s %s budget %d: flat PODEM (%v, %v), reference (%v, %v)",
				c.Name, f.Name(c), limit, gs, got, ws, want)
		}
	}
}

// TestPodemMatchesReference pins the flat, event-driven PODEM to the
// per-gate reference it replaced: identical (Status, Pattern) for every
// collapsed fault of the small circuits at backtrack budgets 1, 50 and
// the default, and for a 150-fault lsi1k sample at budget 50.
func TestPodemMatchesReference(t *testing.T) {
	for _, c := range podemCircuits(t) {
		gen, err := NewPodem(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefPodem(c)
		if err != nil {
			t.Fatal(err)
		}
		reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
		for _, limit := range []int{1, 50, 0} {
			comparePodem(t, c, gen, ref, reps, limit)
		}
	}
	t.Run("lsi1k", func(t *testing.T) {
		if testing.Short() {
			t.Skip("lsi1k sample skipped in -short mode")
		}
		c, sample := lsi1k(t, 150)
		gen, err := NewPodem(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefPodem(c)
		if err != nil {
			t.Fatal(err)
		}
		comparePodem(t, c, gen, ref, sample, 50)
	})
}

// TestPodemExhaustiveOracle checks PODEM's verdicts against the truth
// on circuits small enough to enumerate: a fault marked Untestable must
// escape all 2^n input patterns, every Detected pattern must detect its
// target, and every fault abandoned at a one-backtrack budget is
// settled exhaustively (the split is logged).
func TestPodemExhaustiveOracle(t *testing.T) {
	for _, c := range podemCircuits(t) {
		reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
		all, err := Exhaustive(c)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := faultsim.Run(c, reps, all, faultsim.PPSFP)
		if err != nil {
			t.Fatal(err)
		}
		testable := func(fi int) bool { return truth.FirstDetect[fi] != faultsim.NotDetected }
		gen, err := NewPodem(c)
		if err != nil {
			t.Fatal(err)
		}
		untestable := 0
		for fi, f := range reps {
			pattern, status := gen.Generate(f)
			switch status {
			case Untestable:
				untestable++
				if testable(fi) {
					t.Errorf("%s %s: PODEM says untestable, pattern %d detects it", c.Name, f.Name(c), truth.FirstDetect[fi])
				}
			case Detected:
				if !oracleDetects(t, c, f, pattern) {
					t.Errorf("%s %s: generated pattern %v misses its target", c.Name, f.Name(c), pattern)
				}
			}
		}
		gen.BacktrackLimit = 1
		var aborted, abortedTestable int
		for fi, f := range reps {
			if _, status := gen.Generate(f); status == Aborted {
				aborted++
				if testable(fi) {
					abortedTestable++
				}
			}
		}
		t.Logf("%s: %d faults, %d untestable; budget 1 aborts %d: %d testable, %d truly untestable",
			c.Name, len(reps), untestable, aborted, abortedTestable, aborted-abortedTestable)
	}
}

// TestGenerateRejectsOutOfRangeFault: a fault that names no gate or
// no pin of the circuit is Untestable, never a panic.
func TestGenerateRejectsOutOfRangeFault(t *testing.T) {
	c := netlist.C17()
	gen, err := NewPodem(c)
	if err != nil {
		t.Fatal(err)
	}
	g10, _ := c.GateByName("10")
	pins := len(c.Gates[g10].Fanin)
	for _, tc := range []struct {
		name string
		f    fault.Fault
	}{
		{"gate -1", fault.Fault{Gate: -1, Pin: -1}},
		{"gate len(Gates)", fault.Fault{Gate: len(c.Gates), Pin: -1}},
		{"pin len(Fanin)", fault.Fault{Gate: g10, Pin: pins}},
		{"pin -2", fault.Fault{Gate: g10, Pin: -2, Stuck: true}},
		{"pin on a primary input", fault.Fault{Gate: c.Inputs[0], Pin: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p, status := gen.Generate(tc.f); status != Untestable || p != nil {
				t.Errorf("Generate(%+v) = (%v, %v), want (nil, untestable)", tc.f, p, status)
			}
		})
	}
}

// TestGenerateAllocs pins the reuse contract: once warmed, Generate
// allocates nothing but the pattern it returns — one allocation for a
// detected fault, none for an untestable or aborted one.
func TestGenerateAllocs(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewPodem(c)
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
	for _, f := range reps {
		gen.Generate(f)
	}
	var detected fault.Fault
	for _, f := range reps {
		if _, s := gen.Generate(f); s == Detected {
			detected = f
			break
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { gen.Generate(detected) }); allocs != 1 {
		t.Errorf("Generate of a detected fault allocates %v per run, want 1 (the pattern)", allocs)
	}
	gen.BacktrackLimit = 1
	var aborted fault.Fault
	found := false
	for _, f := range reps {
		if _, s := gen.Generate(f); s == Aborted {
			aborted, found = f, true
			break
		}
	}
	if !found {
		t.Fatal("no fault aborts at budget 1")
	}
	if allocs := testing.AllocsPerRun(20, func() { gen.Generate(aborted) }); allocs != 0 {
		t.Errorf("Generate of an aborted fault allocates %v per run, want 0", allocs)
	}

	r := netlist.New("redundant")
	mustAdd(t, r, "a", netlist.Input)
	mustAdd(t, r, "b", netlist.Input)
	mustAdd(t, r, "na", netlist.Not, "a")
	mustAdd(t, r, "const0", netlist.And, "a", "na")
	mustAdd(t, r, "z", netlist.Or, "const0", "b")
	if err := r.MarkOutput("z"); err != nil {
		t.Fatal(err)
	}
	rgen, err := NewPodem(r)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := r.GateByName("const0")
	redundant := fault.Fault{Gate: id, Pin: -1}
	if _, s := rgen.Generate(redundant); s != Untestable {
		t.Fatalf("redundant fault status %v", s)
	}
	if allocs := testing.AllocsPerRun(20, func() { rgen.Generate(redundant) }); allocs != 0 {
		t.Errorf("Generate of an untestable fault allocates %v per run, want 0", allocs)
	}
}

// BenchmarkPodemLSI1k times PODEM over a fixed 150-fault lsi1k sample
// at budget 50 — large enough for incremental implication to matter,
// which C17 is not.
func BenchmarkPodemLSI1k(b *testing.B) {
	c, sample := lsi1k(b, 150)
	gen, err := NewPodem(c)
	if err != nil {
		b.Fatal(err)
	}
	gen.BacktrackLimit = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(sample[i%len(sample)])
	}
}
