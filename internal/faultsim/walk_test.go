package faultsim

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

// oracleCircuits returns the circuits the grading walk is pinned on —
// c17, mul4 and lsi1k (LSIChip(1000), whose rendering is the embedded
// lsi1k fixture) — each with its collapsed fault list, every third
// fault of lsi1k's so the oracle stays quick.
func oracleCircuits(t *testing.T) ([]*netlist.Circuit, [][]fault.Fault) {
	t.Helper()
	mul4, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	lsi1k, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*netlist.Circuit{netlist.C17(), mul4, lsi1k}
	faults := make([][]fault.Fault, len(cs))
	for i, c := range cs {
		faults[i] = fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
		if len(faults[i]) > 1000 {
			var some []fault.Fault
			for fi := 0; fi < len(faults[i]); fi += 3 {
				some = append(some, faults[i][fi])
			}
			faults[i] = some
		}
	}
	return cs, faults
}

// pointerFirstSteps is the strobe-granular oracle: for each fault, the
// first (pattern, output) strobe at which the ref.Simulator's
// single-fault run differs from its good run, as pattern*outputs +
// output, or NotDetected. Outputs past a partial block's last pattern
// are never looked at.
func pointerFirstSteps(t *testing.T, c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) []int {
	t.Helper()
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	nOut := len(c.Outputs)
	first := make([]int, len(faults))
	for fi := range first {
		first[fi] = NotDetected
	}
	for base := 0; base < len(patterns); base += 64 {
		block, err := logicsim.PackPatterns(patterns[base:min(base+64, len(patterns))])
		if err != nil {
			t.Fatal(err)
		}
		good, err := sim.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		good = append([]uint64(nil), good...)
		for fi, f := range faults {
			if first[fi] != NotDetected {
				continue
			}
			bad, err := sim.RunWithFault(block, f.Gate, f.Pin, f.Stuck)
			if err != nil {
				t.Fatal(err)
			}
			var any uint64
			for o := range bad {
				any |= (bad[o] ^ good[o]) & block.Mask()
			}
			if any == 0 {
				continue
			}
			p := bits.TrailingZeros64(any)
			for o := range bad {
				if (bad[o]^good[o])>>uint(p)&1 == 1 {
					first[fi] = (base+p)*nOut + o
					break
				}
			}
		}
	}
	return first
}

// TestGraderWalkMatchesOracle pins the grader's divergence walk to the
// pointer-walking oracle on c17, mul4 and lsi1k over 150 patterns (a
// partial last block): one Add of the whole program and one
// one-pattern Add per pattern — the ATPG commit loop's shape, where 63
// of the block's lanes are padding — at 1 and 4 shards.
func TestGraderWalkMatchesOracle(t *testing.T) {
	cs, faultLists := oracleCircuits(t)
	for ci, c := range cs {
		faults := faultLists[ci]
		patterns := randomPatterns(c, 150, int64(ci)+5)
		want := pointerSerialFirstDetect(t, c, faults, patterns)
		for _, workers := range []int{1, 4} {
			for _, piece := range []int{len(patterns), 1} {
				name := fmt.Sprintf("%s workers=%d adds of %d", c.Name, workers, piece)
				g, err := NewGrader(c, faults, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(patterns); lo += piece {
					if _, err := g.Add(patterns[lo:min(lo+piece, len(patterns))]); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				res := g.Result()
				if res.Patterns != len(patterns) {
					t.Fatalf("%s: %d patterns, want %d", name, res.Patterns, len(patterns))
				}
				for fi := range faults {
					if res.FirstDetect[fi] != want[fi] {
						t.Fatalf("%s: fault %v first detect %d, oracle %d", name, faults[fi].Name(c), res.FirstDetect[fi], want[fi])
					}
				}
			}
		}
	}
}

// TestGraderStepsMatchOracle pins the strobe the grading walk records
// to the oracle's first failing strobe on c17, mul4 and lsi1k over 150
// patterns (a partial last block): through RunSteps, and through a
// Grader given one pattern per Add — the ATPG commit loop's shape — at
// 1 and 3 shards.
func TestGraderStepsMatchOracle(t *testing.T) {
	cs, faultLists := oracleCircuits(t)
	for ci, c := range cs {
		faults := faultLists[ci]
		patterns := randomPatterns(c, 150, int64(ci)+9)
		want := pointerFirstSteps(t, c, faults, patterns)
		check := func(name string, got Result) {
			t.Helper()
			if got.Patterns != len(patterns)*len(c.Outputs) {
				t.Fatalf("%s %s: %d steps, want %d", c.Name, name, got.Patterns, len(patterns)*len(c.Outputs))
			}
			for fi := range faults {
				if got.FirstDetect[fi] != want[fi] {
					t.Fatalf("%s %s: fault %v first step %d, oracle %d", c.Name, name, faults[fi].Name(c), got.FirstDetect[fi], want[fi])
				}
			}
		}
		res, err := RunSteps(c, faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		check("RunSteps", res)
		for _, workers := range []int{1, 3} {
			g, err := NewGrader(c, faults, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range patterns {
				if _, err := g.Add(patterns[i : i+1]); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("one-pattern Adds, workers=%d", workers), g.Steps())
		}
	}
}

// norCircuit is y = NOR(a, b): y stuck-at-0 is detected by a = b = 0
// only, the vector every padding lane of a partial block carries.
func norCircuit(t *testing.T) (*netlist.Circuit, fault.Fault) {
	t.Helper()
	c, err := netlist.ParseBench("nor", strings.NewReader("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	y, ok := c.GateByName("y")
	if !ok {
		t.Fatal("no gate y")
	}
	return c, fault.Fault{Gate: y, Pin: -1, Stuck: false}
}

// TestPaddingLanesDetectNothing: a fault that only the all-zero vector
// detects stays undetected by a program without that vector, however it
// is added — the padding lanes of each partial block hold exactly that
// vector — and is detected at the right pattern once the program holds
// it.
func TestPaddingLanesDetectNothing(t *testing.T) {
	c, f := norCircuit(t)
	program := []logicsim.Pattern{{true, false}, {false, true}, {true, true}}
	for _, workers := range []int{1, 4} {
		g, err := NewGrader(c, []fault.Fault{f, f, f, f}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range program {
			if newly, err := g.Add([]logicsim.Pattern{p}); err != nil || len(newly) != 0 {
				t.Fatalf("workers=%d one-pattern Add: newly %v, err %v", workers, newly, err)
			}
		}
		if newly, err := g.Add(program); err != nil || len(newly) != 0 {
			t.Fatalf("workers=%d whole-program Add: newly %v, err %v", workers, newly, err)
		}
		newly, err := g.Add([]logicsim.Pattern{{true, true}, {false, false}})
		if err != nil || len(newly) != 4 {
			t.Fatalf("workers=%d Add with the all-zero vector: newly %v, err %v", workers, newly, err)
		}
		if d := g.Result().FirstDetect[0]; d != 2*len(program)+1 {
			t.Fatalf("workers=%d: first detect %d, want %d", workers, d, 2*len(program)+1)
		}
	}
	res, err := RunSteps(c, []fault.Fault{f}, program)
	if err != nil || res.FirstDetect[0] != NotDetected {
		t.Fatalf("RunSteps: %+v, %v; want undetected", res, err)
	}
}

// TestGradeWalkZeroAllocs pins the steady-state grade walk — one
// block's fault loop over a good plane already computed — to zero
// allocations.
func TestGradeWalkZeroAllocs(t *testing.T) {
	c, err := netlist.RandomCircuit("a", 10, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.AllFaults(c)
	g, err := NewGrader(c, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	block, err := logicsim.PackPatterns(randomPatterns(c, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.outs, err = g.good.RunInto(block, g.outs); err != nil {
		t.Fatal(err)
	}
	sh := g.shards[0]
	run := func() {
		for fi := range g.first {
			g.first[fi] = NotDetected
		}
		sh.left = sh.hi - sh.lo
		if err := g.gradeShard(sh, g.good.Plane(), block.Mask(), 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // the walk scratch reaches its high-water mark
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("grade walk allocates %v per block, want 0", allocs)
	}
}
