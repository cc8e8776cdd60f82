package logicsim_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

// wideWidths is the lane-block width matrix the wide-layer property
// tests sweep: the two widths the layer has, the 1-word scalar kernel
// and the 4-word unrolled one.
var wideWidths = []int{1, logicsim.MaxLaneWords}

// forceMachine forces one machine's faults onto a lane the way the lot
// engine builds its tables: resolved to slot space by
// Flat.ResolveInjections, then added with AddResolved.
func forceMachine(t testing.TB, f *logicsim.Flat, lf *logicsim.WideLaneForces, machine []logicsim.Injection, lane int) {
	t.Helper()
	resolved, err := f.ResolveInjections(machine)
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range resolved {
		lf.AddResolved(si, lane)
	}
}

// randomMachines builds n multi-fault machines of 1..5 random faults.
func randomMachines(c *netlist.Circuit, n int, rng *rand.Rand) [][]logicsim.Injection {
	machines := make([][]logicsim.Injection, n)
	for m := range machines {
		k := 1 + rng.Intn(5)
		for j := 0; j < k; j++ {
			gate := rng.Intn(len(c.Gates))
			pin := -1
			if nf := len(c.Gates[gate].Fanin); nf > 0 && rng.Intn(2) == 1 {
				pin = rng.Intn(nf)
			}
			machines[m] = append(machines[m], logicsim.Injection{Gate: gate, Pin: pin, Stuck: rng.Intn(2) == 1})
		}
	}
	return machines
}

// TestWideRunLaneForcedMatchesRunWithFaults is the wide transpose
// identity: lane l of one WideSim.RunLaneForced walk must equal bit p
// of a separate RunWithFaults pass over that lane's fault set, for
// every lane-block width — including lanes beyond 63, which only exist
// in the wide layout.
func TestWideRunLaneForcedMatchesRunWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
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
	block, err := logicsim.PackPatterns(randomPatterns(c, 17, rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range wideWidths {
		ws, err := logicsim.NewWideSim(f, words)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := logicsim.NewWideLaneForces(f, words)
		if err != nil {
			t.Fatal(err)
		}
		// Scatter machines across the whole lane range so every word of
		// the block carries faults; lane 0 stays good.
		var lanes []int
		for lane := 1; lane < lf.Lanes(); lane += 1 + lane/2 {
			lanes = append(lanes, lane)
		}
		last := lf.Lanes() - 1
		if lanes[len(lanes)-1] != last {
			lanes = append(lanes, last)
		}
		machines := randomMachines(c, len(lanes), rng)
		for m, lane := range lanes {
			forceMachine(t, f, lf, machines[m], lane)
		}
		want := make([][]uint64, len(machines))
		for m := range machines {
			out, err := sim.RunWithFaults(block, machines[m])
			if err != nil {
				t.Fatal(err)
			}
			want[m] = append([]uint64(nil), out...)
		}
		good, err := sim.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		goodCopy := append([]uint64(nil), good...)
		var out []uint64
		for p := 0; p < block.Count; p++ {
			out, err = ws.RunLaneForced(block, p, lf, out)
			if err != nil {
				t.Fatal(err)
			}
			for o := range c.Outputs {
				ob := out[o*words : (o+1)*words]
				if got := ob[0] & 1; got != goodCopy[o]>>uint(p)&1 {
					t.Fatalf("words=%d pattern %d output %d: lane 0 bit %d, good bit %d",
						words, p, o, got, goodCopy[o]>>uint(p)&1)
				}
				for m, lane := range lanes {
					got := ob[lane>>6] >> uint(lane&63) & 1
					if got != want[m][o]>>uint(p)&1 {
						t.Fatalf("words=%d pattern %d output %d lane %d: got %d, RunWithFaults %d",
							words, p, o, lane, got, want[m][o]>>uint(p)&1)
					}
				}
			}
		}
	}
}

func TestWideLaneForcesLastValueWins(t *testing.T) {
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	g22, _ := c.GateByName("22")
	block, err := logicsim.PackPatterns(randomPatterns(c, 8, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := logicsim.NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := logicsim.NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Both polarities on one lane: the second add wins, same as a chip's
	// ordered fault list under RunWithFaults.
	const lane = 200
	machine := []logicsim.Injection{
		{Gate: g22, Pin: -1, Stuck: true},
		{Gate: g22, Pin: -1, Stuck: false},
	}
	forceMachine(t, f, lf, machine, lane)
	want, err := sim.RunWithFaults(block, machine)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < block.Count; p++ {
		out, err := ws.RunLaneForced(block, p, lf, nil)
		if err != nil {
			t.Fatal(err)
		}
		for o := range c.Outputs {
			got := out[o*4+lane>>6] >> uint(lane&63) & 1
			if got != want[o]>>uint(p)&1 {
				t.Fatalf("pattern %d output %d: lane %d bit %d, want %d", p, o, lane, got, want[o]>>uint(p)&1)
			}
		}
	}
}

// TestWideRunLaneForcedZeroAllocs pins the steady-state wide walk —
// the chipparallel256 inner loop — to zero allocations per pattern.
func TestWideRunLaneForcedZeroAllocs(t *testing.T) {
	c, err := netlist.RandomCircuit("a", 10, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := logicsim.NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := logicsim.NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for m, machine := range randomMachines(c, 40, rng) {
		forceMachine(t, f, lf, machine, m+1)
	}
	block, err := logicsim.PackPatterns(randomPatterns(c, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 0, len(c.Outputs)*4)
	// Warm once so the staging scratch reaches its high-water mark.
	if out, err = ws.RunLaneForced(block, 0, lf, out); err != nil {
		t.Fatal(err)
	}
	p := 0
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		out, err = ws.RunLaneForced(block, p%block.Count, lf, out)
		if err != nil {
			t.Fatal(err)
		}
		p++
	}); allocs != 0 {
		t.Errorf("WideSim.RunLaneForced allocates %v per run, want 0", allocs)
	}
}

// TestWideLaneForcesResetKeepsLaneBounds is the compaction regression:
// an epoch Reset must empty the table without resizing it, so a narrow
// (re-packed) table still reports the lane count the lot engine checks
// a batch against, and a force from the previous epoch no longer
// reaches the walk.
func TestWideLaneForcesResetKeepsLaneBounds(t *testing.T) {
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
	if lf.Lanes() != 64 || lf.Words() != 1 {
		t.Fatalf("1-word table has %d lanes over %d words", lf.Lanes(), lf.Words())
	}
	block, err := logicsim.PackPatterns(randomPatterns(c, 8, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	// Stick every output on lane 63, then Reset: the walk must see the
	// good machine on every lane again.
	var stuck []logicsim.Injection
	for _, g := range c.Outputs {
		stuck = append(stuck, logicsim.Injection{Gate: g, Pin: -1, Stuck: true})
	}
	forceMachine(t, f, lf, stuck, 63)
	diverged := false
	for p := 0; p < block.Count; p++ {
		out, err := ws.RunLaneForced(block, p, lf, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range out {
			diverged = diverged || w>>63 != w&1
		}
	}
	if !diverged {
		t.Fatal("stuck outputs on lane 63 never differed from the good machine")
	}
	lf.Reset()
	if lf.Lanes() != 64 || lf.Words() != 1 {
		t.Fatalf("Reset resized the table to %d lanes over %d words", lf.Lanes(), lf.Words())
	}
	for p := 0; p < block.Count; p++ {
		out, err := ws.RunLaneForced(block, p, lf, nil)
		if err != nil {
			t.Fatal(err)
		}
		for o, w := range out {
			if w != 0 && w != ^uint64(0) {
				t.Fatalf("pattern %d output %d: lanes disagree (%x) after Reset", p, o, w)
			}
		}
	}
}

// TestWideValidationErrors pins the wide layer's shape checks: every
// width but 1 and MaxLaneWords (including the retired 2, 3 and 5..8)
// is rejected with the named ErrLaneWords by both constructors, fault
// lists are validated once at ResolveInjections, and the walk rejects a
// mismatched forcing table or an out-of-range pattern.
func TestWideValidationErrors(t *testing.T) {
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{0, -1, 2, 3, 5, 8, 9} {
		if _, err := logicsim.NewWideSim(f, words); !errors.Is(err, logicsim.ErrLaneWords) {
			t.Errorf("NewWideSim(%d words) error %v, want ErrLaneWords", words, err)
		}
		if _, err := logicsim.NewWideLaneForces(f, words); !errors.Is(err, logicsim.ErrLaneWords) {
			t.Errorf("NewWideLaneForces(%d words) error %v, want ErrLaneWords", words, err)
		}
	}
	ws, err := logicsim.NewWideSim(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := logicsim.NewWideLaneForces(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ResolveInjections([]logicsim.Injection{{Gate: len(c.Gates), Pin: -1}}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := f.ResolveInjections([]logicsim.Injection{{Gate: c.Outputs[0], Pin: 9}}); err == nil {
		t.Error("out-of-range pin accepted")
	}
	lf1, err := logicsim.NewWideLaneForces(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	block, err := logicsim.PackPatterns(randomPatterns(c, 4, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.RunLaneForced(block, 0, lf1, nil); err == nil {
		t.Error("shape-mismatched forcing table accepted")
	}
	if _, err := ws.RunLaneForced(block, 9, lf, nil); err == nil {
		t.Error("out-of-range pattern accepted")
	}
}
