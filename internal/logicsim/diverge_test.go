package logicsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// laneForce is one force of a divergence-walk test: a fault on a lane.
type laneForce struct {
	inj  logicsim.Injection
	lane int
}

// wideGateCircuit is RandomCircuit plus a layer of 3..5-input gates of
// every wide family, each marked as an output, so the walks' N-input
// paths (and pin forces on them) are exercised: RandomCircuit itself
// builds only 1- and 2-input gates.
func wideGateCircuit(t testing.TB, seed int64, inputs, gates int) *netlist.Circuit {
	t.Helper()
	c, err := netlist.RandomCircuit(fmt.Sprintf("w%d", seed), inputs, gates, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	for i, typ := range types {
		fanin := make([]string, 3+rng.Intn(3))
		for k := range fanin {
			fanin[k] = c.Gates[rng.Intn(len(c.Gates))].Name
		}
		name := fmt.Sprintf("wide%d", i)
		if _, err := c.AddGate(name, typ, fanin...); err != nil {
			t.Fatal(err)
		}
		if err := c.MarkOutput(name); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// packBlocks packs patterns into consecutive 64-pattern blocks.
func packBlocks(t testing.TB, patterns []logicsim.Pattern) []logicsim.PatternBlock {
	t.Helper()
	blocks, err := logicsim.PackBlocks(patterns)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// checkLaneWalk forces each laneForce in order onto a words-wide table
// and requires RunLaneDiverged to return RunLaneForced's output blocks,
// every lane, at every pattern of every block.
func checkLaneWalk(t testing.TB, f *logicsim.Flat, words int, blocks []logicsim.PatternBlock, gp *logicsim.GoodPlanes, forces []laneForce) {
	t.Helper()
	dense, err := logicsim.NewWideSim(f, words)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := logicsim.NewWideSim(f, words)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := logicsim.NewWideLaneForces(f, words)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range forces {
		forceMachine(t, f, lf, []logicsim.Injection{fl.inj}, fl.lane)
	}
	var want, got []uint64
	for bi, block := range blocks {
		for p := 0; p < block.Count; p++ {
			if want, err = dense.RunLaneForced(block, p, lf, want); err != nil {
				t.Fatal(err)
			}
			if got, err = sparse.RunLaneDiverged(gp, bi*64+p, lf, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("words=%d pattern %d output %d word %d: diverged walk %016x, forced walk %016x",
						words, bi*64+p, i/words, i%words, got[i], want[i])
				}
			}
		}
	}
}

// randomForces draws n forces on random sites and lanes: stem and pin
// faults alike, primary inputs included.
func randomForces(c *netlist.Circuit, n, lanes int, rng *rand.Rand) []laneForce {
	out := make([]laneForce, n)
	for i := range out {
		gate := rng.Intn(len(c.Gates))
		pin := -1
		if nf := len(c.Gates[gate].Fanin); nf > 0 && rng.Intn(2) == 1 {
			pin = rng.Intn(nf)
		}
		out[i] = laneForce{logicsim.Injection{Gate: gate, Pin: pin, Stuck: rng.Intn(2) == 1}, rng.Intn(lanes)}
	}
	return out
}

// TestLaneWalkMatchesForcedWalk is the divergence walk's differential
// pin: over random circuits with wide gates, at both widths, every lane
// of every output block must equal RunLaneForced's, across sparse
// tables, primary-input stem forces, a site added twice, forces that
// never activate, an empty table and a table forcing every lane.
func TestLaneWalkMatchesForcedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1974))
	for trial := 0; trial < 4; trial++ {
		c := wideGateCircuit(t, int64(trial), 6+rng.Intn(6), 60+rng.Intn(120))
		f, err := logicsim.NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		blocks := packBlocks(t, randomPatterns(c, 100, rng))
		gp, err := logicsim.NewGoodPlanes(f, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if gp.Patterns() != 100 {
			t.Fatalf("good planes cover %d patterns, want 100", gp.Patterns())
		}
		for _, words := range wideWidths {
			lanes := 64 * words
			var inputs []laneForce
			for i, g := range c.Inputs {
				inputs = append(inputs, laneForce{logicsim.Injection{Gate: g, Pin: -1, Stuck: i%2 == 0}, 1 + i%(lanes-1)})
			}
			// The same site twice on one lane (the last value wins) and on
			// a neighbouring lane, at a stem and at a pin.
			g := c.Outputs[0]
			twice := []laneForce{
				{logicsim.Injection{Gate: g, Pin: -1, Stuck: true}, 5},
				{logicsim.Injection{Gate: g, Pin: -1, Stuck: false}, 5},
				{logicsim.Injection{Gate: g, Pin: -1, Stuck: true}, 6},
				{logicsim.Injection{Gate: g, Pin: 0, Stuck: false}, lanes - 1},
				{logicsim.Injection{Gate: g, Pin: 0, Stuck: true}, lanes - 1},
			}
			every := randomForces(c, 2*lanes, lanes, rng)
			for lane := 0; lane < lanes; lane++ {
				every = append(every, laneForce{randomForces(c, 1, lanes, rng)[0].inj, lane})
			}
			for name, forces := range map[string][]laneForce{
				"empty":       nil,
				"sparse":      randomForces(c, 3, lanes, rng),
				"scattered":   randomForces(c, 40, lanes, rng),
				"inputs":      inputs,
				"twice":       twice,
				"every lane":  every,
				"full-inputs": append(inputs, randomForces(c, 10, lanes, rng)...),
			} {
				t.Run(fmt.Sprintf("trial%d/words%d/%s", trial, words, name), func(t *testing.T) {
					checkLaneWalk(t, f, words, blocks, gp, forces)
				})
			}
		}
	}
}

// TestLaneWalkInactiveForces forces, at each pattern, every slot's
// output to its own good value on some lane: nothing ever activates, so
// the walk must visit only the seeds and return the broadcast good
// machine on every lane.
func TestLaneWalkInactiveForces(t *testing.T) {
	c := wideGateCircuit(t, 7, 8, 90)
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	blocks := packBlocks(t, randomPatterns(c, 64, rng))
	gp, err := logicsim.NewGoodPlanes(f, blocks)
	if err != nil {
		t.Fatal(err)
	}
	good := logicsim.NewFlatSim(f)
	want, err := good.RunInto(blocks[0], nil)
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
		var out []uint64
		for p := 0; p < blocks[0].Count; p++ {
			lf.Reset()
			for slot := 0; slot < f.Slots(); slot++ {
				bit := good.Value(slot)>>uint(p)&1 == 1
				lf.AddResolved(logicsim.SlotInjection{Slot: int32(slot), Pin: -1, Stuck: bit}, (slot*7)%lf.Lanes())
			}
			if lf.ForcedSlots() != f.Slots() {
				t.Fatalf("ForcedSlots %d, want %d", lf.ForcedSlots(), f.Slots())
			}
			if out, err = ws.RunLaneDiverged(gp, p, lf, out); err != nil {
				t.Fatal(err)
			}
			for o := range c.Outputs {
				g := -(want[o] >> uint(p) & 1)
				for k := 0; k < words; k++ {
					if out[o*words+k] != g {
						t.Fatalf("words=%d pattern %d output %d: %016x, want broadcast good %016x", words, p, o, out[o*words+k], g)
					}
				}
			}
			if logicsim.DivergedSlots(ws) != 0 {
				t.Fatalf("words=%d pattern %d: inactive forces marked slots diverged", words, p)
			}
		}
	}
}

// TestLaneWalkZeroAllocs pins the divergence walk to zero allocations
// once its output buffer is sized.
func TestLaneWalkZeroAllocs(t *testing.T) {
	c := wideGateCircuit(t, 3, 10, 200)
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	blocks := packBlocks(t, randomPatterns(c, 64, rng))
	gp, err := logicsim.NewGoodPlanes(f, blocks)
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
		for _, fl := range randomForces(c, 30, lf.Lanes(), rng) {
			forceMachine(t, f, lf, []logicsim.Injection{fl.inj}, fl.lane)
		}
		out := make([]uint64, 0, len(c.Outputs)*words)
		p := 0
		if allocs := testing.AllocsPerRun(50, func() {
			var err error
			out, err = ws.RunLaneDiverged(gp, p%gp.Patterns(), lf, out)
			if err != nil {
				t.Fatal(err)
			}
			p++
		}); allocs != 0 {
			t.Errorf("words=%d: RunLaneDiverged allocates %v per run, want 0", words, allocs)
		}
	}
}

// TestLaneWalkValidation pins the divergence walk's shape checks and
// NewGoodPlanes' block-layout check.
func TestLaneWalkValidation(t *testing.T) {
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	short, err := logicsim.PackPatterns(randomPatterns(c, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logicsim.NewGoodPlanes(f, []logicsim.PatternBlock{short, short}); err == nil {
		t.Error("good planes over a short non-final block accepted")
	}
	gp, err := logicsim.NewGoodPlanes(f, []logicsim.PatternBlock{short})
	if err != nil {
		t.Fatal(err)
	}
	other, err := logicsim.NewFlat(wideGateCircuit(t, 1, 5, 20))
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
	lf1, err := logicsim.NewWideLaneForces(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	otherPlanes, err := logicsim.NewGoodPlanes(other, packBlocks(t, randomPatterns(other.Circuit(), 4, rng)))
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"pattern past the planes": func() error { _, err := ws.RunLaneDiverged(gp, 4, lf, nil); return err },
		"negative pattern":        func() error { _, err := ws.RunLaneDiverged(gp, -1, lf, nil); return err },
		"table width mismatch":    func() error { _, err := ws.RunLaneDiverged(gp, 0, lf1, nil); return err },
		"planes of another flat":  func() error { _, err := ws.RunLaneDiverged(otherPlanes, 0, lf, nil); return err },
	} {
		if run() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzLaneWalk drives the divergence walk with fuzzer-chosen forces: a
// random circuit with wide gates picked by seed, and every 5 bytes of
// data one force (site, pin or stem, stuck value, lane). The property
// is TestLaneWalkMatchesForcedWalk's: RunLaneDiverged returns
// RunLaneForced's output blocks on every lane.
func FuzzLaneWalk(f *testing.F) {
	f.Add(int64(1), false, []byte{0, 0, 0, 1, 1})
	f.Add(int64(2), true, []byte{3, 0, 200, 0, 255, 9, 0, 1, 1, 64, 9, 0, 1, 0, 64})
	f.Add(int64(3), true, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, wide bool, data []byte) {
		if len(data) > 5*512 {
			data = data[:5*512]
		}
		rng := rand.New(rand.NewSource(seed))
		c := wideGateCircuit(t, seed, 4+rng.Intn(6), 20+rng.Intn(60))
		fl, err := logicsim.NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		words := 1
		if wide {
			words = logicsim.MaxLaneWords
		}
		var forces []laneForce
		for ; len(data) >= 5; data = data[5:] {
			gate := (int(data[0]) | int(data[1])<<8) % len(c.Gates)
			pin := int(data[2])%(len(c.Gates[gate].Fanin)+1) - 1
			forces = append(forces, laneForce{
				logicsim.Injection{Gate: gate, Pin: pin, Stuck: data[3]&1 == 1},
				int(data[4]) % (64 * words),
			})
		}
		blocks := packBlocks(t, randomPatterns(c, 70, rng))
		gp, err := logicsim.NewGoodPlanes(fl, blocks)
		if err != nil {
			t.Fatal(err)
		}
		checkLaneWalk(t, fl, words, blocks, gp, forces)
	})
}
