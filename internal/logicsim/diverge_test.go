package logicsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
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

// blockMask is the mask of the patterns block b holds: all 64 bits but
// in a partial final block.
func blockMask(block logicsim.PatternBlock) uint64 {
	if block.Count == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(block.Count) - 1
}

// checkChipWalk requires RunChipBlock on the chip's faults to return,
// at every block, each output's difference between the oracle's
// multi-fault run and its good run, restricted to the lanes of the mask
// it was given: the block's patterns, then a sparser subset of them. A
// bit outside the mask fails the check as surely as a wrong one inside.
func checkChipWalk(t testing.TB, f *logicsim.Flat, ws *logicsim.WideSim, oracle *ref.Simulator, gp *logicsim.GoodPlanes, blocks []logicsim.PatternBlock, chip []logicsim.Injection) {
	t.Helper()
	faults, err := f.ResolveInjections(chip)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for bi, block := range blocks {
		good, err := oracle.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		good = append([]uint64(nil), good...)
		bad, err := oracle.RunWithFaults(block, chip)
		if err != nil {
			t.Fatal(err)
		}
		m := blockMask(block)
		for _, mask := range []uint64{m, m & (0xF0F0F0F0F0F0F0F0 >> uint(bi%4))} {
			if got, err = ws.RunChipBlock(gp.Block(bi), mask, faults, got); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(good) {
				t.Fatalf("block %d: %d output words, want %d", bi, len(got), len(good))
			}
			for o := range good {
				if want := (good[o] ^ bad[o]) & mask; got[o] != want {
					t.Fatalf("chip %v block %d mask %016x output %d: chip walk %016x, oracle %016x", chip, bi, mask, o, got[o], want)
				}
			}
		}
	}
}

// TestChipWalkSingleFaultsMatchOracle pins the walk fault simulation
// grades on: every single stuck-at fault — each gate, each pin and the
// stem, both polarities — walked alone over a partial block must flip
// exactly the outputs, on exactly the valid patterns, that the
// pointer-walking oracle's single-fault run flips.
func TestChipWalkSingleFaultsMatchOracle(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.C17()}
	adder, err := netlist.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, adder)
	for seed := int64(4); seed <= 5; seed++ {
		c, err := netlist.RandomCircuit("r", 8, 80, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		sim, err := ref.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		f, err := logicsim.NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		block := randomBlock(t, c, 1+len(c.Gates)%63, int64(len(c.Gates)))
		good, err := sim.Run(block)
		if err != nil {
			t.Fatal(err)
		}
		good = append([]uint64(nil), good...)
		fs := logicsim.NewFlatSim(f)
		if _, err := fs.RunInto(block, nil); err != nil {
			t.Fatal(err)
		}
		ws, err := logicsim.NewWideSim(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for gate, g := range c.Gates {
			for pin := -1; pin < len(g.Fanin); pin++ {
				for _, stuck := range []bool{false, true} {
					bad, err := sim.RunWithFault(block, gate, pin, stuck)
					if err != nil {
						t.Fatal(err)
					}
					one, err := f.ResolveInjections([]logicsim.Injection{{Gate: gate, Pin: pin, Stuck: stuck}})
					if err != nil {
						t.Fatal(err)
					}
					if got, err = ws.RunChipBlock(fs.Plane(), block.Mask(), one, got); err != nil {
						t.Fatal(err)
					}
					for o := range bad {
						if want := (bad[o] ^ good[o]) & block.Mask(); got[o] != want {
							t.Fatalf("%s gate %d pin %d stuck %v output %d: walk %016x, oracle %016x",
								c.Name, gate, pin, stuck, o, got[o], want)
						}
					}
				}
			}
		}
	}
}

// TestChipWalkMatchesOracle pins the pattern-parallel walk to the
// pointer-walking oracle on c17, c17 with one gate listed twice as an
// output (the walk's fallback output read), mul4, a circuit with wide
// gates and lsi1k, over 150 patterns (a partial last block): random
// chips of 1–5
// faults, the same site listed twice at both polarities (stem and pin),
// a stem and a pin fault on one gate, a stem fault on every primary
// input, and a fault-free chip.
func TestChipWalkMatchesOracle(t *testing.T) {
	mul4, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	lsi1k, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	dup := netlist.C17()
	dup.Name = "c17dup"
	dup.Outputs = append(dup.Outputs, dup.Outputs[1])
	rng := rand.New(rand.NewSource(1985))
	for _, c := range []*netlist.Circuit{netlist.C17(), dup, mul4, wideGateCircuit(t, 5, 9, 120), lsi1k} {
		t.Run(c.Name, func(t *testing.T) {
			f, err := logicsim.NewFlat(c)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := ref.NewSimulator(c)
			if err != nil {
				t.Fatal(err)
			}
			blocks := packBlocks(t, randomPatterns(c, 150, rng))
			gp, err := logicsim.NewGoodPlanes(f, blocks)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := logicsim.NewWideSim(f, 1)
			if err != nil {
				t.Fatal(err)
			}
			var gate int // a gate with fanin, for the pin cases
			for gate = len(c.Gates) - 1; len(c.Gates[gate].Fanin) == 0; gate-- {
			}
			chips := [][]logicsim.Injection{
				nil,
				{{Gate: gate, Pin: -1, Stuck: true}, {Gate: gate, Pin: -1, Stuck: false}},
				{{Gate: gate, Pin: 0, Stuck: false}, {Gate: gate, Pin: 0, Stuck: true}},
				{{Gate: gate, Pin: 0, Stuck: true}, {Gate: gate, Pin: -1, Stuck: false}},
				{{Gate: gate, Pin: -1, Stuck: true}, {Gate: gate, Pin: 0, Stuck: false}},
			}
			var inputs []logicsim.Injection
			for i, g := range c.Inputs {
				inputs = append(inputs, logicsim.Injection{Gate: g, Pin: -1, Stuck: i%2 == 0})
			}
			chips = append(chips, inputs)
			for i, chip := range randomMachines(c, 200, rng) {
				if i%4 == 0 { // list one site again at the other polarity
					again := chip[rng.Intn(len(chip))]
					again.Stuck = !again.Stuck
					chip = append(chip, again)
				}
				chips = append(chips, chip)
			}
			for _, chip := range chips {
				checkChipWalk(t, f, ws, oracle, gp, blocks, chip)
			}
		})
	}
}

// TestChipWalkZeroAllocs pins the chip walk to zero allocations once
// its output buffer is sized.
func TestChipWalkZeroAllocs(t *testing.T) {
	c := wideGateCircuit(t, 3, 10, 200)
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	blocks := packBlocks(t, randomPatterns(c, 200, rng))
	gp, err := logicsim.NewGoodPlanes(f, blocks)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := logicsim.NewWideSim(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := f.ResolveInjections(randomMachines(c, 1, rng)[0])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 0, len(c.Outputs))
	b := 0
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		out, err = ws.RunChipBlock(gp.Block(b%len(blocks)), ^uint64(0), faults, out)
		if err != nil {
			t.Fatal(err)
		}
		b++
	}); allocs != 0 {
		t.Errorf("RunChipBlock allocates %v per run, want 0", allocs)
	}
}

// TestChipWalkValidation pins the chip walk's shape checks.
func TestChipWalkValidation(t *testing.T) {
	c := netlist.C17()
	f, err := logicsim.NewFlat(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	gp, err := logicsim.NewGoodPlanes(f, packBlocks(t, randomPatterns(c, 70, rng)))
	if err != nil {
		t.Fatal(err)
	}
	other, err := logicsim.NewFlat(wideGateCircuit(t, 1, 5, 20))
	if err != nil {
		t.Fatal(err)
	}
	otherPlanes, err := logicsim.NewGoodPlanes(other, packBlocks(t, randomPatterns(other.Circuit(), 4, rng)))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := logicsim.NewWideSim(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws4, err := logicsim.NewWideSim(f, logicsim.MaxLaneWords)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"block past the planes":  func() error { _, err := ws.RunChipBlock(gp.Block(2), ^uint64(0), nil, nil); return err },
		"negative block":         func() error { _, err := ws.RunChipBlock(gp.Block(-1), ^uint64(0), nil, nil); return err },
		"4-word sim":             func() error { _, err := ws4.RunChipBlock(gp.Block(0), ^uint64(0), nil, nil); return err },
		"planes of another flat": func() error { _, err := ws.RunChipBlock(otherPlanes.Block(0), ^uint64(0), nil, nil); return err },
	} {
		if run() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := ws.RunChipBlock(gp.Block(1), ^uint64(0), nil, nil); err != nil {
		t.Errorf("partial last block rejected: %v", err)
	}
}

// FuzzChipWalk drives the chip walk with a fuzzer-chosen chip, in
// FuzzLaneWalk's byte encoding of forces (the lane byte is ignored: the
// chip is every force). The property is that RunChipBlock equals lane 1
// of RunLaneForced, with every force on lane 1, on every pattern of
// every block.
func FuzzChipWalk(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 1, 1})
	f.Add(int64(2), []byte{3, 0, 200, 0, 255, 9, 0, 1, 1, 64, 9, 0, 1, 0, 64})
	f.Add(int64(3), []byte{})
	f.Add(int64(4), []byte{5, 0, 0, 1, 1, 5, 0, 1, 0, 1, 5, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 5*64 {
			data = data[:5*64]
		}
		rng := rand.New(rand.NewSource(seed))
		c := wideGateCircuit(t, seed, 4+rng.Intn(6), 20+rng.Intn(60))
		fl, err := logicsim.NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		var chip []logicsim.Injection
		for ; len(data) >= 5; data = data[5:] {
			gate := (int(data[0]) | int(data[1])<<8) % len(c.Gates)
			pin := int(data[2])%(len(c.Gates[gate].Fanin)+1) - 1
			chip = append(chip, logicsim.Injection{Gate: gate, Pin: pin, Stuck: data[3]&1 == 1})
		}
		blocks := packBlocks(t, randomPatterns(c, 70, rng))
		gp, err := logicsim.NewGoodPlanes(fl, blocks)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := logicsim.NewWideSim(fl, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := logicsim.NewWideSim(fl, 1)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := logicsim.NewWideLaneForces(fl, 1)
		if err != nil {
			t.Fatal(err)
		}
		forceMachine(t, fl, lf, chip, 1)
		faults, err := fl.ResolveInjections(chip)
		if err != nil {
			t.Fatal(err)
		}
		var lanes, got []uint64
		for bi, block := range blocks {
			if got, err = ws.RunChipBlock(gp.Block(bi), ^uint64(0), faults, got); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < block.Count; p++ {
				if lanes, err = dense.RunLaneForced(block, p, lf, lanes); err != nil {
					t.Fatal(err)
				}
				for o, w := range lanes {
					if want := (w ^ w>>1) & 1; got[o]>>uint(p)&1 != want {
						t.Fatalf("chip %v pattern %d output %d: chip walk %d, lane walk %d",
							chip, bi*64+p, o, got[o]>>uint(p)&1, want)
					}
				}
			}
		}
	})
}
