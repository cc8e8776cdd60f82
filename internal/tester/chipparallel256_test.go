package tester

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// TestPP256BuildRejectsOverfullBatch is the compaction guard: a batch
// whose lanes do not fit the forcing table's width must be rejected
// with the named ErrBatchLanes instead of a lane-range error deep in
// the walk — the invariant a re-packed batch relies on.
func TestPP256BuildRejectsOverfullBatch(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	lot := defect.Lot{
		Universe: universe,
		Chips:    []defect.Chip{{Faults: []int{0}}},
	}
	// Warm the per-width scratch so pp256Build can be driven directly.
	if _, err := a.chipParallel256FirstFail(lot); err != nil {
		t.Fatal(err)
	}
	lf, err := a.pp256.forcesAt(1)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]ppItem, 64) // 64 chips + good machine > 64 lanes
	alive := make([]uint64, 1)
	if err := a.pp256Build(batch, lf, alive); !errors.Is(err, ErrBatchLanes) {
		t.Errorf("overfull batch error %v, want ErrBatchLanes", err)
	}
	if err := a.pp256Build(batch[:63], lf, alive); err != nil {
		t.Errorf("full batch rejected: %v", err)
	}
}

// TestLaneWordsFor pins the batch width rule: a batch whose chips and
// good machine fit in 64 lanes walks one word, a larger one the 4-word
// block — never a width in between.
func TestLaneWordsFor(t *testing.T) {
	for _, tc := range []struct{ chips, words int }{
		{0, 1}, {1, 1}, {63, 1},
		{64, 4}, {65, 4}, {127, 4}, {128, 4}, {191, 4}, {192, 4}, {255, 4},
	} {
		if got := laneWordsFor(tc.chips); got != tc.words {
			t.Errorf("laneWordsFor(%d) = %d, want %d", tc.chips, got, tc.words)
		}
	}
}

// TestPP256CompactionMatchesSerial forces the dead-lane compaction path
// hard — a shallow, wide-fanout circuit where most chips die within the
// first patterns — and pins the compacted engine to the per-chip oracle.
func TestPP256CompactionMatchesSerial(t *testing.T) {
	c, universe, patterns := setup(t)
	rng := rand.New(rand.NewSource(256))
	// Very low yield: full 255-chip batches that thin out fast,
	// compacting 4→1 words repeatedly across the chunk schedule.
	lot, err := defect.GenerateLotFromModel(0.02, 6, universe, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wide.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.agrees(lot, got); err != nil {
		t.Fatalf("compacted engine: %v", err)
	}
}

// TestPP256BatchZeroAllocs pins the compacted batch step — the
// chipparallel256 inner loop, including the width ladder — to zero
// allocations once the per-width scratch and the good planes are warm,
// on both walks: a full batch takes the linear forced walk and, once
// pruned, hands its survivors to the chip walk; a batch of a few chips
// is sparse from its first build and takes the chip walk alone.
func TestPP256BatchZeroAllocs(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	lot, err := defect.GenerateLotFromModel(0.05, 5, universe, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	// One full run warms every width's walk state and the high-water
	// marks of the output and survivor buffers.
	ff, err := a.chipParallel256FirstFail(lot)
	if err != nil {
		t.Fatal(err)
	}
	st := a.pp256
	logic := st.flat.Slots() - st.flat.NumInputs()
	var dense, sparse []ppItem
	forced := 0
	for i, chip := range lot.Chips {
		if !chip.Defective() {
			continue
		}
		it := ppItem{chip: i, key: chip.Faults[0]}
		if len(dense) < pp256Lanes {
			dense = append(dense, it)
		}
		// A chip forces at most one slot per fault.
		if (forced+len(chip.Faults))*4 < logic {
			sparse = append(sparse, it)
			forced += len(chip.Faults)
		}
	}
	if len(dense) < 130 {
		t.Fatalf("only %d defective chips; want enough to start multi-word", len(dense))
	}
	if len(sparse) == 0 {
		t.Fatal("no chip small enough for a sparse batch")
	}
	walks := map[string]*int{"forced": &st.denseWalks, "chip": &st.chipWalks}
	for _, tc := range []struct {
		name  string
		batch []ppItem
		took  []string // the walks the batch must take; it takes no other
	}{
		// A full batch is dense at its first build; once pruned, it
		// turns sparse and finishes on the chip walk.
		{"full batch", dense, []string{"forced", "chip"}},
		{"sparse batch", sparse, []string{"chip"}},
	} {
		scratch := make([]ppItem, len(tc.batch))
		next := make([]ppItem, 0, len(tc.batch))
		before := make(map[string]int, len(walks))
		for name, n := range walks {
			before[name] = *n
		}
		if allocs := testing.AllocsPerRun(20, func() {
			copy(scratch, tc.batch) // the batch is compacted in place; re-seed it
			var err error
			next, err = a.pp256Batch(scratch, 0, len(patterns), ff, next[:0])
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: pp256Batch allocates %v per run, want 0", tc.name, allocs)
		}
		for name, n := range walks {
			if took := *n != before[name]; took != slices.Contains(tc.took, name) {
				t.Errorf("%s: took the %s walk: %v, want %v", tc.name, name, took, !took)
			}
		}
	}
}

// TestPP256ChipWalkMidBlock starts a fresh sparse batch mid-block, as
// every round after the first does (the chunk schedule puts round
// bases at 8, 24, 56, 120, ...), on a program whose last block is
// partial. Each chip must take the chip walk to the end of the program
// and report its first fail at or after base, which the oracle gives
// by testing the same chips on the program with its first base
// patterns cut off — a different block alignment altogether.
func TestPP256ChipWalkMidBlock(t *testing.T) {
	c, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 27)
	if err != nil {
		t.Fatal(err)
	}
	const base = 20 // block 0, bit 20
	patterns := atpg.Take(src, 200)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := newOracle(c, patterns[base:])
	if err != nil {
		t.Fatal(err)
	}
	full, err := newOracle(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	lot, err := defect.GenerateLotFromModel(0.1, 3, universe, 300, rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	// One full run flattens the lot's fault lists.
	if _, err := a.chipParallel256FirstFail(lot); err != nil {
		t.Fatal(err)
	}
	st := a.pp256
	logic := st.flat.Slots() - st.flat.NumInputs()
	var batch []ppItem
	forced := 0
	for i, chip := range lot.Chips {
		if chip.Defective() && (forced+len(chip.Faults))*4 < logic {
			batch = append(batch, ppItem{chip: i, key: chip.Faults[0]})
			forced += len(chip.Faults)
		}
	}
	ff := make([]int, len(lot.Chips))
	for i := range ff {
		ff[i] = NeverFails
	}
	dense, chip := st.denseWalks, st.chipWalks
	next, err := a.pp256Batch(slices.Clone(batch), base, base+8, ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 0 || st.denseWalks != dense || st.chipWalks == chip {
		t.Fatalf("sparse batch: %d survivors, %d forced and %d chip walks; want the chip walk alone",
			len(next), st.denseWalks-dense, st.chipWalks-chip)
	}
	nOut := len(c.Outputs)
	var early, late, never int
	for _, it := range batch {
		want, err := tail.TestChipSteps(lot.Chips[it.chip], inj)
		if err != nil {
			t.Fatal(err)
		}
		if want != NeverFails {
			want += base * nOut
		}
		if ff[it.chip] != want {
			t.Fatalf("chip %d: first fail %d from base %d, oracle %d", it.chip, ff[it.chip], base, want)
		}
		first, err := full.TestChipSteps(lot.Chips[it.chip], inj)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case first != NeverFails && first < base*nOut:
			early++
		case want == NeverFails:
			never++
		default:
			late++
		}
	}
	// The masks must matter: some chips fail before base (their bits of
	// the first block are masked off), some after, some never.
	if early == 0 || late == 0 || never == 0 {
		t.Errorf("batch of %d chips: %d fail before base, %d after, %d never; want each", len(batch), early, late, never)
	}
}

// TestPP256RebuildHandsOffToChipWalk drives both table rebuilds of a
// dense batch — a same-width prune of a 1-word batch and a 4→1-word
// compaction — into a sparse table, from a mid-block base on a program
// whose last block is partial. Each batch mixes many-fault chips that
// the program's tail detects within its first patterns (which make the
// first build dense) with few-fault chips that outlive them (whose
// rebuilt table is sparse), interleaved so the survivors sit on
// scattered lanes. The survivors must finish on the chip walk: nothing
// goes on to the next round, every first fail is the per-chip oracle's,
// and the step allocates nothing once warm.
func TestPP256RebuildHandsOffToChipWalk(t *testing.T) {
	c, err := netlist.LSIChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 27)
	if err != nil {
		t.Fatal(err)
	}
	const base = 20 // block 0, bit 20
	patterns := atpg.Take(src, 200)
	a, err := New(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := newOracle(c, patterns[base:])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	many, err := defect.GenerateLotFromModel(0.01, 8.8, universe, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	few, err := defect.GenerateLotFromModel(0.1, 1.5, universe, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	nOut := len(c.Outputs)
	// want holds each chip's first fail from base, by the oracle over
	// the program's tail.
	lot := defect.Lot{Universe: universe}
	var want []int
	var early, late []ppItem
	for _, chip := range append(many.Chips, few.Chips...) {
		if len(chip.Faults) == 0 {
			continue
		}
		ff, err := tail.TestChipSteps(chip, inj)
		if err != nil {
			t.Fatal(err)
		}
		it := ppItem{chip: len(lot.Chips), key: chip.Faults[0]}
		switch {
		case len(chip.Faults) >= 6 && ff != NeverFails && ff < 4*nOut:
			early = append(early, it)
		case len(chip.Faults) <= 2 && (ff == NeverFails || ff >= 8*nOut):
			late = append(late, it)
		default:
			continue
		}
		if ff != NeverFails {
			ff += base * nOut
		}
		lot.Chips = append(lot.Chips, chip)
		want = append(want, ff)
	}
	// One full run flattens the lot's fault lists.
	if _, err := a.chipParallel256FirstFail(lot); err != nil {
		t.Fatal(err)
	}
	st := a.pp256
	for _, tc := range []struct {
		name           string
		early, late    int
		words, rebuilt int // the batch's first width, and its width at the rebuild
	}{
		{"prune", 45, 10, 1, 1},
		{"compaction", 100, 30, pp256Words, 1},
	} {
		if len(early) < tc.early || len(late) < tc.late {
			t.Fatalf("%s: %d early and %d late chips, want %d and %d", tc.name, len(early), len(late), tc.early, tc.late)
		}
		// Interleave: one late chip after every few early ones.
		var batch []ppItem
		e := early[:tc.early]
		for _, it := range late[:tc.late] {
			k := min(len(e), tc.early/tc.late)
			batch = append(append(batch, e[:k]...), it)
			e = e[k:]
		}
		batch = append(batch, e...)
		if laneWordsFor(len(batch)) != tc.words {
			t.Fatalf("%s: %d chips start at %d words, want %d", tc.name, len(batch), laneWordsFor(len(batch)), tc.words)
		}
		// The first build must be dense and the survivors' rebuild sparse.
		for _, check := range []struct {
			chips  []ppItem
			words  int
			sparse bool
		}{{batch, tc.words, false}, {late[:tc.late], tc.rebuilt, true}} {
			lf, err := st.forcesAt(check.words)
			if err != nil {
				t.Fatal(err)
			}
			alive := make([]uint64, check.words)
			for lane := 1; lane <= len(check.chips); lane++ {
				alive[lane>>6] |= 1 << uint(lane&63)
			}
			if err := a.pp256Build(check.chips, lf, alive); err != nil {
				t.Fatal(err)
			}
			if st.sparse(lf) != check.sparse {
				t.Fatalf("%s: table of %d chips forces %d slots, sparse %v; want %v",
					tc.name, len(check.chips), lf.ForcedSlots(), !check.sparse, check.sparse)
			}
		}
		ff := make([]int, len(lot.Chips))
		for i := range ff {
			ff[i] = NeverFails
		}
		scratch := make([]ppItem, len(batch))
		next := make([]ppItem, 0, len(batch))
		dense, chip := st.denseWalks, st.chipWalks
		// Drop the output buffer the earlier runs sized: the warm-up run
		// of AllocsPerRun must size it for both walks, or every run
		// regrows it.
		st.out = nil
		if allocs := testing.AllocsPerRun(10, func() {
			copy(scratch, batch) // the batch is compacted in place; re-seed it
			var err error
			next, err = a.pp256Batch(scratch, base, base+8, ff, next[:0])
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: pp256Batch allocates %v per run, want 0", tc.name, allocs)
		}
		if len(next) != 0 || st.denseWalks == dense || st.chipWalks == chip {
			t.Fatalf("%s: %d survivors, %d forced and %d chip walks; want none, and both walks",
				tc.name, len(next), st.denseWalks-dense, st.chipWalks-chip)
		}
		fails := 0
		for _, it := range batch {
			if ff[it.chip] != want[it.chip] {
				t.Fatalf("%s: chip %d: first fail %d from base %d, oracle %d", tc.name, it.chip, ff[it.chip], base, want[it.chip])
			}
			if ff[it.chip] >= (base+8)*nOut {
				fails++
			}
		}
		// Some survivors must fail on the chip walk, past the chunk.
		if fails == 0 {
			t.Errorf("%s: no chip fails past the chunk", tc.name)
		}
	}
}

// TestPP256ChipWalkIgnoresPadding tests, on a 3-pattern program,
// every one-fault chip that the program misses but the all-zero input
// vector detects. The chip walk's last block carries that vector in
// its 61 padding lanes, so each such chip must still pass.
func TestPP256ChipWalkIgnoresPadding(t *testing.T) {
	c, universe, patterns := setup(t)
	program := patterns[:3]
	for _, p := range program {
		if !slices.Contains(p, true) {
			t.Fatal("the program holds the all-zero vector")
		}
	}
	a, err := New(c, program)
	if err != nil {
		t.Fatal(err)
	}
	full, err := newOracle(c, program)
	if err != nil {
		t.Fatal(err)
	}
	pad, err := newOracle(c, []logicsim.Pattern{make(logicsim.Pattern, len(c.Inputs))})
	if err != nil {
		t.Fatal(err)
	}
	inj := injections(universe)
	chipWalks := func() int { return a.pp256.chipWalks }
	tested := 0
	for fi := range universe {
		chip := defect.Chip{Faults: []int{fi}}
		byProgram, err := full.TestChipSteps(chip, inj)
		if err != nil {
			t.Fatal(err)
		}
		byPad, err := pad.TestChipSteps(chip, inj)
		if err != nil {
			t.Fatal(err)
		}
		if byProgram != NeverFails || byPad == NeverFails {
			continue
		}
		walks := chipWalks()
		got, err := a.TestLotSteps(defect.Lot{Universe: universe, Chips: []defect.Chip{chip}})
		if err != nil {
			t.Fatal(err)
		}
		if got.FirstFail[0] != NeverFails || chipWalks() == walks {
			t.Fatalf("fault %d: first fail %d after %d chip walks; want a pass on the chip walk",
				fi, got.FirstFail[0], chipWalks()-walks)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no fault detected by the padding vector alone")
	}
}

// BenchmarkChipParallelDeep times the chipparallel256 lot engine on the
// long-survivor path: a 500-chip lot at n0 1.5 on a 2000-gate LSIChip
// under 256 random patterns, where a large share of the defective chips
// survive every strobe and the chip walk carries most batches.
// BenchmarkLotEngines (mul8/cmp16) never reaches this path: its chips
// die within the first few patterns.
func BenchmarkChipParallelDeep(b *testing.B) {
	const chips = 500
	c, err := netlist.LSIChip(2000)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	src, err := atpg.NewRandomSource(len(c.Inputs), 1981)
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(c, atpg.Take(src, 256))
	if err != nil {
		b.Fatal(err)
	}
	lot, err := defect.GenerateLotFromModel(0.07, 1.5, universe, chips, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up outside the timer: flat form, good planes, universe cache.
	if _, err := a.TestLotSteps(lot); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.TestLotSteps(lot); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chips*b.N)/b.Elapsed().Seconds(), "chips/s")
}
