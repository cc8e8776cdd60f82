package tester

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/defect"
	"repro/internal/fault"
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
	inj := a.injectionsFor(universe)
	// Warm the per-width scratch so pp256Build can be driven directly.
	if _, err := a.chipParallel256FirstFail(lot, inj, false); err != nil {
		t.Fatal(err)
	}
	_, lf, err := a.pp256.at(1)
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
// first patterns — and pins the compacted engine to the per-chip oracle
// at both granularities.
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
	for _, steps := range []bool{false, true} {
		want, err := serial.testLot(lot, steps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wide.testLot(lot, steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("steps=%v: compacted engine disagrees with the oracle", steps)
		}
	}
}

// TestPP256BatchZeroAllocs pins the compacted batch step — the
// chipparallel256 inner loop, including the width ladder — to zero
// allocations once the per-width scratch and the good planes are warm,
// on both sides of the density rule: a full batch takes the linear
// forced walk, a batch of a few chips the divergence walk.
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
	inj := a.injectionsFor(universe)
	// One full run warms every width's walk state, the good planes and
	// the high-water marks of the output and survivor buffers.
	ff, err := a.chipParallel256FirstFail(lot, inj, false)
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
		t.Fatal("no chip small enough for a divergence-walk batch")
	}
	for _, tc := range []struct {
		name  string
		batch []ppItem
		walks *int // the counter of the walk the batch must take
		never *int // a walk it must never take, if any
	}{
		// A full batch may turn sparse once pruned, so it may take both.
		{"forced walk", dense, &st.denseWalks, nil},
		{"divergence walk", sparse, &st.sparseWalks, &st.denseWalks},
	} {
		scratch := make([]ppItem, len(tc.batch))
		next := make([]ppItem, 0, len(tc.batch))
		walks, never := *tc.walks, 0
		if tc.never != nil {
			never = *tc.never
		}
		if allocs := testing.AllocsPerRun(20, func() {
			copy(scratch, tc.batch) // the batch is compacted in place; re-seed it
			var err error
			next, err = a.pp256Batch(scratch, 0, len(patterns), false, ff, next[:0])
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: pp256Batch allocates %v per run, want 0", tc.name, allocs)
		}
		if *tc.walks == walks {
			t.Errorf("%s: the batch never took it", tc.name)
		}
		if tc.never != nil && *tc.never != never {
			t.Errorf("%s: a sparse batch took the forced walk", tc.name)
		}
	}
}

// BenchmarkChipParallelDeep times the chipparallel256 lot engine on the
// long-survivor path: a 500-chip lot at n0 1.5 on a 2000-gate LSIChip
// under 256 random patterns, where a large share of the defective chips
// survive every strobe and the divergence walk carries most batches.
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
