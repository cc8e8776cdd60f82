package tester

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/defect"
)

// TestPP256BuildRejectsOverfullBatch is the compaction guard: a batch
// whose lanes do not fit the forcing table's width must be rejected
// with the named ErrBatchLanes instead of a lane-range error deep in
// the walk — the invariant a re-packed batch relies on.
func TestPP256BuildRejectsOverfullBatch(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := NewEngine(c, patterns, ChipParallel256)
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
// first patterns — and pins the compacted engine to the serial oracle
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
	serial, err := NewEngine(c, patterns, Serial)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewEngine(c, patterns, ChipParallel256)
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []bool{false, true} {
		run := (*ATE).TestLot
		if steps {
			run = (*ATE).TestLotSteps
		}
		want, err := run(serial, lot)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(wide, lot)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("steps=%v: compacted engine disagrees with serial", steps)
		}
	}
}

// TestPP256BatchZeroAllocs pins the compacted batch step — the
// chipparallel256 inner loop, including the width ladder — to zero
// allocations once the per-width scratch is warm.
func TestPP256BatchZeroAllocs(t *testing.T) {
	c, universe, patterns := setup(t)
	a, err := NewEngine(c, patterns, ChipParallel256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	lot, err := defect.GenerateLotFromModel(0.05, 5, universe, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	inj := a.injectionsFor(universe)
	// One full run warms every width's walk state and the high-water
	// marks of the output and survivor buffers.
	ff, err := a.chipParallel256FirstFail(lot, inj, false)
	if err != nil {
		t.Fatal(err)
	}
	var batch []ppItem
	for i, chip := range lot.Chips {
		if chip.Defective() {
			batch = append(batch, ppItem{chip: i, key: chip.Faults[0]})
		}
		if len(batch) == pp256Lanes {
			break
		}
	}
	if len(batch) < 130 {
		t.Fatalf("only %d defective chips; want enough to start multi-word", len(batch))
	}
	scratch := make([]ppItem, len(batch))
	next := make([]ppItem, 0, len(batch))
	if allocs := testing.AllocsPerRun(20, func() {
		copy(scratch, batch) // the batch is compacted in place; re-seed it
		var err error
		next, err = a.pp256Batch(scratch, 0, len(patterns), false, ff, next[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("pp256Batch allocates %v per run, want 0", allocs)
	}
}
