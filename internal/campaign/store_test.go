package campaign

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomSummary fabricates a plausible replicate record.
func randomSummary(rng *rand.Rand, cuts int) Summary {
	s := Summary{
		Passed:      make([]int, cuts),
		Escapes:     make([]int, cuts),
		TestedYield: rng.Float64(),
		LotYield:    rng.Float64(),
		TrueN0:      rng.ExpFloat64() * 4,
	}
	for j := 0; j < cuts; j++ {
		s.Passed[j] = rng.Intn(50) // occasionally zero: the no-ship path
		s.Escapes[j] = rng.Intn(s.Passed[j] + 1)
	}
	if rng.Float64() < 0.8 {
		s.FitOK = true
		s.FitN0 = rng.ExpFloat64() * 4
	}
	return s
}

// serialStore folds summaries 0..T-1 in order — the oracle.
func serialStore(t testing.TB, layout Layout, cuts int, sums []Summary) *Store {
	t.Helper()
	st, err := NewStore(layout, cuts)
	if err != nil {
		t.Fatal(err)
	}
	for task, s := range sums {
		if _, _, err := st.Add(task, s); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestStoreOrderIndependence(t *testing.T) {
	// Feeding the same summaries in any permutation folds to the exact
	// same state: out-of-order arrivals buffer until their turn.
	rng := rand.New(rand.NewSource(41))
	layout := Layout{Cells: 4, Replicates: 5}
	const cuts = 3
	sums := make([]Summary, layout.Tasks())
	for i := range sums {
		sums[i] = randomSummary(rng, cuts)
	}
	want := serialStore(t, layout, cuts, sums).Snapshot()
	for trial := 0; trial < 20; trial++ {
		st, err := NewStore(layout, cuts)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range rng.Perm(layout.Tasks()) {
			if _, _, err := st.Add(task, sums[task]); err != nil {
				t.Fatal(err)
			}
		}
		if !st.Complete() {
			t.Fatal("store incomplete after all tasks")
		}
		if got := st.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted fold differs from serial fold", trial)
		}
	}
}

func TestStoreWatermarkAndCallbacks(t *testing.T) {
	layout := Layout{Cells: 2, Replicates: 3}
	st, err := NewStore(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	var events []int // done values per advance of cell 0
	st.OnAdvance = func(cell int, snap CellSnapshot) {
		if cell == 0 {
			events = append(events, snap.Done)
		}
	}
	rng := rand.New(rand.NewSource(5))
	s := func() Summary { return randomSummary(rng, 1) }
	// Cell 0: feed rep 2, then 0 (folds 0), then 1 (folds 1 and 2).
	if _, done, err := st.Add(2, s()); err != nil || done != 0 {
		t.Fatalf("rep 2 first: done=%d err=%v", done, err)
	}
	if _, done, err := st.Add(0, s()); err != nil || done != 1 {
		t.Fatalf("rep 0: done=%d err=%v", done, err)
	}
	if _, done, err := st.Add(1, s()); err != nil || done != 3 {
		t.Fatalf("rep 1: done=%d err=%v", done, err)
	}
	// Watermarks advanced monotonically, one callback per advance.
	if !reflect.DeepEqual(events, []int{1, 3}) {
		t.Fatalf("advance events = %v", events)
	}
	if st.Done(0) != 3 || st.Done(1) != 0 {
		t.Fatalf("watermarks %d/%d", st.Done(0), st.Done(1))
	}
	if st.TasksFolded() != 3 || st.Complete() {
		t.Fatalf("folded=%d complete=%v", st.TasksFolded(), st.Complete())
	}
}

func TestStoreRejectsDuplicatesAndBadShapes(t *testing.T) {
	layout := Layout{Cells: 1, Replicates: 3}
	st, err := NewStore(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	if _, _, err := st.Add(0, randomSummary(rng, 2)); err != nil {
		t.Fatal(err)
	}
	// Already folded.
	if _, _, err := st.Add(0, randomSummary(rng, 2)); err == nil {
		t.Error("re-adding a folded task accepted")
	}
	// Already buffered.
	if _, _, err := st.Add(2, randomSummary(rng, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Add(2, randomSummary(rng, 2)); err == nil {
		t.Error("re-adding a buffered task accepted")
	}
	// Out of range and wrong cut count.
	if _, _, err := st.Add(3, randomSummary(rng, 2)); err == nil {
		t.Error("out-of-range task accepted")
	}
	if _, _, err := st.Add(1, randomSummary(rng, 5)); err == nil {
		t.Error("wrong-shape summary accepted")
	}
}

func TestStoreSnapshotRestoreResume(t *testing.T) {
	// Fold a prefix, snapshot, restore into a fresh store, fold the
	// rest into both — states must stay bit-identical throughout.
	rng := rand.New(rand.NewSource(17))
	layout := Layout{Cells: 3, Replicates: 4}
	const cuts = 2
	sums := make([]Summary, layout.Tasks())
	for i := range sums {
		sums[i] = randomSummary(rng, cuts)
	}
	full := serialStore(t, layout, cuts, sums)
	for stop := 1; stop < layout.Tasks(); stop++ {
		partial := serialStore(t, layout, cuts, sums[:stop])
		resumed, err := NewStore(layout, cuts)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(partial.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for task := stop; task < layout.Tasks(); task++ {
			if _, _, err := resumed.Add(task, sums[task]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(resumed.Snapshot(), full.Snapshot()) {
			t.Fatalf("resume from task %d diverged from uninterrupted fold", stop)
		}
	}
	// Restore rejects wrong shapes.
	if err := full.Restore(full.Snapshot()[:2]); err == nil {
		t.Error("short snapshot accepted")
	}
	bad := full.Snapshot()
	bad[0].Done = layout.Replicates + 1
	if err := full.Restore(bad); err == nil {
		t.Error("over-watermark snapshot accepted")
	}
	bad = full.Snapshot()
	bad[1].Rej = bad[1].Rej[:1]
	if err := full.Restore(bad); err == nil {
		t.Error("wrong-cut snapshot accepted")
	}
}
