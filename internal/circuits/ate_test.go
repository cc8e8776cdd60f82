package circuits

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/tester"
)

// ateTestPrep prepares the small artifact the ATE pool tests share.
func ateTestPrep(t *testing.T) *Prepared {
	t.Helper()
	pr, err := PrepareSpec("mul4", Params{RandomPatterns: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// freshResult tests a lot on a tester.New ATE over the artifact's
// program: no pool, no first-detect table, no history.
func freshResult(t *testing.T, pr *Prepared, lot defect.Lot) tester.LotResult {
	t.Helper()
	ate, err := tester.New(pr.Circuit, pr.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ate.TestLotSteps(lot)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPreparedATEPool: goroutines drawing ATEs from one Prepared and
// handing them back get the first fails of a fresh tester.New ATE on
// every lot; the tester image is built once, by the first NewATE (not
// by Prepare or Store.Load), and every ATE shares it; the free list
// never holds more ATEs than were in use at once. Run under
// `make race`.
func TestPreparedATEPool(t *testing.T) {
	pr := ateTestPrep(t)
	store := testStore(t)
	if err := store.Save(pr); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(pr.Circuit, pr.Params)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Prepared{"prepared": pr, "loaded": loaded} {
		if p.prog.Load() != nil {
			t.Fatalf("%s artifact built its tester image before any NewATE", name)
		}
	}

	rng := rand.New(rand.NewSource(28))
	var lots []defect.Lot
	var want []tester.LotResult
	for _, n0 := range []float64{1.2, 3, 8} {
		lot, err := defect.GenerateLotFromModel(0.2, n0, pr.Universe, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		lots, want = append(lots, lot), append(want, freshResult(t, pr, lot))
	}

	const workers = 6
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[*tester.Program]bool{}
	)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i, lot := range lots {
					ate, err := pr.NewATE()
					if err != nil {
						errs[w] = err
						return
					}
					mu.Lock()
					seen[ate.Program()] = true
					mu.Unlock()
					got, err := ate.TestLotSteps(lot)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(want[i], got) {
						errs[w] = fmt.Errorf("worker %d rep %d lot %d: pooled ATE differs from a fresh one", w, rep, i)
						return
					}
					if err := pr.ReleaseATE(ate); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if prog := pr.prog.Load(); prog == nil || len(seen) != 1 || !seen[prog] {
		t.Errorf("ATEs over %d programs; want all on the Prepared's one image", len(seen))
	}
	if n := len(pr.idle); n == 0 || n > workers {
		t.Errorf("%d idle ATEs after %d workers released theirs; want 1..%d", n, workers, workers)
	}
}

// TestPooledATEChangesUniverse: a released ATE keeps its universe
// resolution and first-detect table, so one that then tests a lot over
// another universe, and afterwards over the Prepared's own again, must
// still give a fresh ATE's first fails each time.
func TestPooledATEChangesUniverse(t *testing.T) {
	pr := ateTestPrep(t)
	other := slices.Clone(pr.Universe)
	slices.Reverse(other)
	rng := rand.New(rand.NewSource(29))
	var ate *tester.ATE
	for i, universe := range [][]fault.Fault{pr.Universe, other, pr.Universe} {
		lot, err := defect.GenerateLotFromModel(0.2, 1.5, universe, 200, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.NewATE()
		if err != nil {
			t.Fatal(err)
		}
		if ate != nil && got != ate {
			t.Fatalf("lot %d: NewATE built a new ATE while a released one was idle", i)
		}
		ate = got
		res, err := ate.TestLotSteps(lot)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshResult(t, pr, lot); !reflect.DeepEqual(want, res) {
			t.Fatalf("lot %d: pooled ATE differs from a fresh one", i)
		}
		if err := pr.ReleaseATE(ate); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleaseATERefusesForeign: only an ATE this Prepared handed out,
// and only once, goes on its free list.
func TestReleaseATERefusesForeign(t *testing.T) {
	pr := ateTestPrep(t)
	twin := ateTestPrep(t)
	plain, err := tester.New(pr.Circuit, pr.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.ReleaseATE(plain); err == nil {
		t.Error("accepted an ATE before building any")
	}
	own, err := pr.NewATE()
	if err != nil {
		t.Fatal(err)
	}
	twins, err := twin.NewATE()
	if err != nil {
		t.Fatal(err)
	}
	for name, ate := range map[string]*tester.ATE{"tester.New": plain, "another Prepared's": twins, "nil": nil} {
		if err := pr.ReleaseATE(ate); err == nil {
			t.Errorf("accepted a %s ATE", name)
		}
	}
	if err := pr.ReleaseATE(own); err != nil {
		t.Fatal(err)
	}
	if err := pr.ReleaseATE(own); err == nil {
		t.Error("accepted an ATE released twice")
	}
	if len(pr.idle) != 1 {
		t.Errorf("%d idle ATEs, want 1", len(pr.idle))
	}
}
