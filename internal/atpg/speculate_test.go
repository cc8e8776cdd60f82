package atpg

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// cleanupReference is the serial PODEM-and-drop loop the speculative
// CleanupTestsBudget replaced, kept as its test oracle: one generator,
// each fault still undetected targeted in fault-list order, its test
// appended and drop-simulated before the next fault is looked at.
func cleanupReference(c *netlist.Circuit, base []logicsim.Pattern, reps []fault.Fault, backtrackLimit int) ([]logicsim.Pattern, Tally, error) {
	patterns := base
	tally := Tally{Faults: len(reps)}
	detected := make([]bool, len(reps))
	if len(patterns) > 0 && len(reps) > 0 {
		res, err := faultsim.Run(c, reps, patterns, faultsim.PPSFP)
		if err != nil {
			return nil, Tally{}, err
		}
		for fi, d := range res.FirstDetect {
			detected[fi] = d != faultsim.NotDetected
		}
	}
	gen, err := NewPodem(c)
	if err != nil {
		return nil, Tally{}, err
	}
	gen.BacktrackLimit = backtrackLimit
	aborted := make([]bool, len(reps))
	for fi, f := range reps {
		if detected[fi] {
			continue
		}
		pattern, status := gen.Generate(f)
		if status != Detected {
			switch status {
			case Untestable:
				tally.Untestable++
			case Aborted:
				aborted[fi] = true
			}
			continue
		}
		patterns = append(patterns, pattern)
		var remaining []fault.Fault
		var idx []int
		for ri := range reps {
			if !detected[ri] {
				remaining = append(remaining, reps[ri])
				idx = append(idx, ri)
			}
		}
		one, err := faultsim.Run(c, remaining, []logicsim.Pattern{pattern}, faultsim.PPSFP)
		if err != nil {
			return nil, Tally{}, err
		}
		for ri, d := range one.FirstDetect {
			if d != faultsim.NotDetected {
				detected[idx[ri]] = true
			}
		}
		if !detected[fi] {
			return nil, Tally{}, fmt.Errorf("PODEM test for %v not confirmed by fault simulation", f.Name(c))
		}
	}
	for fi, d := range detected {
		switch {
		case d:
			tally.Detected++
		case aborted[fi]:
			tally.Aborted++
		}
	}
	return patterns, tally, nil
}

// specWidths are the speculation widths every equivalence case runs at.
var specWidths = []int{1, 2, 3, 8}

// compareCleanup runs the speculative loop at every width against the
// serial reference and requires identical patterns and tally, and a
// graded result equal to one fresh fault simulation of the reference
// program. It returns the speculative results discarded over all
// widths.
func compareCleanup(t *testing.T, c *netlist.Circuit, base []logicsim.Pattern, reps []fault.Fault, limit int) int {
	t.Helper()
	want, wantTally, err := cleanupReference(c, base, reps, limit)
	if err != nil {
		t.Fatal(err)
	}
	wantRes := faultsim.Result{FirstDetect: slices.Repeat([]int{faultsim.NotDetected}, len(reps))}
	if len(want) > 0 {
		if wantRes, err = faultsim.Run(c, reps, want, faultsim.PPSFP); err != nil {
			t.Fatal(err)
		}
	}
	discarded := 0
	for _, width := range specWidths {
		got, tally, res, n, err := cleanup(c, base, reps, limit, faultsim.Options{}, width)
		if err != nil {
			t.Fatalf("%s width %d: %v", c.Name, width, err)
		}
		if tally != wantTally {
			t.Errorf("%s width %d: tally %+v, serial %+v", c.Name, width, tally, wantTally)
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s width %d: %d patterns differ from the serial loop's %d", c.Name, width, len(got), len(want))
		}
		if res.Patterns != wantRes.Patterns || !slices.Equal(res.FirstDetect, wantRes.FirstDetect) {
			t.Errorf("%s width %d: graded result differs from a fresh run over the program", c.Name, width)
		}
		discarded += n
	}
	return discarded
}

// TestCleanupMatchesReference pins the speculative PODEM loop to the
// serial one at widths 1, 2, 3 and 8: GenerateAll's runs on c17 and
// mul8 (heavy dropping, so speculative results get thrown away), a
// production program on random circuits, and a 150-fault lsi1k sample
// at budget 50, where PODEM aborts. At least one case must actually
// discard a speculative result, or the drop path went untested.
func TestCleanupMatchesReference(t *testing.T) {
	discarded := 0
	mul8, err := netlist.ArrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*netlist.Circuit{netlist.C17(), mul8} {
		discarded += compareCleanup(t, c, nil, fault.Reps(fault.BuildUniverse(c).Collapsed), 0)
	}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit(fmt.Sprintf("rand%d", seed), 12, 160, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ProductionPatterns(len(c.Inputs), 8, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
		discarded += compareCleanup(t, c, base, reps, 0)
		discarded += compareCleanup(t, c, nil, reps, 1)
	}
	t.Logf("%d speculative results discarded", discarded)
	if discarded == 0 {
		t.Error("no case discarded a speculative result")
	}
	t.Run("lsi1k", func(t *testing.T) {
		if testing.Short() {
			t.Skip("lsi1k sample skipped in -short mode")
		}
		c, sample := lsi1k(t, 150)
		compareCleanup(t, c, nil, sample, 50)
	})
}

// TestGeneratePure: Generate is a pure function of the circuit, the
// fault and the budget, which is what lets any worker compute any
// target. One reused generator over a shuffled fault order must return
// what a fresh generator per fault returns.
func TestGeneratePure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range podemCircuits(t) {
		reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
		order := rng.Perm(len(reps))
		for _, limit := range []int{1, 0} {
			reused, err := NewPodem(c)
			if err != nil {
				t.Fatal(err)
			}
			reused.BacktrackLimit = limit
			for _, fi := range order {
				fresh, err := NewPodem(c)
				if err != nil {
					t.Fatal(err)
				}
				fresh.BacktrackLimit = limit
				got, gs := reused.Generate(reps[fi])
				want, ws := fresh.Generate(reps[fi])
				if gs != ws || !slices.Equal(got, want) {
					t.Fatalf("%s %s budget %d: reused generator (%v, %v), fresh (%v, %v)",
						c.Name, reps[fi].Name(c), limit, gs, got, ws, want)
				}
			}
		}
	}
}

// TestCleanupJoinsWorkers: every PODEM worker has exited once
// CleanupTestsBudget returns, on success and on an error (a negative
// shard count, which the grading session rejects before any worker
// starts).
func TestCleanupJoinsWorkers(t *testing.T) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
	for _, tc := range []struct {
		name    string
		opt     faultsim.Options
		wantErr bool
	}{
		{"success", faultsim.Options{}, false},
		{"error", faultsim.Options{Workers: -1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A joined worker may still be unwinding its last frame, here
			// and after an earlier test's run: count from a settled state.
			settle := func(done func() bool) {
				for deadline := time.Now().Add(2 * time.Second); !done() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			settle(func() bool { return workersAlive() == 0 })
			start := runtime.NumGoroutine()
			_, _, _, _, err := cleanup(c, nil, reps, 0, tc.opt, 8)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error: %v", err, tc.wantErr)
			}
			settle(func() bool { return runtime.NumGoroutine() <= start })
			if n := runtime.NumGoroutine(); n != start {
				t.Errorf("%d goroutines after CleanupTestsBudget returned, %d before", n, start)
			}
		})
	}
}

// workersAlive counts the goroutines still inside a speculation worker.
func workersAlive() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("atpg.(*speculation).work("))
}
