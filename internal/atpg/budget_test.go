package atpg

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// TestCleanupTestsBudgetMatchesUnbudgeted pins the compatibility
// contract: over the full collapsed list with a zero (default) budget,
// CleanupTestsBudget emits exactly CleanupTests' pattern set,
// and the tally buckets partition the fault list.
func TestCleanupTestsBudgetMatchesUnbudgeted(t *testing.T) {
	c, err := netlist.Decoder(3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ProductionPatterns(len(c.Inputs), 8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CleanupTests(c, base)
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
	got, tally, err := CleanupTestsBudget(c, base, reps, 0, faultsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("budgeted cleanup emitted %d patterns, unbudgeted %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("pattern %d differs at bit %d", i, j)
			}
		}
	}
	if tally.Faults != len(reps) {
		t.Fatalf("tally.Faults = %d, want %d", tally.Faults, len(reps))
	}
	if sum := tally.Detected + tally.Untestable + tally.Aborted; sum != tally.Faults {
		t.Fatalf("tally buckets sum to %d, want %d (%+v)", sum, tally.Faults, tally)
	}
	if tally.Aborted != 0 {
		t.Fatalf("default budget aborted %d faults on a small circuit", tally.Aborted)
	}
}

// TestCleanupTestsBudgetAborts forces a one-backtrack budget on a
// random-pattern-resistant circuit with no base patterns: the PODEM
// pass must abandon some faults and account for every one of them.
func TestCleanupTestsBudgetAborts(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.Reps(fault.BuildUniverse(c).Collapsed)
	_, tight, err := CleanupTestsBudget(c, nil, reps, 1, faultsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Aborted == 0 {
		t.Fatalf("backtrack budget 1 aborted nothing on %s: %+v", c.Name, tight)
	}
	if sum := tight.Detected + tight.Untestable + tight.Aborted; sum != tight.Faults {
		t.Fatalf("tally buckets sum to %d, want %d (%+v)", sum, tight.Faults, tight)
	}
	_, loose, err := CleanupTestsBudget(c, nil, reps, 0, faultsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Detected <= tight.Detected {
		t.Fatalf("default budget detected %d faults, tight budget %d — budget had no effect", loose.Detected, tight.Detected)
	}
	if _, _, err := CleanupTestsBudget(c, nil, reps, -1, faultsim.Options{}); err == nil {
		t.Fatal("negative backtrack budget must be rejected")
	}
}
