package faultsim

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// TestPPSFPShardsMatchOracle pins sharded PPSFP to the pointer-walking
// oracle at every shard count, including more shards than faults.
func TestPPSFPShardsMatchOracle(t *testing.T) {
	mul5, err := netlist.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	c17 := netlist.C17()
	for _, tc := range []struct {
		c       *netlist.Circuit
		workers []int
	}{
		{mul5, []int{0, 1, 2, 4, 9}},
		{c17, []int{64}}, // more shards than faults
	} {
		faults := fault.Reps(fault.CollapseEquivalence(tc.c, fault.AllFaults(tc.c)))
		patterns := randomPatterns(tc.c, 150, 7)
		oracle := pointerSerialFirstDetect(t, tc.c, faults, patterns)
		for _, workers := range tc.workers {
			got, err := RunOpts(tc.c, faults, patterns, PPSFP, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.c.Name, workers, err)
			}
			if got.Patterns != len(patterns) {
				t.Fatalf("%s workers=%d: pattern count", tc.c.Name, workers)
			}
			for fi := range faults {
				if got.FirstDetect[fi] != oracle[fi] {
					t.Fatalf("%s workers=%d fault %d: %d, oracle %d",
						tc.c.Name, workers, fi, got.FirstDetect[fi], oracle[fi])
				}
			}
		}
	}
}

func TestPPSFPShardsRace(t *testing.T) {
	// Exercised under -race in CI: shards never write overlapping
	// indices; this test just pushes enough work through to catch any
	// accidental sharing.
	c, err := netlist.RippleAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	patterns := randomPatterns(c, 200, 3)
	for round := 0; round < 3; round++ {
		if _, err := RunOpts(c, faults, patterns, PPSFP, Options{Workers: 8}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPPSFPShardsErrors(t *testing.T) {
	c := netlist.C17()
	faults := fault.AllFaults(c)
	if _, err := RunOpts(c, faults, nil, PPSFP, Options{Workers: 4}); err == nil {
		t.Error("no patterns should error")
	}
}

func BenchmarkPPSFPShardedMul8(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	patterns := randomPatterns(c, 64, 1)
	opt := Options{Workers: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOpts(c, reps, patterns, PPSFP, opt); err != nil {
			b.Fatal(err)
		}
	}
}
