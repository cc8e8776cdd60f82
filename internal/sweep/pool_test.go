package sweep

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/tester"
)

// TestSweepReusesATEsAcrossRuns: campaigns over one Prepared reuse the
// ATEs earlier campaigns released. The third Run of one Sweeper, and a
// second Sweeper over the same Cache (the daemon's traffic), must give
// the CSV bytes of a fresh Sweeper, at one worker and at four.
func TestSweepReusesATEsAcrossRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.Workers = workers
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.CSV()

			cfg.Cache = circuits.NewCache()
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 3; run++ {
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := res.CSV(); got != want {
					t.Fatalf("run %d of one Sweeper drifted from a fresh Sweeper:\n%s\nwant\n%s", run, got, want)
				}
			}
			second, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < second.Workloads(); i++ {
				if second.Runner(i).Prepared() != s.Runner(i).Prepared() {
					t.Fatalf("workload %d: second Sweeper did not share the cached Prepared", i)
				}
			}
			res, err := second.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.CSV(); got != want {
				t.Fatalf("second Sweeper over the cache drifted from a fresh Sweeper:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestSweepDropsATEOfFailedLot: a worker whose lot fails must not hand
// its ATE back, so the next campaign over the Prepared builds a new one
// rather than reuse it; a clean run hands it back.
func TestSweepDropsATEOfFailedLot(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Circuits = []string{"mul4"}
	cfg.Workers = 1
	cfg.Cache = circuits.NewCache()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr := s.Runner(0).Prepared()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// A clean one-worker run leaves exactly its one ATE on the list.
	pooled := takeAndRelease(t, pr)

	// A universe the circuit cannot resolve fails the first lot.
	good := pr.Universe
	pr.Universe = slices.Clone(good)
	pr.Universe[0].Gate = len(pr.Circuit.Gates) + 1
	if _, err := s.Run(); err == nil {
		t.Fatal("a campaign over an unresolvable universe succeeded")
	}
	pr.Universe = good
	if next := takeAndRelease(t, pr); next == pooled {
		t.Fatal("the ATE whose lot failed went back on the free list")
	}
}

// takeAndRelease draws an ATE from pr and hands it straight back.
func takeAndRelease(t *testing.T, pr *circuits.Prepared) *tester.ATE {
	t.Helper()
	ate, err := pr.NewATE()
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.ReleaseATE(ate); err != nil {
		t.Fatal(err)
	}
	return ate
}
