package main

import (
	"fmt"
	"runtime"

	"repro/internal/sweep"
)

// storeMode says how a workload's Prepared artifacts reach sweep.New.
type storeMode int

const (
	// storeNone prepares in memory (no on-disk store).
	storeNone storeMode = iota
	// storeCold gives every timed run an empty on-disk store, so
	// set-up pays the full Prepare and the store write.
	storeCold
	// storeWarm fills one store in a separate process before timing,
	// so set-up is a store read.
	storeWarm
)

// workload is one benchmark input: the sweep.Config generated from a
// seed, how set-up meets the Prepared store, and how many timed
// processes a run makes.
type workload struct {
	Name string
	// Config builds the campaign from a config seed (see configSeed).
	// The program sees only this config; the seed reaches it as
	// sweep.Config.Seed, which seeds both the test program and every
	// lot.
	Config func(seed int64) sweep.Config
	Store  storeMode
	// Checkpoint writes a per-cell campaign checkpoint the way the
	// campaign daemon does (resume-or-start, every completed cell and
	// every checkpointEvery folded replicates).
	Checkpoint bool
	// Attempts is the number of timed processes per run: each sets up
	// once and then repeats the campaign for its share of the run.
	// Campaigns are kept short (about half a second; a second and a
	// half on lsi-cold), so a run times dozens of them and its median
	// shrugs off the bursts of load a shared host brings.
	Attempts int
}

// checkpointEvery is the campaign daemon's default periodic cadence.
const checkpointEvery = 20

func workers() int { return runtime.NumCPU() }

var workloads = []workload{
	{
		Name: "paper-lots",
		Config: func(seed int64) sweep.Config {
			return sweep.Config{
				Circuits:       []string{"mul8", "cmp16"},
				Yields:         []float64{0.07, 0.5},
				N0s:            []float64{3, 8.8},
				LotSizes:       []int{2000},
				Coverages:      []float64{0.5, 0.8, 0.94},
				Replicates:     20,
				Workers:        workers(),
				RandomPatterns: 192,
				Seed:           seed,
			}
		},
		Store:      storeNone,
		Checkpoint: true,
		Attempts:   8,
	},
	{
		Name: "lsi-cold",
		Config: func(seed int64) sweep.Config {
			return sweep.Config{
				Circuits: []string{"lsi7552"},
				Yields:   []float64{0.07},
				// n0 1.5 for the reason given on lsi-warm: at 8.8 the
				// token campaign's cost swung ±20% between programs.
				N0s:            []float64{1.5},
				LotSizes:       []int{500},
				Coverages:      []float64{0.15, 0.3},
				Replicates:     4,
				Workers:        workers(),
				RandomPatterns: 48,
				SampleFaults:   150,
				BacktrackLimit: 50,
				Seed:           seed,
			}
		},
		Store:    storeCold,
		Attempts: 2,
	},
	{
		Name: "lsi-warm",
		Config: func(seed int64) sweep.Config {
			return sweep.Config{
				Circuits: []string{"lsi4k"},
				Yields:   []float64{0.07, 0.5},
				// At n0 1.5 about 40% of the defective chips survive
				// the whole program, so lot cost follows the final
				// coverage. At n0 8.8 it followed how fast the first
				// patterns climb the ramp, which swung ±15% between
				// test programs.
				N0s:            []float64{1.5},
				LotSizes:       []int{500},
				Coverages:      []float64{0.15, 0.3, 0.4},
				Replicates:     3,
				Workers:        workers(),
				RandomPatterns: 96,
				// With 500 sampled faults lot cost swung 1.6x between
				// seeds; 2000 narrow that, and the lower backtrack
				// budget keeps the fill run near 20 s. Final coverage
				// stays near 0.47, so the top cut is 0.4.
				SampleFaults:   2000,
				BacktrackLimit: 10,
				Seed:           seed,
			}
		},
		Store:    storeWarm,
		Attempts: 6,
	},
}

// configSeed is the config seed of timed process i of a run with the
// given benchmark seed. Each process gets its own test program and
// lots, so a run's medians span several programs instead of resting on
// one; on a warm-store workload every process reads the one program
// the fill run stored.
func (wl workload) configSeed(seed int64, i int) int64 {
	if wl.Store == storeWarm {
		i = 0
	}
	return 100*seed + int64(i)
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q", name)
}

// chipsPerCampaign is the number of chips one campaign manufactures
// and first-fail tests.
func chipsPerCampaign(cfg sweep.Config, circuits int) int {
	chips := 0
	for _, n := range cfg.LotSizes {
		chips += n
	}
	return circuits * len(cfg.Yields) * len(cfg.N0s) * cfg.Replicates * chips
}
