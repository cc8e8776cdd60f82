// Command lotsim runs the paper's full production-lot experiment
// (§5/§7) end to end on a synthetic line: generate circuit and ordered
// tests, manufacture a lot at a target (yield, n0), first-fail test
// each chip, print the Table 1 fallout table and Fig. 5 overlay, and
// recover n0 by curve fit and slope.
//
//	lotsim -chips 277 -yield 0.07 -n0 8.8
//	lotsim -circuit cmp16              # any registry workload spec
//	lotsim -physical                   # route through the physical-defect layer
//	lotsim -list-circuits
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/circuits"
	"repro/internal/experiment"
)

func main() {
	chips := flag.Int("chips", 277, "lot size")
	yield := flag.Float64("yield", 0.07, "ground-truth yield")
	n0 := flag.Float64("n0", 8.8, "ground-truth mean faults per defective chip")
	seed := flag.Int64("seed", 1981, "random seed")
	random := flag.Int("random", 192, "random patterns before PODEM cleanup")
	circuit := flag.String("circuit", experiment.DefaultCircuitSpec,
		"workload spec of the DUT (see -list-circuits)")
	listCircuits := flag.Bool("list-circuits", false, "print the workload spec grammar and exit")
	physical := flag.Bool("physical", false, "generate the lot through the physical-defect layer")
	sampleFaults := flag.Int("sample-faults", 0,
		"prepare against a deterministic random sample of at most N collapsed fault classes (0 = full universe)")
	backtrackLimit := flag.Int("backtrack-limit", 0,
		"PODEM backtrack budget per fault during cleanup ATPG (0 = generator default)")
	preparedDir := flag.String("prepared-dir", "",
		"on-disk Prepared store: reuse the test program and coverage ramp across runs")
	flag.Parse()

	if *listCircuits {
		fmt.Print(circuits.List())
		return
	}
	cfg := experiment.Table1Config{
		Chips:          *chips,
		Yield:          *yield,
		N0:             *n0,
		RandomPatterns: *random,
		Seed:           *seed,
		Physical:       *physical,
		BacktrackLimit: *backtrackLimit,
		SampleFaults:   *sampleFaults,
	}
	// Fail fast on nonsense parameters before resolving the circuit or
	// running any ATPG.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "lotsim:", err)
		os.Exit(1)
	}
	// Preparation goes through a cache so -prepared-dir can satisfy it
	// from disk: a warm store skips ATPG and fault simulation entirely.
	cache := circuits.NewCache()
	if *preparedDir != "" {
		store, err := circuits.NewStore(*preparedDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lotsim:", err)
			os.Exit(1)
		}
		cache = circuits.NewCacheWithStore(store)
	}
	prep, err := cache.Get(*circuit, cfg.PrepareParams())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotsim:", err)
		os.Exit(1)
	}
	cfg.Circuit = prep.Circuit
	res, err := experiment.RunTable1From(prep, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotsim:", err)
		os.Exit(1)
	}
	fmt.Println(res.Render())
}
