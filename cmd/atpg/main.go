// Command atpg generates test patterns for a circuit with PODEM (plus
// an optional random burst) and reports coverage and pattern count.
//
//	atpg -circuit mul4
//	atpg -circuit dec4 -random 32 -compact
//	atpg -circuit bench:c432.bench
//	atpg -list-circuits
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
)

func main() {
	circuit := flag.String("circuit", "c17", "workload spec (see -list-circuits)")
	listCircuits := flag.Bool("list-circuits", false, "print the workload spec grammar and exit")
	random := flag.Int("random", 0, fmt.Sprintf("random patterns applied before PODEM cleanup (0 to %d)", experiment.SizeCap))
	seed := flag.Int64("seed", 1, "random seed")
	compact := flag.Bool("compact", false, "reverse-order compact the final set")
	flag.Parse()

	if *listCircuits {
		fmt.Print(circuits.List())
		return
	}
	if err := run(*circuit, *random, *seed, *compact); err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}
}

func run(circuit string, random int, seed int64, compact bool) error {
	if random < 0 || random > experiment.SizeCap {
		return fmt.Errorf("-random must be in [0, %d], got %d", experiment.SizeCap, random)
	}
	c, err := circuits.Resolve(circuit)
	if err != nil {
		return err
	}
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	fmt.Printf("circuit %s: %d gates, %d collapsed faults\n", c.Name, len(c.Gates), len(reps))

	// One PODEM-and-drop run grades the program as it builds it, so the
	// tally is the program's fault-simulated coverage.
	var base []logicsim.Pattern
	if random > 0 {
		src, err := atpg.NewRandomSource(len(c.Inputs), seed)
		if err != nil {
			return err
		}
		base = atpg.Take(src, random)
	}
	patterns, tally, err := atpg.CleanupTestsBudget(c, base, reps, 0, faultsim.Options{})
	if err != nil {
		return err
	}
	coverage := float64(tally.Detected) / float64(tally.Faults)
	if random > 0 {
		fmt.Printf("hybrid: %d random + %d deterministic patterns\n", random, len(patterns)-random)
	} else {
		fmt.Printf("PODEM: %d patterns, coverage %.4f, %d untestable, %d aborted\n",
			len(patterns), coverage, tally.Untestable, tally.Aborted)
	}
	fmt.Printf("fault-simulated coverage: %.4f with %d patterns\n", coverage, len(patterns))
	if compact {
		// Compact keeps every pattern that first-detects a fault in
		// reverse order, so the compacted set detects the same faults.
		compacted, err := atpg.Compact(c, reps, patterns)
		if err != nil {
			return err
		}
		fmt.Printf("after compaction: %.4f with %d patterns\n", coverage, len(compacted))
	}
	return nil
}
