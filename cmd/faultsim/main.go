// Command faultsim grades a test-pattern set against a circuit: it
// builds the collapsed single-stuck-at fault list, runs parallel-
// pattern fault simulation, and prints the coverage ramp — the
// fault-simulator product §5 of the paper starts from.
//
//	faultsim -bench c17.bench -patterns 64 -seed 7
//	faultsim -circuit mul8 -patterns 256 -engine serial
//	faultsim -circuit cmp16 -patterns 512 -engine concurrent -workers 8
//	faultsim -list-circuits
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/tablefmt"
)

func main() {
	benchPath := flag.String("bench", "", "circuit in .bench format (shorthand for -circuit bench:<path>)")
	circuit := flag.String("circuit", "c17", "workload spec (see -list-circuits)")
	listCircuits := flag.Bool("list-circuits", false, "print the workload spec grammar and exit")
	npat := flag.Int("patterns", 64, "number of random patterns")
	seed := flag.Int64("seed", 1, "pattern seed")
	engine := flag.String("engine", "ppsfp", "engine: "+faultsim.EngineNames())
	workers := flag.Int("workers", 0, "goroutines for -engine concurrent (0 = GOMAXPROCS)")
	lfsr := flag.Bool("lfsr", false, "use an LFSR instead of uniform random patterns")
	flag.Parse()

	if *listCircuits {
		fmt.Print(circuits.List())
		return
	}
	spec := *circuit
	if *benchPath != "" {
		spec = "bench:" + *benchPath
	}
	opt := faultsim.Options{Workers: *workers}
	if err := run(spec, *npat, *seed, *engine, opt, *lfsr); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run(spec string, npat int, seed int64, engineName string, opt faultsim.Options, lfsr bool) error {
	c, err := circuits.Resolve(spec)
	if err != nil {
		return err
	}
	stats, err := c.ComputeStats()
	if err != nil {
		return err
	}
	fmt.Printf("circuit %s: %s\n", c.Name, stats)

	eng, err := faultsim.ParseEngine(engineName)
	if err != nil {
		return err
	}
	// Reject flag/engine combinations that would be silently ignored:
	// wrong timings attributed to the wrong configuration are worse
	// than an error.
	if opt.Workers != 0 && eng != faultsim.Concurrent {
		return fmt.Errorf("-workers only applies to the concurrent engine (got %v)", eng)
	}

	var src atpg.Source
	if lfsr {
		src, err = atpg.NewLFSRSource(len(c.Inputs), uint32(seed)|1)
	} else {
		src, err = atpg.NewRandomSource(len(c.Inputs), seed)
	}
	if err != nil {
		return err
	}
	patterns := atpg.Take(src, npat)

	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)
	fmt.Printf("faults: %d total, %d collapsed, %d after dominance\n",
		len(u.All), len(u.Collapsed), len(u.Checkable))

	res, err := faultsim.RunOpts(c, reps, patterns, eng, opt)
	if err != nil {
		return err
	}
	curve := faultsim.CurveFromResult(res)
	tb := tablefmt.New("pattern", "detected", "coverage")
	step := len(curve) / 16
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(curve); i += step {
		tb.AddRow(curve[i].Pattern+1, curve[i].Detected, fmt.Sprintf("%.4f", curve[i].Coverage))
	}
	last := curve[len(curve)-1]
	tb.AddRow(last.Pattern+1, last.Detected, fmt.Sprintf("%.4f", last.Coverage))
	fmt.Print(tb.String())
	fmt.Printf("final coverage (%s engine): %.4f, undetected %d\n",
		eng, res.Coverage(), len(faultsim.Undetected(res)))
	return nil
}
