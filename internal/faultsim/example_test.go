package faultsim_test

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// ExampleRun grades a tiny exhaustive test set against the c17
// benchmark circuit: build the collapsed fault list, fault-simulate
// with PPSFP, the one engine, and read the coverage off the result.
func ExampleRun() {
	c := netlist.C17()
	u := fault.BuildUniverse(c)
	reps := fault.Reps(u.Collapsed)

	var patterns []logicsim.Pattern
	for v := 0; v < 1<<len(c.Inputs); v++ {
		p := make(logicsim.Pattern, len(c.Inputs))
		for i := range p {
			p[i] = v>>i&1 == 1
		}
		patterns = append(patterns, p)
	}

	res, err := faultsim.Run(c, reps, patterns, faultsim.PPSFP)
	if err != nil {
		panic(err)
	}
	fmt.Printf("faults: %d\n", len(res.FirstDetect))
	fmt.Printf("coverage: %.2f\n", res.Coverage())
	fmt.Printf("first pattern detects %d faults\n", res.DetectedBy(0))
	// Output:
	// faults: 22
	// coverage: 1.00
	// first pattern detects 5 faults
}
