// test-grading drives the full substrate: synthesize a circuit, build
// an ordered production test program (bring-up + random + PODEM), take
// its coverage ramp from the generator's own fault grading, and
// translate the achieved coverage into shipped quality for a given
// process — the complete workflow a test engineer runs before
// releasing a test program.
package main

import (
	"fmt"
	"log"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/quality"
)

func main() {
	// The device under test: an 8-bit array multiplier (~3k faults).
	c, err := circuits.Resolve("mul8")
	if err != nil {
		log.Fatal(err)
	}
	stats, err := c.ComputeStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DUT %s: %s\n", c.Name, stats)

	// Fault universe: full list, then equivalence collapsing.
	u := fault.BuildUniverse(c)
	fmt.Printf("faults: %d total -> %d collapsed -> %d after dominance\n",
		len(u.All), len(u.Collapsed), len(u.Checkable))

	// Production test program. The generator grades the program over
	// the collapsed faults as it builds it, so its result is the
	// coverage ramp, at tester-strobe granularity: no second fault
	// simulation.
	reps := fault.Reps(u.Collapsed)
	patterns, _, res, err := atpg.ProductionTestsBudget(c, 64, 64, 42, reps, 0, faultsim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	curve := faultsim.CurveFromResult(res)
	fmt.Printf("test program: %d patterns, final coverage %.4f\n",
		len(patterns), res.Coverage())
	nOut := len(c.Outputs)
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		// The coverage after a pattern is the curve at its last strobe.
		i := int(frac*float64(len(patterns)))*nOut - 1
		fmt.Printf("  after %3.0f%% of patterns: coverage %.4f\n", frac*100, curve[i].Coverage)
	}

	// Translate coverage into shipped quality on a 20%-yield process
	// where a defective die carries ~6 faults.
	m, err := quality.NewModel(0.20, 6)
	if err != nil {
		log.Fatal(err)
	}
	r := m.RejectRate(res.Coverage())
	fmt.Printf("\non a y=0.20, n0=6 process this test set ships %.0f DPM\n",
		quality.DefectLevelDPM(r))
	for _, target := range []float64{0.001, 0.0001} {
		f, err := m.RequiredCoverage(target)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "MET"
		if res.Coverage() < f {
			verdict = "NOT met"
		}
		fmt.Printf("target %6.0f DPM needs coverage %.4f -> %s\n",
			quality.DefectLevelDPM(target), f, verdict)
	}
}
