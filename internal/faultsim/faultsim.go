// Package faultsim measures which single-stuck-at faults a test-pattern
// sequence detects. It has one engine, PPSFP: parallel-pattern
// single-fault propagation with fault dropping, 64 patterns per word
// on the flat core (logicsim.Flat). The good machine is simulated once
// per 64-pattern block (logicsim.FlatSim), and each fault is then
// walked alone over that block's good plane on the lot engine's
// divergence walk (logicsim.WideSim.RunChipBlock), which evaluates only
// the slots where the faulty machine departs from the good one on the
// block's valid patterns. It has one session and one run loop: a Grader
// grades a program incrementally, each Add the next patterns against
// the faults still undetected, and Run/RunOpts are a Grader and one
// Add. Options.Workers shards the fault list across goroutines, and
// the default runs one shard inline. StepsFrom refines a pattern-level
// result to tester-strobe granularity on the same walk. Nothing
// selects an engine: the engine argument of Run/RunOpts must be PPSFP,
// the zero value.
//
// The tests pin every result to an independent oracle: a one-fault-at-
// a-time, full-circuit walk over the test-only pointer-walking
// ref.Simulator (internal/logicsim/ref), which shares no simulation
// code with the flat core.
//
// The paper's experiment needs the cumulative coverage curve of an
// ordered pattern set — CoverageCurve produces exactly the "fault
// coverage vs. pattern number" table that §5 feeds to the tester.
package faultsim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// NotDetected marks a fault no pattern detects.
const NotDetected = -1

// Result reports a fault-simulation run over an ordered pattern set.
type Result struct {
	// FirstDetect[i] is the index of the first pattern detecting fault
	// i of the simulated list, or NotDetected.
	FirstDetect []int
	// Patterns is the number of patterns simulated.
	Patterns int
}

// DetectedBy returns how many faults the first k+1 patterns detect.
func (r Result) DetectedBy(k int) int {
	n := 0
	for _, d := range r.FirstDetect {
		if d != NotDetected && d <= k {
			n++
		}
	}
	return n
}

// Coverage returns the final fault coverage (fraction detected).
func (r Result) Coverage() float64 {
	if len(r.FirstDetect) == 0 {
		return 0
	}
	return float64(r.DetectedBy(r.Patterns-1)) / float64(len(r.FirstDetect))
}

// Engine names the fault-simulation algorithm. PPSFP, the zero value,
// is the only one; the type survives because configurations, the
// Prepared-store key and the sweep JSON report carry the number.
type Engine int

// PPSFP is the one engine. The values are stable: a retired engine
// leaves its value unused (1 to 5 are).
const PPSFP Engine = 0

// String names the engine.
func (e Engine) String() string {
	if e == PPSFP {
		return "ppsfp"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Known reports whether e is PPSFP, letting configuration layers fail
// fast instead of erroring mid-run.
func (e Engine) Known() bool { return e == PPSFP }

// Options tunes a run; the zero value selects the defaults.
type Options struct {
	// Workers is the number of fault-list shards, each simulated on
	// its own goroutine; 0 or 1 runs one shard inline. Results do not
	// depend on it.
	Workers int
}

// Run fault-simulates the ordered patterns against the fault list with
// default options and returns per-fault first-detection indices.
// Detected faults are dropped from further simulation (standard fault
// dropping); the first-detect indices are unaffected by dropping.
func Run(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine) (Result, error) {
	return RunOpts(c, faults, patterns, engine, Options{})
}

// RunOpts is Run with explicit engine options: a Grader over the fault
// list and one Add of the whole pattern sequence.
func RunOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (Result, error) {
	if len(patterns) == 0 {
		return Result{}, fmt.Errorf("faultsim: no patterns")
	}
	if !engine.Known() {
		return Result{}, fmt.Errorf("faultsim: unknown engine %v (registered: %v)", engine, PPSFP)
	}
	g, err := NewGrader(c, faults, opt)
	if err != nil {
		return Result{}, err
	}
	if _, err := g.Add(patterns); err != nil {
		return Result{}, err
	}
	return g.Result(), nil
}

// validateFaults rejects a fault whose site or pin the circuit lacks.
func validateFaults(c *netlist.Circuit, faults []fault.Fault) error {
	for i, f := range faults {
		if f.Gate < 0 || f.Gate >= len(c.Gates) {
			return fmt.Errorf("faultsim: fault %d site %d out of range", i, f.Gate)
		}
		if f.Pin < -1 || f.Pin >= len(c.Gates[f.Gate].Fanin) {
			return fmt.Errorf("faultsim: fault %d: gate %d has no pin %d", i, f.Gate, f.Pin)
		}
	}
	return nil
}
