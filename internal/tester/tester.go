// Package tester is the ATE (automatic test equipment) substrate: it
// applies an ordered pattern set to each chip of a lot, stops at the
// first failing pattern, and records that pattern's index — exactly the
// experiment §5 and §7 of the paper run on a Fairchild Sentry. The
// per-chip first-fail indices, joined with the fault simulator's
// cumulative-coverage ramp, give the fallout curve from which n0 is
// estimated.
//
// The tester splits into an immutable Program (NewProgram: the packed
// pattern blocks and the good machine's value planes), which every ATE
// of one test program shares, and the ATE (Program.NewATE), which adds
// only its own per-lot scratch.
//
// One lot engine, chipparallel256, runs every lot. It first takes each
// one-fault chip's first fail from the ATE's first-detect table, when
// one is installed for the lot's universe (UseFirstDetects; a
// circuits.Prepared installs its own): a chip carrying one fault is the
// single-fault machine, whose first failing strobe the fault simulator
// already found. The other defective chips it packs, up to 255 at a
// time beside the good machine, into the lanes of a multi-word lane
// block. A batch whose faults are sparse in the circuit is finished one
// chip at a time, 64 patterns per walk, visiting only the slots where
// the chip departs from the good machine; a dense one is evaluated
// together once per pattern over the whole flat circuit, and a dense
// batch whose rebuilt table turns sparse as its survivors thin out
// finishes on the chip walk (see chipparallel256.go). First fails are
// strobe steps (pattern × numOutputs + output), the Sentry's granularity
// in Table 1. The tests pin
// every first fail to an independent oracle: one chip at a time on the
// test-only pointer-walking ref.Simulator (internal/logicsim/ref),
// which shares no simulation code with the flat core.
package tester

import (
	"fmt"
	"sort"

	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// NeverFails marks a chip that passes the whole pattern set.
const NeverFails = -1

// LotEngine names the lot-testing engine. ChipParallel256, the zero
// value, is the only one; the type survives because configurations and
// the sweep JSON report carry the field.
type LotEngine int

// ChipParallel256 is the one lot engine.
const ChipParallel256 LotEngine = 0

// Program is a test program's immutable tester image: the circuit, its
// ordered pattern set packed once into 64-pattern blocks, the circuit's
// cached flat form, and the good machine's value planes of every block,
// which the lot engine's chip walk reads instead of simulating the good
// machine. It is safe for concurrent readers, so one Program serves
// every ATE of its test program (NewATE).
type Program struct {
	c        *netlist.Circuit
	patterns []logicsim.Pattern
	blocks   []logicsim.PatternBlock
	flat     *logicsim.Flat // the circuit's cached flat form
	planes   *logicsim.GoodPlanes
}

// NewProgram builds the tester image of a test program: it packs the
// patterns into blocks and simulates the good machine over them once.
func NewProgram(c *netlist.Circuit, patterns []logicsim.Pattern) (*Program, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("tester: no patterns")
	}
	// Compiling (or fetching the cached) flat form rejects a malformed
	// netlist at construction.
	flat, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	blocks, err := logicsim.PackBlocks(patterns)
	if err != nil {
		return nil, err
	}
	planes, err := logicsim.NewGoodPlanes(flat, blocks)
	if err != nil {
		return nil, err
	}
	return &Program{c: c, patterns: patterns, blocks: blocks, flat: flat, planes: planes}, nil
}

// NewATE returns a tester over the program. The ATE shares the
// program's image and owns only its per-lot scratch, so concurrent
// testers take one ATE each.
func (p *Program) NewATE() *ATE {
	return &ATE{prog: p, pp256: &chipParallel256State{flat: p.flat, planes: p.planes}}
}

// ATE tests chips against a fixed circuit and ordered pattern set.
type ATE struct {
	prog *Program

	// Universe resolution cache: campaigns share one fault universe
	// across thousands of lots, so its resolution to slot space is
	// keyed by slice identity and done once per ATE and universe (see
	// resolvedFor). The key pointer keeps the universe's array alive,
	// so its address cannot be reused while the ATE holds it.
	univKey *fault.Fault
	univLen int
	univRes []logicsim.SlotInjection

	// Single-fault first-fail table (see UseFirstDetects): the strobe
	// first detect of every fault of one universe, keyed by that
	// universe's slice identity like the resolution cache. Borrowed
	// from the caller, never written.
	firstKey *fault.Fault
	firstLen int
	first    []int

	pp256 *chipParallel256State // the lot engine's scratch
}

// New builds an ATE over a program of its own: NewProgram followed by
// NewATE.
func New(c *netlist.Circuit, patterns []logicsim.Pattern) (*ATE, error) {
	p, err := NewProgram(c, patterns)
	if err != nil {
		return nil, err
	}
	return p.NewATE(), nil
}

// Program returns the test program the ATE applies.
func (a *ATE) Program() *Program { return a.prog }

// Patterns returns the number of patterns the ATE applies.
func (a *ATE) Patterns() int { return len(a.prog.patterns) }

// resolvedFor resolves a lot's fault universe to slot space, cached by
// slice identity: campaigns share one universe (from a
// circuits.Prepared) across thousands of lots, so per-lot resolution
// was pure waste. A different universe (or a same-length reallocation)
// misses and resolves again.
func (a *ATE) resolvedFor(universe []fault.Fault) ([]logicsim.SlotInjection, error) {
	if len(universe) == 0 {
		return nil, nil
	}
	if a.univKey == &universe[0] && a.univLen == len(universe) {
		return a.univRes, nil
	}
	res := make([]logicsim.SlotInjection, len(universe))
	for i, f := range universe {
		si, err := a.prog.flat.ResolveInjection(logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck})
		if err != nil {
			return nil, err
		}
		res[i] = si
	}
	a.univKey, a.univLen, a.univRes = &universe[0], len(universe), res
	return res, nil
}

// UseFirstDetects installs a single-fault first-fail table: res must be
// the strobe-granular fault-simulation result of this ATE's program
// over universe (a circuits.Prepared's Result over its Universe). A
// chip carrying exactly one fault is the single-fault machine, so its
// first failing strobe is that fault's first detect; lots over this
// universe (the same slice, by identity) take such chips from the table
// instead of simulating them. Every other chip, and every lot over
// another universe, is simulated as before, so the table never changes
// a result. res is borrowed, not copied, and must not change while the
// ATE uses it. A result of the wrong length or granularity, or with a
// first detect outside the program, is rejected.
func (a *ATE) UseFirstDetects(universe []fault.Fault, res faultsim.Result) error {
	if len(res.FirstDetect) != len(universe) {
		return fmt.Errorf("tester: %d first detects for %d universe faults", len(res.FirstDetect), len(universe))
	}
	steps := len(a.prog.patterns) * len(a.prog.c.Outputs)
	if res.Patterns != steps {
		return fmt.Errorf("tester: first detects over %d steps, program has %d patterns × %d outputs",
			res.Patterns, len(a.prog.patterns), len(a.prog.c.Outputs))
	}
	for i, d := range res.FirstDetect {
		if d < faultsim.NotDetected || d >= steps {
			return fmt.Errorf("tester: first detect %d of fault %d outside the %d-step program", d, i, steps)
		}
	}
	a.firstKey, a.firstLen, a.first = nil, 0, nil
	if len(universe) > 0 {
		a.firstKey, a.firstLen, a.first = &universe[0], len(universe), res.FirstDetect
	}
	return nil
}

// firstDetectsFor returns the installed first-detect table when it
// belongs to universe (by slice identity), else nil.
func (a *ATE) firstDetectsFor(universe []fault.Fault) []int {
	if len(universe) == 0 || a.firstKey != &universe[0] || a.firstLen != len(universe) {
		return nil
	}
	return a.first
}

// LotResult is the record the paper's experiment produces.
type LotResult struct {
	// FirstFail[i] is chip i's first failing strobe step, or NeverFails.
	FirstFail []int
	// Passed counts chips that passed every pattern — the exact integer
	// the yields are derived from.
	Passed int
	// TestedYield is the fraction of chips that passed every pattern
	// (what the line actually ships before field returns).
	TestedYield float64
	// TrueYield is the fraction of chips with no faults at all.
	TrueYield float64
	// Escapes counts defective chips that passed all patterns — the
	// bad chips shipped, whose fraction the reject-rate model predicts.
	Escapes int
}

// TestLotSteps tests every chip and aggregates the lot statistics at
// strobe granularity, the Sentry's bookkeeping in Table 1: FirstFail
// holds step indices (pattern*numOutputs + output).
func (a *ATE) TestLotSteps(lot defect.Lot) (LotResult, error) {
	ff, err := a.chipParallel256FirstFail(lot)
	if err != nil {
		return LotResult{}, err
	}
	return foldLot(lot, ff), nil
}

// foldLot aggregates a lot's per-chip first-fail record into its
// LotResult.
func foldLot(lot defect.Lot, ff []int) LotResult {
	res := LotResult{FirstFail: ff}
	trueGood := 0
	for i, chip := range lot.Chips {
		if ff[i] == NeverFails {
			res.Passed++
			if chip.Defective() {
				res.Escapes++
			}
		}
		if !chip.Defective() {
			trueGood++
		}
	}
	n := float64(len(lot.Chips))
	res.TestedYield = float64(res.Passed) / n
	res.TrueYield = float64(trueGood) / n
	return res
}

// FalloutRow is one line of the paper's Table 1.
type FalloutRow struct {
	Coverage   float64 // cumulative fault coverage at the checkpoint
	CumFailed  int     // cumulative number of chips failed
	CumFracton float64 // cumulative fraction of chips failed
}

// FalloutTableRamp reduces a lot result to Table 1 format at the given
// checkpoints against a change-point-compressed coverage ramp
// (faultsim.SparseRamp): checkpoints are non-decreasing step indices in
// [0, ramp.Steps), inclusive, and the coverage column is the ramp value
// at that step. The sparse ramp keeps this cheap at LSI scale — the
// dense curve for a 7.5k-gate circuit is tens of millions of points,
// the sparse ramp a few thousand. One pass over the lot bins each first
// fail under the first checkpoint at or after it; a prefix sum of the
// bins gives the cumulative column.
func FalloutTableRamp(res LotResult, ramp faultsim.Ramp, checkpoints []int) ([]FalloutRow, error) {
	if ramp.Steps == 0 {
		return nil, fmt.Errorf("tester: empty coverage ramp")
	}
	for i, cp := range checkpoints {
		if cp < 0 || cp >= ramp.Steps {
			return nil, fmt.Errorf("tester: checkpoint %d outside ramp (%d steps)", cp, ramp.Steps)
		}
		if i > 0 && cp < checkpoints[i-1] {
			return nil, fmt.Errorf("tester: checkpoint %d after checkpoint %d; checkpoints must not decrease", cp, checkpoints[i-1])
		}
	}
	bins := make([]int, len(checkpoints))
	for _, ff := range res.FirstFail {
		if ff == NeverFails {
			continue
		}
		if k := sort.SearchInts(checkpoints, ff); k < len(bins) {
			bins[k]++
		}
	}
	rows := make([]FalloutRow, len(checkpoints))
	total := len(res.FirstFail)
	failed := 0
	for k, cp := range checkpoints {
		failed += bins[k]
		rows[k] = FalloutRow{
			Coverage:   ramp.At(cp).Coverage,
			CumFailed:  failed,
			CumFracton: float64(failed) / float64(total),
		}
	}
	return rows, nil
}
