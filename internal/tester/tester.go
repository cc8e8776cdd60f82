// Package tester is the ATE (automatic test equipment) substrate: it
// applies an ordered pattern set to each chip of a lot, stops at the
// first failing pattern, and records that pattern's index — exactly the
// experiment §5 and §7 of the paper run on a Fairchild Sentry. The
// per-chip first-fail indices, joined with the fault simulator's
// cumulative-coverage ramp, give the fallout curve from which n0 is
// estimated.
//
// Two lot engines share one result contract (identical FirstFail, bit
// for bit): ChipParallel256, the default, packs the good machine plus
// up to 255 defective chips into the lanes of a multi-word lane block
// and evaluates them together once per pattern — walking only the slots
// where some lane departs from the good machine when the batch's faults
// are sparse, the whole flat circuit otherwise (see chipparallel256.go)
// — and Serial tests one chip at a time on the pointer-walking
// logicsim.Simulator — the oracle.
package tester

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// NeverFails marks a chip that passes the whole pattern set.
const NeverFails = -1

// LotEngine selects how TestLot/TestLotSteps walk a lot. Both engines
// produce bit-identical results; they differ only in speed.
type LotEngine int

// Available lot engines. ChipParallel256 is the zero value on purpose:
// an unconfigured engine field selects the fast path, and Serial stays
// around as the per-chip oracle the equivalence tests pin it to.
const (
	ChipParallel256 LotEngine = iota
	Serial
)

// lotEngineNames maps each engine to its CLI-stable name.
var lotEngineNames = map[LotEngine]string{
	ChipParallel256: "chipparallel256",
	Serial:          "serial",
}

// String names the lot engine.
func (e LotEngine) String() string {
	if n, ok := lotEngineNames[e]; ok {
		return n
	}
	return fmt.Sprintf("LotEngine(%d)", int(e))
}

// Known reports whether e is a registered lot engine, letting
// configuration layers fail fast instead of erroring mid-lot.
func (e LotEngine) Known() bool {
	_, ok := lotEngineNames[e]
	return ok
}

// ParseLotEngine maps an engine name (as printed by String and accepted
// by the CLIs) back to the LotEngine.
func ParseLotEngine(name string) (LotEngine, error) {
	for _, e := range LotEngines() {
		if lotEngineNames[e] == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(lotEngineNames))
	for _, e := range LotEngines() {
		names = append(names, lotEngineNames[e])
	}
	return 0, fmt.Errorf("tester: unknown lot engine %q (registered: %s)", name, strings.Join(names, ", "))
}

// LotEngines lists every registered lot engine in a stable order.
func LotEngines() []LotEngine {
	out := make([]LotEngine, 0, len(lotEngineNames))
	for e := range lotEngineNames {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ATE tests chips against a fixed circuit and ordered pattern set.
type ATE struct {
	c        *netlist.Circuit
	patterns []logicsim.Pattern
	blocks   []logicsim.PatternBlock
	flat     *logicsim.Flat // the circuit's cached flat form
	engine   LotEngine

	// The Serial oracle's pointer-walking simulator and its good-machine
	// outputs per block, built on first use (see oracle): the default
	// engine never reads them.
	sim  *logicsim.Simulator
	good [][]uint64

	// Universe→Injection conversion cache: campaigns share one fault
	// universe across thousands of lots, so the conversion is keyed by
	// slice identity and done once per ATE (see injectionsFor).
	univKey *fault.Fault
	univLen int
	univInj []logicsim.Injection

	pp256 *chipParallel256State // lazily built chipparallel256 scratch
	tcOut []uint64              // TestChip/TestChipSteps output scratch
}

// New builds an ATE with the default (chipparallel256) lot engine,
// packing the pattern set into 64-pattern blocks once.
func New(c *netlist.Circuit, patterns []logicsim.Pattern) (*ATE, error) {
	return NewEngine(c, patterns, ChipParallel256)
}

// NewEngine is New with an explicit lot engine.
func NewEngine(c *netlist.Circuit, patterns []logicsim.Pattern, engine LotEngine) (*ATE, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("tester: no patterns")
	}
	if !engine.Known() {
		return nil, fmt.Errorf("tester: unknown lot engine %v", engine)
	}
	// Compiling (or fetching the cached) flat form rejects a malformed
	// netlist at construction, whichever engine runs.
	flat, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	a := &ATE{c: c, patterns: patterns, flat: flat, engine: engine}
	for base := 0; base < len(patterns); base += 64 {
		end := base + 64
		if end > len(patterns) {
			end = len(patterns)
		}
		block, err := logicsim.PackPatterns(patterns[base:end])
		if err != nil {
			return nil, err
		}
		a.blocks = append(a.blocks, block)
	}
	return a, nil
}

// oracle returns the Serial path's pointer-walking simulator, building
// it and pre-simulating the good machine of every block on first use.
func (a *ATE) oracle() (*logicsim.Simulator, error) {
	if a.sim != nil {
		return a.sim, nil
	}
	sim, err := logicsim.NewSimulator(a.c)
	if err != nil {
		return nil, err
	}
	good := make([][]uint64, len(a.blocks))
	for bi, block := range a.blocks {
		out, err := sim.Run(block)
		if err != nil {
			return nil, err
		}
		good[bi] = append([]uint64(nil), out...)
	}
	a.sim, a.good = sim, good
	return sim, nil
}

// Engine returns the lot engine TestLot/TestLotSteps dispatch to.
func (a *ATE) Engine() LotEngine { return a.engine }

// SetEngine switches the lot engine. Results are unaffected — the
// engines are bit-identical — so this is purely a speed/oracle knob.
func (a *ATE) SetEngine(e LotEngine) { a.engine = e }

// Patterns returns the number of patterns the ATE applies.
func (a *ATE) Patterns() int { return len(a.patterns) }

// TestChip returns the index of the first pattern the chip fails, or
// NeverFails. The chip's faults are injected simultaneously (a multi-
// fault machine), which is what physical testing actually observes.
func (a *ATE) TestChip(chip defect.Chip, universe []logicsim.Injection) (int, error) {
	if !chip.Defective() {
		return NeverFails, nil
	}
	inj, err := a.injections(chip, universe)
	if err != nil {
		return 0, err
	}
	sim, err := a.oracle()
	if err != nil {
		return 0, err
	}
	for bi, block := range a.blocks {
		bad, err := sim.RunWithFaultsInto(block, inj, a.tcOut)
		if err != nil {
			return 0, err
		}
		a.tcOut = bad
		var diff uint64
		for o := range bad {
			diff |= (bad[o] ^ a.good[bi][o]) & block.Mask()
		}
		if diff != 0 {
			return bi*64 + bits.TrailingZeros64(diff), nil
		}
	}
	return NeverFails, nil
}

// TestChipSteps returns the first failing *strobe* (pattern × output)
// step index, or NeverFails. This matches the Sentry's bookkeeping in
// Table 1 ("the first pattern at which the tester strobed the chip
// output"): step = pattern*numOutputs + outputIndex.
func (a *ATE) TestChipSteps(chip defect.Chip, universe []logicsim.Injection) (int, error) {
	if !chip.Defective() {
		return NeverFails, nil
	}
	inj, err := a.injections(chip, universe)
	if err != nil {
		return 0, err
	}
	sim, err := a.oracle()
	if err != nil {
		return 0, err
	}
	nOut := len(a.c.Outputs)
	for bi, block := range a.blocks {
		bad, err := sim.RunWithFaultsInto(block, inj, a.tcOut)
		if err != nil {
			return 0, err
		}
		a.tcOut = bad
		best := -1
		for o := range bad {
			diff := (bad[o] ^ a.good[bi][o]) & block.Mask()
			if diff == 0 {
				continue
			}
			p := bi*64 + bits.TrailingZeros64(diff)
			step := p*nOut + o
			if best < 0 || step < best {
				best = step
			}
		}
		if best >= 0 {
			return best, nil
		}
	}
	return NeverFails, nil
}

// injections maps a chip's fault indices into injectable faults.
func (a *ATE) injections(chip defect.Chip, universe []logicsim.Injection) ([]logicsim.Injection, error) {
	inj := make([]logicsim.Injection, len(chip.Faults))
	for i, fi := range chip.Faults {
		if fi < 0 || fi >= len(universe) {
			return nil, fmt.Errorf("tester: chip fault index %d out of universe", fi)
		}
		inj[i] = universe[fi]
	}
	return inj, nil
}

// injectionsFor converts a lot's fault universe to injectable form,
// cached by slice identity: campaigns share one universe (from a
// circuits.Prepared) across thousands of lots, so per-lot reconversion
// was pure waste. A different universe (or a same-length reallocation)
// misses and reconverts.
func (a *ATE) injectionsFor(universe []fault.Fault) []logicsim.Injection {
	if len(universe) == 0 {
		return nil
	}
	if a.univKey == &universe[0] && a.univLen == len(universe) {
		return a.univInj
	}
	inj := make([]logicsim.Injection, len(universe))
	for i, f := range universe {
		inj[i] = logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}
	}
	a.univKey, a.univLen, a.univInj = &universe[0], len(universe), inj
	return inj
}

// LotResult is the record the paper's experiment produces.
type LotResult struct {
	// FirstFail[i] is chip i's first failing pattern, or NeverFails.
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

// TestLot tests every chip and aggregates the lot statistics at
// pattern granularity.
func (a *ATE) TestLot(lot defect.Lot) (LotResult, error) {
	return a.testLot(lot, false)
}

// TestLotSteps is TestLot at strobe granularity: FirstFail holds step
// indices (pattern*numOutputs + output).
func (a *ATE) TestLotSteps(lot defect.Lot) (LotResult, error) {
	return a.testLot(lot, true)
}

// testLot runs the configured lot engine and folds the per-chip
// first-fail record into the lot statistics.
func (a *ATE) testLot(lot defect.Lot, steps bool) (LotResult, error) {
	universe := a.injectionsFor(lot.Universe)
	var ff []int
	var err error
	switch a.engine {
	case Serial:
		ff, err = a.serialFirstFail(lot, universe, steps)
	case ChipParallel256:
		ff, err = a.chipParallel256FirstFail(lot, universe, steps)
	default:
		err = fmt.Errorf("tester: unknown lot engine %v", a.engine)
	}
	if err != nil {
		return LotResult{}, err
	}
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
	return res, nil
}

// serialFirstFail is the oracle engine: one chip at a time through
// TestChip/TestChipSteps.
func (a *ATE) serialFirstFail(lot defect.Lot, universe []logicsim.Injection, steps bool) ([]int, error) {
	test := (*ATE).TestChip
	if steps {
		test = (*ATE).TestChipSteps
	}
	ff := make([]int, len(lot.Chips))
	for i, chip := range lot.Chips {
		f, err := test(a, chip, universe)
		if err != nil {
			return nil, err
		}
		ff[i] = f
	}
	return ff, nil
}

// FalloutRow is one line of the paper's Table 1.
type FalloutRow struct {
	Coverage   float64 // cumulative fault coverage at the checkpoint
	CumFailed  int     // cumulative number of chips failed
	CumFracton float64 // cumulative fraction of chips failed
}

// FalloutTableRamp reduces a lot result to Table 1 format at the given
// checkpoints against a change-point-compressed coverage ramp
// (faultsim.SparseRamp): checkpoints are step indices in
// [0, ramp.Steps), inclusive, and the coverage column is the ramp value
// at that step. The sparse ramp keeps this cheap at LSI scale — the
// dense curve for a 7.5k-gate circuit is tens of millions of points,
// the sparse ramp a few thousand.
func FalloutTableRamp(res LotResult, ramp faultsim.Ramp, checkpoints []int) ([]FalloutRow, error) {
	if ramp.Steps == 0 {
		return nil, fmt.Errorf("tester: empty coverage ramp")
	}
	rows := make([]FalloutRow, 0, len(checkpoints))
	total := len(res.FirstFail)
	for _, cp := range checkpoints {
		if cp < 0 || cp >= ramp.Steps {
			return nil, fmt.Errorf("tester: checkpoint %d outside ramp (%d steps)", cp, ramp.Steps)
		}
		failed := 0
		for _, ff := range res.FirstFail {
			if ff != NeverFails && ff <= cp {
				failed++
			}
		}
		rows = append(rows, FalloutRow{
			Coverage:   ramp.At(cp).Coverage,
			CumFailed:  failed,
			CumFracton: float64(failed) / float64(total),
		})
	}
	return rows, nil
}

// FirstFailCoverages converts first-fail indices to first-fail
// *coverages* using the ramp; chips that never fail map to NaN. This is
// the input format the estimate package's bootstrap consumes. The
// result and the curve must share one granularity: a TestLotSteps
// result pairs with the strobe-granular ramp (pattern × output, e.g.
// faultsim.CurveFromResult over faultsim.RunSteps), a TestLot result
// with the pattern-granular one. A first-fail index outside the curve
// is a granularity mismatch and returns an error instead of panicking.
func FirstFailCoverages(res LotResult, curve []faultsim.CoveragePoint) ([]float64, error) {
	out := make([]float64, len(res.FirstFail))
	for i, ff := range res.FirstFail {
		if ff == NeverFails {
			out[i] = math.NaN()
			continue
		}
		if ff < 0 || ff >= len(curve) {
			return nil, fmt.Errorf("tester: first-fail index %d outside the %d-point curve (granularity mismatch?)",
				ff, len(curve))
		}
		out[i] = curve[ff].Coverage
	}
	return out, nil
}
