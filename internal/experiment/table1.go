package experiment

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/estimate"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/tablefmt"
	"repro/internal/tester"
	"repro/internal/textplot"
)

// DefaultCircuitSpec is the workload the experiment falls back to when
// no circuit is given: the 8-bit array multiplier (a few thousand
// gates — the scaled-down stand-in for the paper's 25k-transistor
// chip), resolved through the internal/circuits registry.
const DefaultCircuitSpec = "mul8"

// SizeCap bounds every size a campaign allocates up front: the chips of
// one lot, the random-pattern budget, and a sweep's task count (cells ×
// replicates). It sits far above every real campaign (the largest use
// 6000 chips and 20 replicates) and far below what fails the
// allocation, so an oversized request is refused before any work.
const SizeCap = 1_000_000

// ErrTooLarge marks a configuration with a size above its cap (SizeCap,
// or WorkerCap for a worker count).
var ErrTooLarge = errors.New("size above cap")

// WorkerCap bounds a worker count: each worker builds its own
// simulation scratch, so a hostile count would allocate that many
// before any work. It sits above any real core count.
const WorkerCap = 1024

// errTooLarge names the oversized quantity and its cap.
func errTooLarge(what string, n, limit int) error {
	return fmt.Errorf("experiment: %s %d above the cap of %d: %w", what, n, limit, ErrTooLarge)
}

// Table1Config parameterizes the end-to-end lot experiment.
type Table1Config struct {
	// Circuit under test; nil selects DefaultCircuitSpec.
	Circuit *netlist.Circuit
	// Chips in the lot (paper: 277).
	Chips int
	// Yield is the ground-truth probability of a fault-free chip
	// (paper: 0.07).
	Yield float64
	// N0 is the ground-truth mean faults per defective chip
	// (paper's slope estimate: 8.8).
	N0 float64
	// RandomPatterns seeds the ordered test set before PODEM cleanup.
	RandomPatterns int
	// Seed makes the whole experiment reproducible.
	Seed int64
	// Physical, if true, generates the lot through the physical-defect
	// layer (Poisson defects × shifted-Poisson faults-per-defect tuned
	// to match Yield and N0) instead of directly from the statistical
	// model.
	Physical bool
	// Engine names the fault-simulation engine for the coverage ramp
	// and the test-set construction. PPSFP, the zero value, is the only
	// one; Validate rejects any other.
	Engine faultsim.Engine
	// SimWorkers is the number of fault-list shards each fault
	// simulation runs, one goroutine each (faultsim.Options.Workers;
	// 0 = one, inline). It only affects speed.
	SimWorkers int
	// BacktrackLimit bounds PODEM's per-fault search during cleanup
	// ATPG (0 = the generator's default).
	BacktrackLimit int
	// SampleFaults, when > 0, prepares against a deterministic random
	// sample of at most this many collapsed fault classes (see
	// circuits.Params.SampleFaults). Zero means the full universe.
	SampleFaults int
	// LotEngine names the ATE's lot-testing engine. chipparallel256,
	// the zero value, is the only one; Validate rejects any other.
	LotEngine tester.LotEngine
}

// Validate rejects configurations that would silently produce NaN or
// empty tables downstream: a non-positive lot, a yield outside (0,1),
// an n0 below 1 (a defective chip carries at least one fault), a lot
// engine other than chipparallel256, or test-program settings
// circuits.Params.Validate rejects. A lot or pattern budget above
// SizeCap, or a sim worker count above WorkerCap, fails with
// ErrTooLarge. RunTable1, the sweep engine, and the CLIs all call it
// before doing any work.
func (cfg Table1Config) Validate() error {
	if cfg.Chips <= 0 {
		return fmt.Errorf("experiment: lot size must be positive, got %d", cfg.Chips)
	}
	if cfg.Chips > SizeCap {
		return errTooLarge("lot size", cfg.Chips, SizeCap)
	}
	if !(cfg.Yield > 0 && cfg.Yield < 1) {
		return fmt.Errorf("experiment: yield must be in (0,1), got %v", cfg.Yield)
	}
	if !(cfg.N0 >= 1) || math.IsInf(cfg.N0, 1) {
		return fmt.Errorf("experiment: n0 must be >= 1 and finite, got %v", cfg.N0)
	}
	if cfg.RandomPatterns > SizeCap {
		return errTooLarge("random pattern count", cfg.RandomPatterns, SizeCap)
	}
	if cfg.SimWorkers > WorkerCap {
		return errTooLarge("sim worker count", cfg.SimWorkers, WorkerCap)
	}
	if cfg.LotEngine != tester.ChipParallel256 {
		return fmt.Errorf("experiment: unknown lot engine %d (only chipparallel256)", int(cfg.LotEngine))
	}
	if err := cfg.PrepareParams().Validate(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

// PrepareParams maps the test-program knobs of the configuration onto
// the circuits-layer preparation key, so campaigns can share Prepared
// artifacts across configurations that differ only in lot parameters.
func (cfg Table1Config) PrepareParams() circuits.Params {
	return circuits.Params{
		RandomPatterns: cfg.RandomPatterns,
		Seed:           cfg.Seed,
		Engine:         cfg.Engine,
		SimWorkers:     cfg.SimWorkers,
		BacktrackLimit: cfg.BacktrackLimit,
		SampleFaults:   cfg.SampleFaults,
	}
}

// DefaultTable1Config returns the paper-matched configuration.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Chips:          277,
		Yield:          0.07,
		N0:             8.8,
		RandomPatterns: 192,
		Seed:           1981, // year of the paper; any seed works
	}
}

// Table1Result is the synthetic rerun of the paper's experiment plus
// the estimation pipeline applied to both the synthetic lot and the
// paper's published data.
type Table1Result struct {
	Config       Table1Config
	CircuitStats netlist.Stats
	FaultCount   int
	FinalCov     float64 // final fault coverage of the pattern set
	Rows         []tester.FalloutRow
	Curve        estimate.Curve
	// Ground truth and recovered estimates for the synthetic lot.
	TrueN0      float64
	FitN0       float64
	SlopeN0     float64
	LotYield    float64
	TestedYield float64
	Escapes     int
	// The paper's own data re-analyzed with our estimators.
	PaperFitN0   float64
	PaperSlopeN0 float64
}

// RunTable1 executes the full §5/§7 experiment on a synthetic lot:
// generate a circuit, collapse its faults, build an ordered pattern
// set, fault-simulate the coverage ramp, manufacture a lot with known
// (yield, n0), first-fail test every chip, reduce to the Table 1
// fallout format, and estimate n0 back by both methods. The
// once-per-circuit work lives in LotRunner; RunTable1 is one lot
// through it plus the estimation pipeline.
func RunTable1(cfg Table1Config) (Table1Result, error) {
	lr, err := NewLotRunner(cfg)
	if err != nil {
		return Table1Result{}, err
	}
	return runTable1(lr, cfg)
}

// RunTable1From is RunTable1 against an existing Prepared artifact
// (e.g. one loaded from an on-disk store), skipping the
// once-per-circuit preparation entirely.
func RunTable1From(prep *circuits.Prepared, cfg Table1Config) (Table1Result, error) {
	lr, err := NewLotRunnerFrom(prep, cfg)
	if err != nil {
		return Table1Result{}, err
	}
	return runTable1(lr, cfg)
}

func runTable1(lr *LotRunner, cfg Table1Config) (Table1Result, error) {
	outcome, err := lr.RunLot(cfg.Yield, cfg.N0, cfg.Chips, cfg.Seed)
	if err != nil {
		return Table1Result{}, err
	}
	fitRes, err := estimate.FitN0(outcome.Curve, cfg.Yield)
	if err != nil {
		return Table1Result{}, err
	}
	slopeRes, err := estimate.SlopeN0(outcome.Curve, cfg.Yield, outcome.Curve[0].F*1.5+1e-9)
	if err != nil {
		return Table1Result{}, err
	}
	// Re-analyze the paper's published table with the same estimators.
	paperFit, err := estimate.FitN0(estimate.PaperTable1.Curve, estimate.PaperTable1.Yield)
	if err != nil {
		return Table1Result{}, err
	}
	paperSlope, err := estimate.SlopeN0(estimate.PaperTable1.Curve[:1], estimate.PaperTable1.Yield, 0.06)
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{
		Config:       cfg,
		CircuitStats: lr.prep.Stats,
		FaultCount:   lr.prep.FaultCount(),
		FinalCov:     lr.prep.FinalCoverage(),
		Rows:         outcome.Rows,
		Curve:        outcome.Curve,
		TrueN0:       outcome.TrueN0,
		FitN0:        fitRes.N0,
		SlopeN0:      slopeRes.N0,
		LotYield:     outcome.LotYield,
		TestedYield:  outcome.TestedYield,
		Escapes:      outcome.Escapes,
		PaperFitN0:   paperFit.N0,
		PaperSlopeN0: paperSlope.N0,
	}, nil
}

// physicalFor tunes the physical defect model so the implied yield and
// n0 match the requested ground truth: Poisson defects with
// D0A = -ln(y), faults-per-defect solved so ExpectedN0 = n0.
func physicalFor(y, n0 float64) (defect.Model, error) {
	if !(y > 0 && y < 1) {
		return defect.Model{}, fmt.Errorf("experiment: yield must be in (0,1)")
	}
	d0a := -ln(y)
	// ExpectedN0 = fpd * d0a / (1 - y)  =>  fpd = n0 (1-y) / d0a.
	fpd := n0 * (1 - y) / d0a
	if fpd < 1 {
		fpd = 1
	}
	return defect.Model{D0A: d0a, FaultsPerDefect: fpd, Locality: 0.6}, nil
}

// ln is a tiny alias to keep physicalFor readable.
func ln(x float64) float64 { return math.Log(x) }

// rampCheckpoints picks strobe step indices near the paper's Table 1
// coverage rows (5, 8, 10, 15, 20, 30, 36, 45, 50, 65 percent), plus
// the final step; targets the ramp never reaches are skipped. k caps
// the row count. The ramp is change-point compressed, and coverage
// only moves at change points, so the first step crossing a target is
// always a change point — walking Points visits exactly the steps the
// dense curve would have selected.
func rampCheckpoints(ramp faultsim.Ramp, k int) []int {
	if ramp.Steps == 0 {
		return nil
	}
	targets := []float64{0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.36, 0.45, 0.50, 0.65}
	var out []int
	ti := 0
	for _, pt := range ramp.Points {
		for ti < len(targets) && pt.Coverage >= targets[ti] {
			out = append(out, pt.Pattern)
			ti++
			if len(out) >= k {
				break
			}
		}
		if len(out) >= k || ti >= len(targets) {
			break
		}
	}
	// Deduplicate (one step can cross several targets) and append the
	// final step.
	dedup := out[:0]
	prev := -1
	for _, i := range out {
		if i != prev {
			dedup = append(dedup, i)
			prev = i
		}
	}
	out = dedup
	if len(out) == 0 || out[len(out)-1] != ramp.Steps-1 {
		out = append(out, ramp.Steps-1)
	}
	return out
}

// Render prints the synthetic Table 1 alongside the recovered
// parameters and the paper's own numbers, plus the Fig. 5 overlay.
func (r Table1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1 (synthetic rerun) — circuit %s\n", r.CircuitStats)
	fmt.Fprintf(&sb, "collapsed faults: %d, pattern-set coverage: %.3f\n", r.FaultCount, r.FinalCov)
	fmt.Fprintf(&sb, "lot: %d chips, true yield %.3f (target %.2f), tested yield %.3f, escapes %d\n\n",
		r.Config.Chips, r.LotYield, r.Config.Yield, r.TestedYield, r.Escapes)
	tb := tablefmt.New("coverage (%)", "cum chips failed", "cum fraction")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprintf("%.1f", row.Coverage*100), row.CumFailed, fmt.Sprintf("%.2f", row.CumFracton))
	}
	sb.WriteString(tb.String())
	fmt.Fprintf(&sb, "\nn0 ground truth (lot mean): %.2f\n", r.TrueN0)
	fmt.Fprintf(&sb, "n0 curve fit:  %.2f   n0 slope: %.2f\n", r.FitN0, r.SlopeN0)
	fmt.Fprintf(&sb, "paper's data re-analyzed: curve fit %.2f (paper: ~8), slope %.2f (paper: 8.8)\n",
		r.PaperFitN0, r.PaperSlopeN0)
	sb.WriteString("\n")
	sb.WriteString(r.RenderFig5())
	return sb.String()
}

// RenderFig5 draws the Fig. 5 overlay: the P(f) family for n0 = 1..12
// with the experimental fallout points.
func (r Table1Result) RenderFig5() string {
	p := textplot.Plot{
		Title:  "Fig. 5 — n0 determination: P(f) family (n0 = 2,4,8,12) + lot data (@)",
		XLabel: "fault coverage f",
		YLabel: "fraction of chips failed P(f)",
	}
	fs := make([]float64, 101)
	for i := range fs {
		fs[i] = float64(i) / 100
	}
	for _, n0 := range []float64{2, 4, 8, 12} {
		m, err := core.New(r.Config.Yield, n0)
		if err != nil {
			continue
		}
		ys := make([]float64, len(fs))
		for i, f := range fs {
			ys[i] = m.Fallout(f)
		}
		p.Add(textplot.Series{Name: fmt.Sprintf("n0=%g", n0), X: fs, Y: ys})
	}
	p.Add(textplot.Series{
		Name: "lot", Marker: '@',
		X: r.Curve.Coverages(), Y: r.Curve.Fractions(),
	})
	return p.Render()
}
