// Package sweep is the Monte-Carlo validation engine for the paper's
// headline claim: it replicates the §5 lot experiment R times per grid
// cell of (circuit, yield, n0, lot size), truncates every replicate's
// test program at a set of coverage points, and aggregates the
// empirical reject rate — escapes over shipped chips — with confidence
// intervals to overlay on the analytic Eq. 8 curve. The circuit axis is
// what turns single-circuit reproduction into a multi-workload
// campaign: the paper's claim is about defect statistics, not one lucky
// netlist, so the same grid runs over every workload spec given.
//
// The expensive once-per-circuit work (ATPG, the strobe-granular
// coverage ramp) happens exactly once per circuit, in a
// circuits.Prepared artifact shared by all replicates through a
// circuits.Cache; each worker goroutine clones only a tester.
// Per-replicate seeds are derived from the base seed with a splitmix64
// mix of the replicate's global task index (which spans the circuit
// axis too), and aggregation runs over replicates in index order, so
// results are bit-identical regardless of worker count or scheduling.
package sweep

import (
	"fmt"
	"sync"

	"repro/internal/atpg"
	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// Config parameterizes a sweep: the workloads, the shared test-program
// knobs (pattern budget, engine, seed), and the experiment grid.
type Config struct {
	// Circuits are the workload specs spanning the campaign's circuit
	// axis, resolved through the internal/circuits registry (builtins,
	// rand<seed>, bench: files, directories, globs). Each resolved
	// circuit is one slice of the grid. Must be non-empty.
	Circuits []string
	// Cache, when non-nil, shares Prepared artifacts (ATPG + ramp)
	// across campaigns; nil gives this sweep a private cache. Either
	// way each circuit is prepared exactly once per cache.
	// Excluded from JSON output — the cache is not a result.
	Cache *circuits.Cache `json:"-"`
	// Yields, N0s, and LotSizes span the grid; every combination (per
	// circuit) is one cell. Each must be non-empty.
	Yields   []float64
	N0s      []float64
	LotSizes []int
	// Coverages are the truncation targets: each replicate's test
	// program is cut at the first strobe reaching the target, and the
	// reject rate of the shipped (passing) chips is measured there.
	// Each must be in (0, 1] and reachable by every circuit's pattern
	// set.
	Coverages []float64
	// Replicates is the number of independent lots per cell.
	Replicates int
	// Workers sizes the replicate worker pool; 0 means GOMAXPROCS, and
	// above experiment.WorkerCap is refused. The aggregates do not
	// depend on it.
	Workers int
	// RandomPatterns, Seed, Physical, Engine, and SimWorkers configure
	// the per-circuit test program exactly as in experiment.Table1Config;
	// SimWorkers is the fault-list shard count of each fault simulation
	// (0 = one) and only affects speed. Engine must be PPSFP, the zero
	// value.
	RandomPatterns int
	Seed           int64
	Physical       bool
	Engine         faultsim.Engine
	SimWorkers     int
	// BacktrackLimit bounds PODEM's per-fault search during cleanup
	// ATPG (0 = the generator's default); results-relevant, so part of
	// the campaign fingerprint.
	BacktrackLimit int
	// SampleFaults, when > 0, prepares each workload against a
	// deterministic random sample of at most this many collapsed fault
	// classes — the knob that makes ISCAS-scale circuits sweepable.
	// Results-relevant, so part of the campaign fingerprint.
	SampleFaults int
	// PreparedDir, when non-empty, backs this sweep's artifact cache
	// with an on-disk Prepared store: a warm store skips ATPG and
	// fault simulation entirely, and the results are byte-identical to
	// a cold run. Ignored when Cache is provided (the caller already
	// chose a caching policy). Not results-relevant: excluded from the
	// fingerprint and from JSON output.
	PreparedDir string `json:"-"`
	// LotEngine names the ATE's lot-testing engine; it must be
	// chipparallel256, the zero value.
	LotEngine tester.LotEngine
}

// table1 builds the lot-runner configuration for one grid point.
func (c Config) table1(y, n0 float64, chips int) experiment.Table1Config {
	return experiment.Table1Config{
		Chips:          chips,
		Yield:          y,
		N0:             n0,
		RandomPatterns: c.RandomPatterns,
		Seed:           c.Seed,
		Physical:       c.Physical,
		Engine:         c.Engine,
		SimWorkers:     c.SimWorkers,
		BacktrackLimit: c.BacktrackLimit,
		SampleFaults:   c.SampleFaults,
		LotEngine:      c.LotEngine,
	}
}

// Validate rejects empty or nonsense grids before any work happens.
// Every grid cell must form a valid experiment.Table1Config, and every
// circuit spec must expand (a typo fails here, not mid-campaign).
func (c Config) Validate() error {
	units, err := c.expandUnits()
	if err != nil {
		return err
	}
	return c.validateGrid(len(units))
}

// expandUnits expands the circuit axis to unit specs.
func (c Config) expandUnits() ([]string, error) {
	if len(c.Circuits) == 0 {
		return nil, fmt.Errorf("sweep: need at least one circuit spec")
	}
	return circuits.ExpandAll(c.Circuits)
}

// validateGrid is Validate minus the spec expansion, so New — which
// needs the expanded unit list anyway — expands exactly once and runs
// the campaign over the same units it validated. units is the length of
// that list: it scales the task count, which must stay within
// experiment.SizeCap.
func (c Config) validateGrid(units int) error {
	if len(c.Yields) == 0 {
		return fmt.Errorf("sweep: need at least one yield")
	}
	if len(c.N0s) == 0 {
		return fmt.Errorf("sweep: need at least one n0")
	}
	if len(c.LotSizes) == 0 {
		return fmt.Errorf("sweep: need at least one lot size")
	}
	if len(c.Coverages) == 0 {
		return fmt.Errorf("sweep: need at least one coverage target")
	}
	for _, f := range c.Coverages {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("sweep: coverage target must be in (0,1], got %v", f)
		}
	}
	if c.Replicates < 1 {
		return fmt.Errorf("sweep: need at least one replicate, got %d", c.Replicates)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sweep: worker count must be >= 0, got %d", c.Workers)
	}
	if c.Workers > experiment.WorkerCap {
		return fmt.Errorf("sweep: worker count %d above the cap of %d: %w",
			c.Workers, experiment.WorkerCap, experiment.ErrTooLarge)
	}
	// The task count is cells × replicates. Multiply it up one factor at
	// a time against the cap (the leading 1 checks the replicates
	// alone), so the product never overflows; every factor is >= 1 here
	// (ExpandAll never returns an empty unit list).
	tasks := c.Replicates
	for _, k := range []int{1, units, len(c.Yields), len(c.N0s), len(c.LotSizes)} {
		if tasks > experiment.SizeCap/k {
			return fmt.Errorf("sweep: task count (cells × replicates) above the cap of %d: %w",
				experiment.SizeCap, experiment.ErrTooLarge)
		}
		tasks *= k
	}
	for _, y := range c.Yields {
		for _, n0 := range c.N0s {
			for _, chips := range c.LotSizes {
				if err := c.table1(y, n0, chips).Validate(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// workload is one circuit's slice of the campaign: its shared Prepared
// artifact, the lot runner over it, and the campaign's coverage targets
// resolved against this circuit's own ramp.
type workload struct {
	spec string // unit spec that produced the circuit
	prep *circuits.Prepared
	lr   *experiment.LotRunner
	cuts []cut
}

// cellKey is one grid cell.
type cellKey struct {
	w     int // workload index
	y, n0 float64
	chips int
}

// cellList enumerates the grid in deterministic order: circuit
// outermost, then yield, n0, lot size.
func (s *Sweeper) cellList() []cellKey {
	var cells []cellKey
	for w := range s.workloads {
		for _, y := range s.cfg.Yields {
			for _, n0 := range s.cfg.N0s {
				for _, chips := range s.cfg.LotSizes {
					cells = append(cells, cellKey{w: w, y: y, n0: n0, chips: chips})
				}
			}
		}
	}
	return cells
}

// replicateSeed derives the per-replicate lot seed from the base seed
// and the replicate's global task index via the splitmix64 finalizer.
// Consecutive indices land on decorrelated streams, and the mapping
// depends only on (base, task) — never on which worker runs the task.
func replicateSeed(base int64, task int) int64 {
	z := uint64(base) + uint64(task+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// cut is one resolved truncation point of a workload's test program.
type cut struct {
	Target   float64 // requested coverage
	Coverage float64 // achieved coverage at the cut strobe
	Step     int     // last strobe index included in the truncated program
}

// Sweeper is a configured sweep with its once-per-circuit state built.
type Sweeper struct {
	cfg         Config
	workloads   []workload
	cells       []cellKey
	fingerprint string
}

// New validates the configuration, prepares every workload exactly once
// through the artifact cache (ATPG + coverage ramp), and resolves every
// coverage target to a strobe cut on each circuit's own ramp.
// Unreachable targets are an error naming the circuit, not a silent
// skip. The campaign runs over exactly the unit list that was
// validated — specs are expanded once, not re-read.
func New(cfg Config) (*Sweeper, error) {
	units, err := cfg.expandUnits()
	if err != nil {
		return nil, err
	}
	if err := cfg.validateGrid(len(units)); err != nil {
		return nil, err
	}
	cache := cfg.Cache
	if cache == nil {
		if cfg.PreparedDir != "" {
			store, err := circuits.NewStore(cfg.PreparedDir)
			if err != nil {
				return nil, err
			}
			cache = circuits.NewCacheWithStore(store)
		} else {
			cache = circuits.NewCache()
		}
	}
	// Any valid grid point serves for the runner's config validation,
	// and its PrepareParams is the preparation key every workload of
	// this sweep shares.
	t1 := cfg.table1(cfg.Yields[0], cfg.N0s[0], cfg.LotSizes[0])
	// Cold preparations are the expensive once-per-circuit work (ATPG +
	// coverage ramp); the cache serializes same-key builds and lets
	// distinct keys build in parallel, so fan the campaign's workloads
	// out instead of paying N sequential preps at startup. The first
	// error by unit index wins, keeping failures deterministic.
	preps := make([]*circuits.Prepared, len(units))
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i, unit := range units {
		wg.Add(1)
		go func(i int, unit string) {
			defer wg.Done()
			preps[i], errs[i] = cache.Get(unit, t1.PrepareParams())
		}(i, unit)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := &Sweeper{cfg: cfg, workloads: make([]workload, len(units))}
	for i, unit := range units {
		lr, err := experiment.NewLotRunnerFrom(preps[i], t1)
		if err != nil {
			return nil, err
		}
		cuts, err := resolveCuts(preps[i], cfg.Coverages)
		if err != nil {
			return nil, err
		}
		s.workloads[i] = workload{spec: unit, prep: preps[i], lr: lr, cuts: cuts}
	}
	s.cells = s.cellList()
	s.fingerprint = fingerprint(units, cfg)
	return s, nil
}

// resolveCuts maps the requested coverage targets onto one circuit's
// strobe-granular ramp. Coverage only moves at the ramp's change
// points, so the first step reaching a target is always a change point
// — FirstReaching lands on exactly the strobe a dense scan would.
func resolveCuts(prep *circuits.Prepared, targets []float64) ([]cut, error) {
	cuts := make([]cut, len(targets))
	for i, target := range targets {
		pt, ok := prep.Curve.FirstReaching(target)
		if !ok {
			return nil, fmt.Errorf("sweep: coverage target %v unreachable on %s (pattern set tops out at %.4f)",
				target, prep.Circuit.Name, prep.FinalCoverage())
		}
		cuts[i] = cut{Target: target, Coverage: pt.Coverage, Step: pt.Pattern}
	}
	return cuts, nil
}

// Workloads returns the resolved circuit count (for reporting).
func (s *Sweeper) Workloads() int { return len(s.workloads) }

// Runner exposes a workload's LotRunner (for reporting circuit facts).
func (s *Sweeper) Runner(i int) *experiment.LotRunner { return s.workloads[i].lr }

// Run fans cells × replicates over the worker pool and aggregates. It
// is RunWith with no durability options: nothing checkpointed, nothing
// resumed — but the exact same store-fed fold, so the bytes match.
func (s *Sweeper) Run() (*Result, error) {
	return s.RunWith(RunOptions{})
}

// summarize manufactures and tests one replicate lot and reduces it to
// the per-replicate record the campaign store folds.
func (s *Sweeper) summarize(ate *tester.ATE, task int) (campaign.Summary, error) {
	cell := s.cells[task/s.cfg.Replicates]
	wl := s.workloads[cell.w]
	seed := replicateSeed(s.cfg.Seed, task)
	out, err := wl.lr.RunLotWith(ate, cell.y, cell.n0, cell.chips, seed)
	if err != nil {
		return campaign.Summary{}, err
	}
	sum := campaign.Summary{
		Passed:      make([]int, len(wl.cuts)),
		Escapes:     make([]int, len(wl.cuts)),
		TestedYield: out.TestedYield,
		LotYield:    out.LotYield,
		TrueN0:      out.TrueN0,
	}
	// A chip fails the program truncated at cut c iff its first failing
	// strobe is inside the prefix; everything else ships. Defective
	// shipped chips are the escapes the reject rate counts.
	for ci, c := range wl.cuts {
		failedChips := 0
		for _, ff := range out.FirstFail {
			if ff != tester.NeverFails && ff <= c.Step {
				failedChips++
			}
		}
		sum.Passed[ci] = cell.chips - failedChips
		sum.Escapes[ci] = sum.Passed[ci] - out.Good
	}
	if fit, err := estimate.FitN0(out.Curve, cell.y); err == nil {
		sum.FitOK = true
		sum.FitN0 = fit.N0
	}
	return sum, nil
}

// Run is the one-call convenience: New followed by Run.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// PointStat is the aggregated statistics at one (cell, coverage cut).
type PointStat struct {
	Target    float64 // requested coverage
	Coverage  float64 // achieved coverage at the cut
	AnalyticR float64 // Eq. 8 prediction at the achieved coverage
	MeanR     float64 // Monte-Carlo mean reject rate
	StdR      float64 // across-replicate standard deviation
	CILow     float64 // normal-approx 95% CI on the mean, clamped to [0,1]
	CIHigh    float64
	// RejSamples counts the replicates whose reject rate was defined
	// (at least one chip shipped); lots that ship nothing are excluded
	// from MeanR/StdR/CI rather than recorded as zero.
	RejSamples  int
	MeanEscapes float64
	MeanPassed  float64
}

// CellResult is one grid cell's aggregate.
type CellResult struct {
	Circuit    string // resolved circuit name of the cell's workload
	Yield      float64
	N0         float64
	Chips      int
	Replicates int
	Points     []PointStat
	// Whole-program statistics (no truncation).
	MeanTestedYield float64
	MeanLotYield    float64
	// n0 recovery: ground truth (lot mean) and the Fig. 5 curve fit,
	// aggregated over the replicates where the fit converged.
	TrueN0Mean  float64
	FitN0Count  int
	FitN0Mean   float64
	FitN0CILow  float64
	FitN0CIHigh float64
}

// WorkloadInfo is one circuit's preparation facts: what the campaign
// amortized across its cells and replicates.
type WorkloadInfo struct {
	Spec          string // unit spec the registry resolved
	Name          string // circuit name
	Stats         netlist.Stats
	FaultCount    int // working universe size (the sample when Sampled)
	PatternCount  int
	FinalCoverage float64
	// UniverseSize is the full collapsed fault universe; Sampled
	// reports whether FaultCount is a random sample of it, in which
	// case CoverageCILow/High bound the true whole-universe coverage
	// at 95% confidence.
	UniverseSize   int
	Sampled        bool
	CoverageCILow  float64
	CoverageCIHigh float64
	// ATPG tallies the per-fault PODEM outcomes (detected, untestable,
	// aborted at the backtrack budget).
	ATPG atpg.Tally
}

// Result is a finished sweep.
type Result struct {
	Config    Config
	Workloads []WorkloadInfo
	Cells     []CellResult
}
