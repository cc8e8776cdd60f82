package circuits

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

// Params are the test-program knobs that shape a Prepared artifact.
// Two preparations with equal Params over the same circuit are
// interchangeable, which is what lets the Cache key on (spec, Params).
type Params struct {
	// RandomPatterns seeds the ordered production test set before the
	// deterministic PODEM cleanup.
	RandomPatterns int
	// Seed makes the test program reproducible.
	Seed int64
	// Engine names the fault-simulation engine for ATPG dropping and
	// the coverage ramp. PPSFP, the zero value, is the only one;
	// Validate rejects any other.
	Engine faultsim.Engine
	// SimWorkers is the number of fault-list shards each fault
	// simulation runs, one goroutine each (faultsim.Options.Workers;
	// 0 = one, inline). It only affects speed.
	SimWorkers int
	// BacktrackLimit bounds PODEM's search per fault during cleanup
	// ATPG (0 = the generator's default). Faults that exhaust the
	// budget are tallied as Aborted instead of stalling the whole
	// preparation — the knob that makes ISCAS-scale circuits finish.
	BacktrackLimit int
	// SampleFaults, when > 0, prepares against a deterministic random
	// sample of at most this many collapsed fault classes instead of
	// the full universe. ATPG, the coverage ramp, and lot generation
	// all operate coherently on the sample; CoverageCILow/High bound
	// the true whole-universe coverage. Zero means no sampling.
	SampleFaults int
}

// Validate rejects parameter values no preparation could honor.
func (p Params) Validate() error {
	if p.RandomPatterns < 0 {
		return fmt.Errorf("circuits: random pattern count must be >= 0, got %d", p.RandomPatterns)
	}
	if !p.Engine.Known() {
		return fmt.Errorf("circuits: unknown fault-simulation engine %v (registered: %v)", p.Engine, faultsim.PPSFP)
	}
	if p.SimWorkers < 0 {
		return fmt.Errorf("circuits: sim worker count must be >= 0, got %d", p.SimWorkers)
	}
	if p.BacktrackLimit < 0 {
		return fmt.Errorf("circuits: backtrack limit must be >= 0, got %d", p.BacktrackLimit)
	}
	if p.SampleFaults < 0 {
		return fmt.Errorf("circuits: fault sample size must be >= 0, got %d", p.SampleFaults)
	}
	return nil
}

// Prepared is the once-per-circuit artifact everything downstream
// consumes: the validated circuit, its (possibly sampled) collapsed
// fault universe, the ordered production test program, and the
// strobe-granular coverage ramp. Its exported fields are read-only
// after Prepare (or Store.Load), so any number of lots, replicates, and
// worker goroutines may share one instance. Beside them it holds the
// program's tester image, built on the first NewATE, and the ATEs
// handed back through ReleaseATE; both are safe for concurrent use, and
// each concurrent tester takes its own ATE from NewATE.
type Prepared struct {
	Circuit *netlist.Circuit
	Stats   netlist.Stats
	Params  Params
	// UniverseSize is the size of the full collapsed fault universe
	// (one representative per equivalence class), before any sampling.
	UniverseSize int
	// Sampled reports whether Universe is a proper random sample of
	// the full universe (Params.SampleFaults was set and smaller than
	// UniverseSize).
	Sampled bool
	// Universe is the working fault list: the full collapsed universe,
	// or the deterministic sample when Sampled.
	Universe []fault.Fault
	// Patterns is the ordered production test set: bring-up and
	// rising-weight random first (the gentle early ramp before the
	// paper's first strobe), uniform random, then PODEM cleanup.
	Patterns []logicsim.Pattern
	// ATPG tallies the per-fault PODEM outcomes over Universe:
	// Detected + Untestable + Aborted = Faults. Aborted > 0 means the
	// backtrack budget truncated the search somewhere.
	ATPG atpg.Tally
	// Curve is the cumulative coverage ramp at strobe granularity
	// (pattern × output), change-point compressed so memory stays
	// bounded at LSI scale; the bookkeeping the Sentry used for
	// Table 1.
	Curve faultsim.Ramp
	// Result is the full-program fault-simulation outcome over
	// Universe.
	Result faultsim.Result
	// CoverageCILow/CoverageCIHigh bound the true whole-universe final
	// coverage at 95% confidence. Without sampling both collapse to
	// the exact final coverage.
	CoverageCILow  float64
	CoverageCIHigh float64

	// prog is the tester image of Circuit and Patterns, built once by
	// the first NewATE (progOnce; progErr keeps a failed build) and
	// never serialized.
	progOnce sync.Once
	prog     atomic.Pointer[tester.Program]
	progErr  error
	// idle holds the released ATEs of prog for NewATE to reuse. An ATE
	// is only built while idle is empty, so the list never holds more
	// than the most ATEs ever in use at once.
	mu   sync.Mutex
	idle []*tester.ATE
}

// Prepare performs the once-per-circuit work as a staged pipeline:
// stats, fault collapsing and optional sampling, budgeted test-set
// construction (ATPG), the sparse strobe-granular coverage ramp, and
// the coverage confidence interval. It is the uncached entry point;
// campaigns share artifacts through a Cache.
func Prepare(c *netlist.Circuit, p Params) (*Prepared, error) {
	if c == nil {
		return nil, fmt.Errorf("circuits: nil circuit")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Stage 1: structural validation and stats.
	stats, err := c.ComputeStats()
	if err != nil {
		return nil, err
	}
	// Stage 2: fault universe — collapse, then optionally sample. The
	// sample is drawn before ATPG so generation, dropping, the ramp,
	// and lot generation all see the same fault list.
	full := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	universe := full
	sampled := false
	if p.SampleFaults > 0 && p.SampleFaults < len(full) {
		universe = sampleFaults(full, p.SampleFaults, p.Seed)
		sampled = true
	}
	// Stage 3: budgeted production test program over the working
	// universe, graded pattern by pattern as it is built.
	opts := faultsim.Options{Workers: p.SimWorkers}
	patterns, tally, res, err := atpg.ProductionTestsBudget(c, p.RandomPatterns/2, p.RandomPatterns/2,
		p.Seed, universe, p.BacktrackLimit, opts)
	if err != nil {
		return nil, err
	}
	// Stage 4: refine the cleanup's first detects to strobes, and the
	// sparse ramp.
	simRes, err := faultsim.StepsFrom(c, universe, patterns, res)
	if err != nil {
		return nil, err
	}
	ramp := faultsim.SparseRamp(simRes)
	// Stage 5: bound the true whole-universe coverage.
	ciLo, ciHi := simRes.Coverage(), simRes.Coverage()
	if sampled {
		if ciLo, ciHi, err = dist.SampleCoverageCI(len(full), len(universe), tally.Detected, 0.95); err != nil {
			return nil, fmt.Errorf("circuits: coverage interval: %w", err)
		}
	}
	return &Prepared{
		Circuit:        c,
		Stats:          stats,
		Params:         p,
		UniverseSize:   len(full),
		Sampled:        sampled,
		Universe:       universe,
		Patterns:       patterns,
		ATPG:           tally,
		Curve:          ramp,
		Result:         simRes,
		CoverageCILow:  ciLo,
		CoverageCIHigh: ciHi,
	}, nil
}

// sampleFaults draws m faults from full without replacement, using a
// private splitmix64 stream derived from seed — no global rand state,
// so preparation stays reproducible regardless of what else the
// process is doing. The sample keeps universe order (indices sorted
// ascending), which keeps fault-index-based bookkeeping stable.
func sampleFaults(full []fault.Fault, m int, seed int64) []fault.Fault {
	idx := make([]int, len(full))
	for i := range idx {
		idx[i] = i
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0x7552
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < m; i++ {
		j := i + int(next()%uint64(len(idx)-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := idx[:m]
	sort.Ints(chosen)
	out := make([]fault.Fault, m)
	for i, id := range chosen {
		out[i] = full[id]
	}
	return out
}

// PrepareSpec resolves a unit spec and prepares it, uncached.
func PrepareSpec(spec string, p Params) (*Prepared, error) {
	c, err := Resolve(spec)
	if err != nil {
		return nil, err
	}
	return Prepare(c, p)
}

// FinalCoverage returns the pattern set's final fault coverage over
// the working universe (the sample's coverage when Sampled; see
// CoverageCILow/High for the whole-universe bound).
func (pr *Prepared) FinalCoverage() float64 { return pr.Result.Coverage() }

// FaultCount returns the size of the working fault universe.
func (pr *Prepared) FaultCount() int { return len(pr.Universe) }

// NewATE returns a tester over the shared pattern set: one released
// through ReleaseATE when there is one, else a new ATE over the
// program's tester image (tester.Program), which the first call builds
// — packing the patterns and simulating the good machine once for every
// ATE of this Prepared. It installs Result as the ATE's single-fault
// first-fail table for Universe (tester.UseFirstDetects), so one-fault
// chips of lots over Universe skip simulation. One ATE serves any number
// of sequential calls; concurrent consumers take one each.
func (pr *Prepared) NewATE() (*tester.ATE, error) {
	ate, err := pr.takeATE()
	if err != nil {
		return nil, err
	}
	if err := ate.UseFirstDetects(pr.Universe, pr.Result); err != nil {
		return nil, err
	}
	return ate, nil
}

// takeATE pops an idle ATE or builds one over the program.
func (pr *Prepared) takeATE() (*tester.ATE, error) {
	pr.mu.Lock()
	if n := len(pr.idle); n > 0 {
		ate := pr.idle[n-1]
		pr.idle[n-1] = nil
		pr.idle = pr.idle[:n-1]
		pr.mu.Unlock()
		return ate, nil
	}
	pr.mu.Unlock()
	pr.progOnce.Do(func() {
		prog, err := tester.NewProgram(pr.Circuit, pr.Patterns)
		pr.prog.Store(prog)
		pr.progErr = err
	})
	if pr.progErr != nil {
		return nil, pr.progErr
	}
	return pr.prog.Load().NewATE(), nil
}

// ReleaseATE hands back an ATE from NewATE that its holder is done
// with, for a later NewATE to reuse; the holder must not use it again.
// Release only an ATE whose last lot succeeded. An ATE built from
// another program (another Prepared's, or tester.New's), or one already
// released, is refused.
func (pr *Prepared) ReleaseATE(ate *tester.ATE) error {
	if prog := pr.prog.Load(); ate == nil || prog == nil || ate.Program() != prog {
		return fmt.Errorf("circuits: ATE not built from this Prepared's program")
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if slices.Contains(pr.idle, ate) {
		return fmt.Errorf("circuits: ATE released twice")
	}
	pr.idle = append(pr.idle, ate)
	return nil
}
