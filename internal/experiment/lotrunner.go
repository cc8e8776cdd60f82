package experiment

import (
	"math/rand"

	"repro/internal/circuits"
	"repro/internal/defect"
	"repro/internal/estimate"
	"repro/internal/tester"
)

// LotRunner runs §5 lots against a circuits.Prepared artifact — the
// circuit, its collapsed fault universe, the ordered production test
// set, and the strobe-granular coverage ramp — so that many lots
// (different yields, n0s, lot sizes, seeds) can be manufactured and
// tested against the same test program without repeating ATPG or fault
// simulation. RunTable1 runs one lot through it; internal/sweep fans
// out thousands, sharing one Prepared per circuit via a circuits.Cache.
//
// A LotRunner is safe for concurrent RunLot calls: the shared state is
// read-only after construction except the ATE's scratch, so each RunLot
// takes its own tester from the Prepared artifact (NewATE) and hands it
// back when the lot is done. A worker goroutine running many lots may
// instead hold one ATE from NewATE across its RunLotWith calls and
// release it to the Prepared artifact (circuits.Prepared.ReleaseATE)
// when it finishes. Either way the program's good machine is simulated
// once per Prepared, not per tester.
type LotRunner struct {
	cfg         Table1Config
	prep        *circuits.Prepared
	checkpoints []int // Table 1 reduction points on the ramp
}

// NewLotRunner validates the configuration and performs the
// once-per-circuit preparation uncached (circuits.Prepare): test-set
// construction and the strobe-granular coverage ramp. Campaigns that
// reuse circuits should prepare through a circuits.Cache and call
// NewLotRunnerFrom instead.
func NewLotRunner(cfg Table1Config) (*LotRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.Circuit
	if c == nil {
		var err error
		c, err = circuits.Resolve(DefaultCircuitSpec)
		if err != nil {
			return nil, err
		}
	}
	prep, err := circuits.Prepare(c, cfg.PrepareParams())
	if err != nil {
		return nil, err
	}
	return NewLotRunnerFrom(prep, cfg)
}

// NewLotRunnerFrom builds a LotRunner over an existing Prepared
// artifact; only the cheap lot-level state (the Table 1 checkpoint
// selection) is computed here, so constructing many runners over one
// artifact costs nothing. The artifact overrides cfg.Circuit.
func NewLotRunnerFrom(prep *circuits.Prepared, cfg Table1Config) (*LotRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LotRunner{
		cfg:  cfg,
		prep: prep,
		// Ten Table 1 checkpoints spread over the ramp; depends only on
		// the curve, so compute once here rather than per lot.
		checkpoints: rampCheckpoints(prep.Curve, 10),
	}, nil
}

// Prepared returns the shared once-per-circuit artifact.
func (lr *LotRunner) Prepared() *circuits.Prepared { return lr.prep }

// NewATE takes a tester over the shared pattern set from the Prepared
// artifact (circuits.Prepared.NewATE). One ATE serves any number of
// sequential RunLotWith calls; concurrent callers need one each.
func (lr *LotRunner) NewATE() (*tester.ATE, error) {
	return lr.prep.NewATE()
}

// LotOutcome is one manufactured-and-tested lot: the raw step-granular
// first-fail record plus the Table 1 reduction the estimators consume.
type LotOutcome struct {
	// Chips is the lot size, Good the number of fault-free chips.
	Chips, Good int
	// TrueN0 is the lot's empirical mean fault count on defective chips.
	TrueN0 float64
	// LotYield is the achieved fraction of fault-free chips.
	LotYield float64
	// TestedYield is the fraction passing the whole pattern set.
	TestedYield float64
	// Escapes counts defective chips that passed every pattern.
	Escapes int
	// FirstFail[i] is chip i's first failing strobe step (pattern ×
	// output granularity), or tester.NeverFails.
	FirstFail []int
	// Rows is the Table 1 fallout reduction at the ramp checkpoints.
	Rows []tester.FalloutRow
	// Curve is Rows in the estimators' input format.
	Curve estimate.Curve
}

// RunLot manufactures and tests one lot at the given ground truth on an
// ATE taken from NewATE, and releases the ATE once the lot succeeded.
// Seed controls only the lot, not the test set.
func (lr *LotRunner) RunLot(y, n0 float64, chips int, seed int64) (LotOutcome, error) {
	ate, err := lr.NewATE()
	if err != nil {
		return LotOutcome{}, err
	}
	out, err := lr.RunLotWith(ate, y, n0, chips, seed)
	if err != nil {
		return LotOutcome{}, err
	}
	return out, lr.prep.ReleaseATE(ate)
}

// RunLotWith is RunLot against a caller-held ATE (from NewATE), letting
// worker goroutines keep one ATE's scratch across many replicates.
func (lr *LotRunner) RunLotWith(ate *tester.ATE, y, n0 float64, chips int, seed int64) (LotOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	var lot defect.Lot
	var err error
	if lr.cfg.Physical {
		model, err := physicalFor(y, n0)
		if err != nil {
			return LotOutcome{}, err
		}
		lot, err = defect.GenerateLot(model, lr.prep.Universe, chips, rng)
		if err != nil {
			return LotOutcome{}, err
		}
	} else {
		lot, err = defect.GenerateLotFromModel(y, n0, lr.prep.Universe, chips, rng)
		if err != nil {
			return LotOutcome{}, err
		}
	}
	lotRes, err := ate.TestLotSteps(lot)
	if err != nil {
		return LotOutcome{}, err
	}
	// Reduce to Table 1 format at the precomputed ramp checkpoints.
	rows, err := tester.FalloutTableRamp(lotRes, lr.prep.Curve, lr.checkpoints)
	if err != nil {
		return LotOutcome{}, err
	}
	estCurve := make(estimate.Curve, len(rows))
	for i, r := range rows {
		estCurve[i] = estimate.FalloutPoint{F: r.Coverage, Fail: r.CumFracton}
	}
	good := 0
	for _, ch := range lot.Chips {
		if !ch.Defective() {
			good++
		}
	}
	return LotOutcome{
		Chips:       chips,
		Good:        good,
		TrueN0:      lot.MeanFaultsOnDefective(),
		LotYield:    lot.Yield,
		TestedYield: lotRes.TestedYield,
		Escapes:     lotRes.Escapes,
		FirstFail:   lotRes.FirstFail,
		Rows:        rows,
		Curve:       estCurve,
	}, nil
}
