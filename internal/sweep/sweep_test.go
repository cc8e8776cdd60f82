package sweep

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/experiment"
	"repro/internal/faultsim"
)

// smallConfig is the fixed-seed two-circuit grid the golden and
// determinism tests share: two workloads × two yields × one n0 × one
// lot size, two cuts.
func smallConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Circuits:       []string{"mul4", "cmp8"},
		Yields:         []float64{0.2, 0.4},
		N0s:            []float64{3},
		LotSizes:       []int{80},
		Coverages:      []float64{0.3, 0.6},
		Replicates:     4,
		Workers:        2,
		RandomPatterns: 32,
		Seed:           7,
	}
}

func TestSweepGolden(t *testing.T) {
	// Byte-for-byte pin of the CSV on a small fixed-seed two-circuit
	// grid: any change to spec expansion, seed derivation, aggregation
	// order, lot generation, or the test-set construction shows up here
	// first.
	res, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = `circuit,yield,n0,chips,replicates,target_coverage,coverage,analytic_r,mean_r,std_r,ci_lo,ci_hi,rej_samples,mean_escapes,mean_passed,mean_tested_yield,fit_n0_mean,true_n0_mean
mul4,0.2,3,80,4,0.3,0.310714,0.596948,0.635218,0.123345,0.514341,0.756094,4,28.75,45,0.20625,2.33543,2.97942
mul4,0.2,3,80,4,0.6,0.610714,0.314627,0.439935,0.163475,0.279733,0.600138,4,12.75,29,0.20625,2.33543,2.97942
mul4,0.4,3,80,4,0.3,0.310714,0.357079,0.361577,0.0645611,0.298309,0.424846,4,18,49.75,0.396875,2.96777,2.91392
mul4,0.4,3,80,4,0.6,0.610714,0.146865,0.192155,0.0486393,0.14449,0.239821,4,7.5,39.25,0.396875,2.96777,2.91392
cmp8,0.2,3,80,4,0.3,0.354167,0.559898,0.563987,0.0211573,0.543253,0.58472,4,23,40.75,0.221875,2.74853,3.02508
cmp8,0.2,3,80,4,0.6,0.604167,0.321083,0.284264,0.0456202,0.239557,0.328971,4,7,24.75,0.221875,2.74853,3.02508
cmp8,0.4,3,80,4,0.3,0.354167,0.322986,0.44255,0.0445465,0.398895,0.486204,4,23,51.75,0.359375,2.97535,3.077
cmp8,0.4,3,80,4,0.6,0.604167,0.150635,0.162144,0.0736697,0.0899487,0.234339,4,5.75,34.5,0.359375,2.97535,3.077
`
	if got := res.CSV(); got != want {
		t.Errorf("golden CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSweepGoldenPhysical(t *testing.T) {
	// The same grid through the physical-defect layer (Poisson defects
	// cast into logical faults by defect.Model.CastFaults): pins the
	// physical lot path byte-for-byte, as TestSweepGolden pins the
	// statistical one.
	cfg := smallConfig(t)
	cfg.Physical = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = `circuit,yield,n0,chips,replicates,target_coverage,coverage,analytic_r,mean_r,std_r,ci_lo,ci_hi,rej_samples,mean_escapes,mean_passed,mean_tested_yield,fit_n0_mean,true_n0_mean
mul4,0.2,3,80,4,0.3,0.310714,0.596948,0.654979,0.0566471,0.599466,0.710493,4,26.5,40.75,0.178125,2.82586,3.01179
mul4,0.2,3,80,4,0.6,0.610714,0.314627,0.492083,0.0818238,0.411897,0.572269,4,13.5,27.75,0.178125,2.82586,3.01179
mul4,0.4,3,80,4,0.3,0.310714,0.357079,0.404639,0.0593072,0.346519,0.462759,4,22.5,55.25,0.4125,2.17884,2.62715
mul4,0.4,3,80,4,0.6,0.610714,0.146865,0.217472,0.0643809,0.15438,0.280564,4,9.25,42,0.4125,2.17884,2.62715
cmp8,0.2,3,80,4,0.3,0.354167,0.559898,0.610671,0.0687113,0.543335,0.678007,4,27.75,45.25,0.21875,2.1399,3.24043
cmp8,0.2,3,80,4,0.6,0.604167,0.321083,0.406017,0.114769,0.293546,0.518489,4,12.25,29.75,0.21875,2.1399,3.24043
cmp8,0.4,3,80,4,0.3,0.354167,0.322986,0.424649,0.0656693,0.360294,0.489004,4,22,51.75,0.371875,2.66137,2.9303
cmp8,0.4,3,80,4,0.6,0.604167,0.150635,0.233563,0.0647696,0.17009,0.297036,4,9,38.75,0.371875,2.66137,2.9303
`
	if got := res.CSV(); got != want {
		t.Errorf("physical golden CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	// The aggregates must be bit-identical no matter how the replicates
	// are scheduled — including across the circuit axis: per-replicate
	// seeds depend only on the global task index, and aggregation folds
	// in index order.
	var results []*Result
	var csvs []string
	for _, workers := range []int{1, 8} {
		cfg := smallConfig(t)
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		csvs = append(csvs, res.CSV())
	}
	if csvs[0] != csvs[1] {
		t.Errorf("CSV differs between -workers 1 and -workers 8:\n%s\nvs\n%s", csvs[0], csvs[1])
	}
	// Everything except the worker count itself must match exactly.
	if !reflect.DeepEqual(results[0].Cells, results[1].Cells) {
		t.Error("aggregated cells differ between worker counts")
	}
	if !reflect.DeepEqual(results[0].Workloads, results[1].Workloads) {
		t.Error("workload info differs between worker counts")
	}
}

func TestSweepPreparesEachCircuitOnce(t *testing.T) {
	// The exactly-once guarantee of the campaign: however many cells,
	// replicates, and workers consume a circuit, its Prepared artifact
	// (ATPG + ramp) is built once. The counter-instrumented cache is
	// the proof.
	cache := circuits.NewCache()
	cfg := smallConfig(t)
	cfg.Cache = cache
	cfg.Workers = 8
	cfg.Replicates = 6
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Builds(), len(cfg.Circuits); got != want {
		t.Errorf("campaign built %d artifacts for %d circuits", got, want)
	}
	// A second campaign over the same cache (same specs and params)
	// rebuilds nothing.
	cfg2 := smallConfig(t)
	cfg2.Cache = cache
	cfg2.Yields = []float64{0.3}
	if _, err := Run(cfg2); err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Builds(), len(cfg.Circuits); got != want {
		t.Errorf("shared cache rebuilt artifacts: %d builds for %d circuits", got, want)
	}
}

func TestSweepValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no circuits", func(c *Config) { c.Circuits = nil }},
		{"unknown circuit", func(c *Config) { c.Circuits = []string{"mul4", "warp9"} }},
		{"no yields", func(c *Config) { c.Yields = nil }},
		{"no n0s", func(c *Config) { c.N0s = nil }},
		{"no lot sizes", func(c *Config) { c.LotSizes = nil }},
		{"no coverages", func(c *Config) { c.Coverages = nil }},
		{"coverage above 1", func(c *Config) { c.Coverages = []float64{1.5} }},
		{"zero coverage", func(c *Config) { c.Coverages = []float64{0} }},
		{"zero replicates", func(c *Config) { c.Replicates = 0 }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"bad yield in grid", func(c *Config) { c.Yields = []float64{0.2, 1.5} }},
		{"bad n0 in grid", func(c *Config) { c.N0s = []float64{-1} }},
		{"bad lot size in grid", func(c *Config) { c.LotSizes = []int{80, 0} }},
	}
	for _, tc := range cases {
		cfg := smallConfig(t)
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Sizes past experiment.SizeCap, and worker counts past
	// experiment.WorkerCap, fail Validate with the named sentinel before
	// anything is allocated or started; smallConfig has 4 cells, so
	// 250000 replicates is exactly the task cap.
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"lot size above cap", func(c *Config) { c.LotSizes = []int{80, experiment.SizeCap + 1} }},
		{"patterns above cap", func(c *Config) { c.RandomPatterns = 2000000000 }},
		{"replicates above cap", func(c *Config) { c.Replicates = 2000000000 }},
		{"tasks above cap", func(c *Config) { c.Replicates = experiment.SizeCap/4 + 1 }},
		{"workers above cap", func(c *Config) { c.Workers = experiment.WorkerCap + 1 }},
		{"sim workers above cap", func(c *Config) { c.SimWorkers = 1000000 }},
	} {
		cfg := smallConfig(t)
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, experiment.ErrTooLarge) {
			t.Errorf("%s: Validate error %v, want ErrTooLarge", tc.name, err)
		}
	}
	// An unregistered fault-simulation engine (1 is the retired serial
	// value) fails Validate, before any circuit is prepared.
	retired := smallConfig(t)
	retired.Engine = faultsim.Engine(1)
	if err := retired.Validate(); err == nil || !strings.Contains(err.Error(), "ppsfp") {
		t.Errorf("retired engine: Validate error %v, want one naming ppsfp", err)
	}
	atCap := smallConfig(t)
	atCap.Replicates = experiment.SizeCap / 4
	atCap.Workers, atCap.SimWorkers = experiment.WorkerCap, experiment.WorkerCap
	if err := atCap.Validate(); err != nil {
		t.Errorf("task and worker counts at the cap rejected: %v", err)
	}
	// A lot engine other than chipparallel256 fails Validate too.
	badLot := smallConfig(t)
	badLot.LotEngine = 1
	if err := badLot.Validate(); err == nil || !strings.Contains(err.Error(), "chipparallel256") {
		t.Errorf("lot engine 1: Validate error %v, want one naming chipparallel256", err)
	}
	// An unreachable coverage target is an error naming the circuit,
	// not a silent skip.
	cfg := smallConfig(t)
	cfg.Coverages = []float64{0.9999999}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("unreachable target: err = %v", func() error { _, e := New(cfg); return e }())
	}
}

func TestSweepRendersAllFormats(t *testing.T) {
	res, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, want := range []string{"Monte-Carlo", "2 workload(s)", "mul4", "cmp8", "analytic r", "95% CI", "fit n0"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"Workloads\"", "\"Cells\"", "\"Circuit\"", "\"AnalyticR\"", "\"CIHigh\""} {
		if !strings.Contains(js, want) {
			t.Errorf("json missing %q", want)
		}
	}
	if strings.Contains(js, "\"Gates\":null") || strings.Contains(js, "Fanin") {
		t.Error("json leaked the netlist")
	}
	plot := res.Plot()
	for _, want := range []string{"Eq. 8", "monte-carlo", "mul4", "cmp8"} {
		if !strings.Contains(plot, want) {
			t.Errorf("plot missing %q:\n%s", want, plot)
		}
	}
}

func TestReplicateSeedsDecorrelated(t *testing.T) {
	// Neighbouring task indices and neighbouring base seeds must land
	// on distinct streams.
	seen := map[int64]bool{}
	for base := int64(0); base < 8; base++ {
		for task := 0; task < 256; task++ {
			s := replicateSeed(base, task)
			if seen[s] {
				t.Fatalf("seed collision at base=%d task=%d", base, task)
			}
			seen[s] = true
		}
	}
}

// TestSweepBracketsPaperHeadline is the acceptance check: on the
// (y=0.07) column the Monte-Carlo 95% CI at f≈0.80 brackets r = 1% and
// at f≈0.94 brackets r = 0.1% (the paper's §7 headline pairs, stated
// for n0 = 8), and on the Table-1 slope estimate n0 = 8.8 the CI stays
// within a factor-two band of the Eq. 8 prediction at both points.
func TestSweepBracketsPaperHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second Monte-Carlo run")
	}
	cfg := Config{
		Circuits:       []string{"mul8"},
		Yields:         []float64{0.07},
		N0s:            []float64{8, 8.8},
		LotSizes:       []int{6000},
		Coverages:      []float64{0.80, 0.94},
		Replicates:     30,
		RandomPatterns: 192,
		Seed:           1981,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	// Cell 0: n0 = 8, the paper's headline operating points.
	paper := []float64{0.01, 0.001}
	for i, pt := range res.Cells[0].Points {
		if !(pt.CILow <= paper[i] && paper[i] <= pt.CIHigh) {
			t.Errorf("n0=8 f=%.3f: CI [%.5f, %.5f] does not bracket r=%v",
				pt.Coverage, pt.CILow, pt.CIHigh, paper[i])
		}
	}
	// Both cells: the CI must intersect a factor-two band around the
	// analytic Eq. 8 prediction at the achieved coverage (the urn-model
	// approximation and circuit detection correlations allow that much).
	for _, cell := range res.Cells {
		for _, pt := range cell.Points {
			if pt.CILow > 2*pt.AnalyticR || pt.CIHigh < pt.AnalyticR/2 {
				t.Errorf("n0=%.1f f=%.3f: CI [%.5f, %.5f] far from analytic %.5f",
					cell.N0, pt.Coverage, pt.CILow, pt.CIHigh, pt.AnalyticR)
			}
		}
		// The fitted n0 must recover the ground truth to within ~15%.
		if cell.FitN0Count < cfg.Replicates/2 {
			t.Errorf("n0=%.1f: only %d/%d fits converged", cell.N0, cell.FitN0Count, cfg.Replicates)
		}
		if rel := math.Abs(cell.FitN0Mean-cell.N0) / cell.N0; rel > 0.15 {
			t.Errorf("n0=%.1f: fitted %.2f (%.0f%% off)", cell.N0, cell.FitN0Mean, rel*100)
		}
	}
}

func TestZeroShippedReplicatesExcluded(t *testing.T) {
	// Two-chip lots at 7% yield frequently ship nothing once the test
	// program is long enough; those replicates have no reject rate and
	// must be excluded from the mean/CI (and counted in RejSamples),
	// not folded in as zeros.
	cfg := Config{
		Circuits:       []string{"mul4"},
		Yields:         []float64{0.07},
		N0s:            []float64{5},
		LotSizes:       []int{2},
		Coverages:      []float64{0.9},
		Replicates:     20,
		RandomPatterns: 32,
		Seed:           11,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Cells[0].Points[0]
	if pt.RejSamples >= cfg.Replicates {
		t.Fatalf("expected some all-fail replicates, got RejSamples=%d of %d",
			pt.RejSamples, cfg.Replicates)
	}
	if pt.RejSamples == 0 {
		t.Fatal("expected some shipping replicates")
	}
	// Cross-check the mean against a hand count over the defined
	// replicates only.
	if !strings.Contains(res.CSV(), ",rej_samples,") {
		t.Error("CSV must surface the defined-sample count")
	}
}
