package experiment

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/tester"
)

func TestValidateRejectRateEndToEnd(t *testing.T) {
	// The decisive check: Eq. 8's closed form against the simulated
	// production line. 20k chips resolve reject rates of a few percent
	// with small relative error at moderate coverage.
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ValidateRejectRate(c, 0.3, 6, 20000, []float64{0.5, 0.7, 0.85}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("only %d truncation points", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The model assumes faults are detected like random draws
		// (Eq. 4); the real circuit's detection correlations perturb
		// this, so demand agreement within a factor, not exactness:
		// measured within [0.3x, 3x] of predicted, and both small.
		if row.PredictedR <= 0 {
			t.Fatalf("degenerate prediction at coverage %v", row.Coverage)
		}
		ratio := row.MeasuredR / row.PredictedR
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("coverage %.3f: measured %v vs predicted %v (ratio %v)",
				row.Coverage, row.MeasuredR, row.PredictedR, ratio)
		}
	}
	// Reject rate must fall with coverage in both columns.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].PredictedR >= res.Rows[i-1].PredictedR {
			t.Error("prediction not decreasing")
		}
		if res.Rows[i].MeasuredR > res.Rows[i-1].MeasuredR+0.005 {
			t.Error("measurement not decreasing (beyond noise)")
		}
	}
	if !strings.Contains(res.Render(), "validation") {
		t.Error("render incomplete")
	}
}

func TestValidateRejectRateWadsackComparison(t *testing.T) {
	// At the same operating point the Wadsack formula r = (1-y)(1-f)
	// should overpredict the measured reject rate (it ignores that
	// multi-fault chips are easier to catch).
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ValidateRejectRate(c, 0.3, 6, 20000, []float64{0.7}, 11)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	wadsack := (1 - 0.3) * (1 - row.Coverage)
	if !(row.MeasuredR < wadsack) {
		t.Errorf("measured %v should undercut Wadsack %v", row.MeasuredR, wadsack)
	}
	// And the paper's model should be much closer than Wadsack.
	if math.Abs(row.MeasuredR-row.PredictedR) > math.Abs(row.MeasuredR-wadsack) {
		t.Errorf("paper model (%v) further from measurement (%v) than Wadsack (%v)",
			row.PredictedR, row.MeasuredR, wadsack)
	}
}

func TestValidateRejectRateCountsAreExact(t *testing.T) {
	// Passed and Escapes are integer counts off one first-fail pass:
	// monotone in coverage, internally consistent with the measured
	// rate, and Passed - Escapes (the truly good shipped chips) is the
	// same at every cut.
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ValidateRejectRate(c, 0.3, 6, 5000, []float64{0.4, 0.6, 0.8}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
	good := res.Rows[0].Passed - res.Rows[0].Escapes
	for i, row := range res.Rows {
		if row.Passed < 0 || row.Escapes < 0 || row.Escapes > row.Passed {
			t.Errorf("row %d: nonsense counts passed=%d escapes=%d", i, row.Passed, row.Escapes)
		}
		if row.Passed-row.Escapes != good {
			t.Errorf("row %d: good shipped chips drifted: %d vs %d", i, row.Passed-row.Escapes, good)
		}
		if row.Passed > 0 {
			if want := float64(row.Escapes) / float64(row.Passed); row.MeasuredR != want {
				t.Errorf("row %d: MeasuredR %v != escapes/passed %v", i, row.MeasuredR, want)
			}
		}
		if i > 0 && row.Passed > res.Rows[i-1].Passed {
			t.Errorf("row %d: passed count grew with coverage", i)
		}
	}
}

func TestValidateRejectRateValidation(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateRejectRate(c, 0.3, 6, 10, []float64{0.5}, 1); err == nil {
		t.Error("tiny lot should error")
	}
	if _, err := ValidateRejectRate(c, 0, 6, 1000, []float64{0.5}, 1); err == nil {
		t.Error("invalid yield should error")
	}
	if _, err := ValidateRejectRate(c, 0.3, 6, 1000, []float64{2}, 1); err == nil {
		t.Error("unreachable truncation should error")
	}
}

func TestTable1ConfigValidate(t *testing.T) {
	good := DefaultTable1Config()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Table1Config)
	}{
		{"zero chips", func(c *Table1Config) { c.Chips = 0 }},
		{"negative chips", func(c *Table1Config) { c.Chips = -5 }},
		{"yield above 1", func(c *Table1Config) { c.Yield = 1.5 }},
		{"zero yield", func(c *Table1Config) { c.Yield = 0 }},
		{"yield NaN", func(c *Table1Config) { c.Yield = math.NaN() }},
		{"n0 below 1", func(c *Table1Config) { c.N0 = 0.5 }},
		{"negative n0", func(c *Table1Config) { c.N0 = -1 }},
		{"n0 NaN", func(c *Table1Config) { c.N0 = math.NaN() }},
		{"n0 infinite", func(c *Table1Config) { c.N0 = math.Inf(1) }},
		{"negative patterns", func(c *Table1Config) { c.RandomPatterns = -1 }},
		{"chips above cap", func(c *Table1Config) { c.Chips = SizeCap + 1 }},
		{"patterns above cap", func(c *Table1Config) { c.RandomPatterns = 2000000000 }},
		{"negative workers", func(c *Table1Config) { c.SimWorkers = -2 }},
		{"sim workers above cap", func(c *Table1Config) { c.SimWorkers = WorkerCap + 1 }},
		{"negative backtrack limit", func(c *Table1Config) { c.BacktrackLimit = -1 }},
		{"negative fault sample", func(c *Table1Config) { c.SampleFaults = -1 }},
		{"bogus lot engine", func(c *Table1Config) { c.LotEngine = tester.LotEngine(42) }},
		{"retired serial lot engine", func(c *Table1Config) { c.LotEngine = 1 }},
		{"retired serial engine", func(c *Table1Config) { c.Engine = faultsim.Engine(1) }},
		{"bogus engine", func(c *Table1Config) { c.Engine = faultsim.Engine(7) }},
	}
	for _, tc := range cases {
		cfg := DefaultTable1Config()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "experiment:") {
			t.Errorf("%s: error lacks package prefix: %v", tc.name, err)
		}
		if want := strings.HasSuffix(tc.name, "above cap"); errors.Is(err, ErrTooLarge) != want {
			t.Errorf("%s: errors.Is(%v, ErrTooLarge) = %v, want %v", tc.name, err, !want, want)
		}
		// The program settings are validated once, by
		// circuits.Params.Validate: whatever it rejects surfaces with
		// its own message under the experiment prefix.
		if perr := cfg.PrepareParams().Validate(); perr != nil && err != nil && !strings.Contains(err.Error(), perr.Error()) {
			t.Errorf("%s: error %q does not carry the Params error %q", tc.name, err, perr)
		}
		// RunTable1 must reject the same configs before any work.
		if _, err := RunTable1(cfg); err == nil {
			t.Errorf("%s: RunTable1 accepted", tc.name)
		}
	}
}
