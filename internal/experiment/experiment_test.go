package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

func TestFig1SpotChecksMatchPaper(t *testing.T) {
	res, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 || len(res.SpotChecks) != 4 {
		t.Fatalf("curves %d spots %d", len(res.Curves), len(res.SpotChecks))
	}
	paper := map[string]float64{"0.80/2": 0.95, "0.80/10": 0.38, "0.20/2": 0.99, "0.20/10": 0.63}
	for _, s := range res.SpotChecks {
		key := ""
		switch {
		case s.Y == 0.80 && s.N0 == 2:
			key = "0.80/2"
		case s.Y == 0.80 && s.N0 == 10:
			key = "0.80/10"
		case s.Y == 0.20 && s.N0 == 2:
			key = "0.20/2"
		case s.Y == 0.20 && s.N0 == 10:
			key = "0.20/10"
		}
		want := paper[key]
		tol := 0.02
		if want > 0.98 {
			tol = 0.01
		}
		if math.Abs(s.RequiredF-want) > tol {
			t.Errorf("%s: required f %v, paper reads %v", key, s.RequiredF, want)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "legend") {
		t.Error("render incomplete")
	}
}

func TestFig1CurvesDecreasing(t *testing.T) {
	res, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Curves {
		for i := 1; i < len(c.Y); i++ {
			if c.Y[i] > c.Y[i-1]+1e-12 {
				t.Fatalf("%s: r(f) not decreasing at index %d", c.Name, i)
			}
		}
	}
}

func TestRequiredCoverageFigures(t *testing.T) {
	for _, r := range []float64{0.01, 0.005, 0.001} {
		res, err := RequiredCoverageFigure(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Curves) != 12 {
			t.Fatalf("r=%v: %d curves", r, len(res.Curves))
		}
		// Required coverage decreases with yield (along each curve) and
		// with n0 (across curves at fixed yield).
		for _, c := range res.Curves {
			for i := 1; i < len(c.Y); i++ {
				if c.Y[i] > c.Y[i-1]+1e-9 {
					t.Fatalf("r=%v %s: required f not decreasing in yield", r, c.Name)
				}
			}
		}
		mid := len(res.Curves[0].X) / 2
		for n := 1; n < len(res.Curves); n++ {
			if res.Curves[n].Y[mid] > res.Curves[n-1].Y[mid]+1e-9 {
				t.Fatalf("r=%v: required f not decreasing in n0 at yield %v",
					r, res.Curves[0].X[mid])
			}
		}
		if !strings.Contains(res.Render(), "Required fault coverage") {
			t.Error("render incomplete")
		}
	}
}

func TestFig4SpotCheckThroughFigure(t *testing.T) {
	// §6's example read from Fig. 4: r=0.001, y=0.3, n0=8 → f ≈ 0.85.
	res, err := RequiredCoverageFigure(0.001)
	if err != nil {
		t.Fatal(err)
	}
	curve := res.Curves[7] // n0 = 8
	if curve.Name != "n0=8" {
		t.Fatalf("curve order: %s", curve.Name)
	}
	// Find y = 0.3.
	fAt := 0.0
	for i, y := range curve.X {
		if math.Abs(y-0.3) < 0.006 {
			fAt = curve.Y[i]
			break
		}
	}
	if math.Abs(fAt-0.85) > 0.02 {
		t.Errorf("f(y=0.3, n0=8) = %v, paper reads 0.85", fAt)
	}
}

func TestRequiredCoverageFigureValidation(t *testing.T) {
	if _, err := RequiredCoverageFigure(0); err == nil {
		t.Error("r=0 should error")
	}
	if _, err := RequiredCoverageFigure(1); err == nil {
		t.Error("r=1 should error")
	}
}

func TestFig6Shapes(t *testing.T) {
	res := Fig6()
	if res.N != 1000 {
		t.Fatal("N")
	}
	// 5 n values x 3 approximations.
	if len(res.Curves) != 15 {
		t.Fatalf("%d curves", len(res.Curves))
	}
	// For n <= 4 the three approximations agree (paper: "For n <= 4,
	// all three values are the same").
	byName := map[string]Curve{}
	for _, c := range res.Curves {
		byName[c.Name] = c
	}
	for _, n := range []string{"n=2", "n=4"} {
		exact := byName[n+" exact (A.1)"]
		for _, ap := range []string{" corrected (A.2)", " simple (A.3)"} {
			other := byName[n+ap]
			for i := range exact.X {
				if exact.Y[i] < 1e-6 {
					continue // below the figure's log-axis floor
				}
				// "The same" on a 6-decade log plot: log distance under
				// 0.09 decades (< 1.5% of the axis height).
				logDist := math.Abs(math.Log10(other.Y[i]) - math.Log10(exact.Y[i]))
				if logDist > 0.09 {
					t.Errorf("%s%s: log10 distance %v at f=%v", n, ap, logDist, exact.X[i])
				}
			}
		}
	}
	if !strings.Contains(res.Render(), "Fig. 6") {
		t.Error("render incomplete")
	}
}

func TestWadsackComparisonSection7(t *testing.T) {
	res, err := WadsackComparison(0.07, 8, []float64{0.01, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatal("rows")
	}
	r1 := res.Rows[0]
	if math.Abs(r1.PaperModel-0.80) > 0.02 || math.Abs(r1.Wadsack-0.99) > 0.002 {
		t.Errorf("r=1%%: paper %v wadsack %v", r1.PaperModel, r1.Wadsack)
	}
	r2 := res.Rows[1]
	if math.Abs(r2.PaperModel-0.95) > 0.02 || math.Abs(r2.Wadsack-0.999) > 0.0002 {
		t.Errorf("r=0.1%%: paper %v wadsack %v", r2.PaperModel, r2.Wadsack)
	}
	if !strings.Contains(res.Render(), "Wadsack") {
		t.Error("render incomplete")
	}
}

func TestWadsackComparisonValidation(t *testing.T) {
	if _, err := WadsackComparison(0, 8, []float64{0.01}); err == nil {
		t.Error("bad yield should error")
	}
	if _, err := WadsackComparison(0.07, 8, []float64{2}); err == nil {
		t.Error("bad target should error")
	}
}

func TestShrinkStudyDirections(t *testing.T) {
	res, err := ShrinkStudy(2.659, 0.5, 8, 0.001, []float64{1, 0.8, 0.6, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatal("rows")
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Yield <= prev.Yield {
			t.Errorf("yield should rise as area shrinks: %v -> %v", prev.Yield, cur.Yield)
		}
		if cur.N0 <= prev.N0 {
			t.Errorf("n0 should rise as features shrink: %v -> %v", prev.N0, cur.N0)
		}
		if cur.RequiredF >= prev.RequiredF {
			t.Errorf("required coverage should fall (§8): %v -> %v", prev.RequiredF, cur.RequiredF)
		}
	}
	if !strings.Contains(res.Render(), "shrink") {
		t.Error("render incomplete")
	}
}

func TestShrinkStudyValidation(t *testing.T) {
	if _, err := ShrinkStudy(0, 0.5, 8, 0.001, []float64{1}); err == nil {
		t.Error("zero D0A should error")
	}
	if _, err := ShrinkStudy(2, 0.5, 8, 0.001, []float64{1.5}); err == nil {
		t.Error("scale > 1 should error")
	}
	if _, err := ShrinkStudy(2, 0, 8, 0.001, []float64{1}); err == nil {
		t.Error("zero lambda should error")
	}
}

func TestRunTable1SmallCircuit(t *testing.T) {
	// Use a small multiplier to keep the test fast; ground-truth
	// recovery tolerances are loose because the lot is only 277 chips.
	c, err := netlist.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTable1Config()
	cfg.Circuit = c
	cfg.RandomPatterns = 96
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fallout table must be cumulative and end near 1 - yield.
	prevFail := -1
	for _, row := range res.Rows {
		if row.CumFailed < prevFail {
			t.Fatal("fallout not cumulative")
		}
		prevFail = row.CumFailed
	}
	last := res.Rows[len(res.Rows)-1]
	if math.Abs(last.CumFracton-(1-res.LotYield)) > 0.05 {
		t.Errorf("final fallout %v vs 1 - yield %v (escapes %d)",
			last.CumFracton, 1-res.LotYield, res.Escapes)
	}
	// Ground-truth recovery: fitted n0 within sampling noise of truth.
	if math.Abs(res.FitN0-res.TrueN0) > 2.5 {
		t.Errorf("fit n0 %v vs lot truth %v", res.FitN0, res.TrueN0)
	}
	// Paper data re-analysis matches the paper's own numbers.
	if math.Abs(res.PaperFitN0-8) > 1 {
		t.Errorf("paper fit n0 = %v, paper says ≈8", res.PaperFitN0)
	}
	if math.Abs(res.PaperSlopeN0-8.8) > 0.05 {
		t.Errorf("paper slope n0 = %v, paper says 8.8", res.PaperSlopeN0)
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "Fig. 5", "n0 curve fit"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunTable1PhysicalLayer(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTable1Config()
	cfg.Circuit = c
	cfg.Chips = 400
	cfg.RandomPatterns = 64
	cfg.Physical = true
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The physical layer targets the same yield/n0; the achieved lot
	// values are noisy but should be in the neighbourhood.
	if math.Abs(res.LotYield-cfg.Yield) > 0.07 {
		t.Errorf("physical lot yield %v vs target %v", res.LotYield, cfg.Yield)
	}
	if res.TrueN0 < 4 || res.TrueN0 > 16 {
		t.Errorf("physical lot n0 %v far from target %v", res.TrueN0, cfg.N0)
	}
}

func TestRunTable1Validation(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Chips = 0
	if _, err := RunTable1(cfg); err == nil {
		t.Error("zero chips should error")
	}
}

func TestRampCheckpoints(t *testing.T) {
	points := make([]faultsim.CoveragePoint, 100)
	for i := range points {
		points[i] = faultsim.CoveragePoint{Pattern: i, Coverage: float64(i+1) / 100}
	}
	ramp := faultsim.Ramp{Points: points, Steps: 100}
	cps := rampCheckpoints(ramp, 10)
	if len(cps) < 9 || len(cps) > 11 {
		t.Fatalf("%d checkpoints", len(cps))
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatal("checkpoints not increasing")
		}
	}
	if cps[len(cps)-1] != 99 {
		t.Error("last checkpoint should be the final step")
	}
	if rampCheckpoints(faultsim.Ramp{}, 5) != nil {
		t.Error("empty ramp should give nil")
	}
}

// TestRunLotReleasesATE: RunLot hands the ATE it took back to the
// Prepared artifact, so the next draw reuses it instead of building one.
func TestRunLotReleasesATE(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTable1Config()
	cfg.Circuit = c
	cfg.RandomPatterns = 32
	lr, err := NewLotRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ate, err := lr.NewATE()
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.Prepared().ReleaseATE(ate); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := lr.RunLot(0.2, 3, 100, seed); err != nil {
			t.Fatal(err)
		}
	}
	again, err := lr.NewATE()
	if err != nil {
		t.Fatal(err)
	}
	if again != ate {
		t.Error("RunLot kept the ATE it took: the next NewATE built a new one")
	}
}
