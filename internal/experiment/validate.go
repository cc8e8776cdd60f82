package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/defect"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/tablefmt"
	"repro/internal/tester"
)

// RejectRateRow is one operating point of the end-to-end validation.
type RejectRateRow struct {
	Coverage   float64 // fault coverage of the truncated test set
	PredictedR float64 // Eq. 8 prediction
	MeasuredR  float64 // escapes / passed, from the simulated line
	Passed     int
	Escapes    int
}

// RejectRateValidation is the strongest check in the repository: the
// closed-form reject rate (Eq. 8) compared against a full physical
// simulation — manufacture chips, test them with a *truncated* pattern
// set of known coverage, ship whatever passes, and count how many
// shipped chips were actually defective.
type RejectRateValidation struct {
	Yield float64
	N0    float64
	Chips int
	Rows  []RejectRateRow
}

// ValidateRejectRate runs the validation at several truncation points
// of the pattern set. Chips should be large (tens of thousands) for
// the measured rate to resolve sub-percent reject rates.
//
// The whole lot is first-fail-tested exactly once, against the full
// pattern set: a chip passes the program truncated at pattern cut iff
// its first failing pattern lies at or beyond the cut, so one pass
// serves every truncation point (the same reduction internal/sweep
// uses). Earlier revisions rebuilt a fresh ATE — re-simulating the good
// machine — and retested the entire lot at every truncation point.
func ValidateRejectRate(c *netlist.Circuit, y, n0 float64, chips int, truncations []float64, seed int64) (RejectRateValidation, error) {
	if chips < 100 {
		return RejectRateValidation{}, fmt.Errorf("experiment: need >= 100 chips")
	}
	m, err := core.New(y, n0)
	if err != nil {
		return RejectRateValidation{}, err
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	// The cleanup's grading session already holds the program's first
	// detects over the universe.
	patterns, _, res, err := atpg.ProductionTestsBudget(c, 96, 96, seed, universe, 0, faultsim.PPSFP, faultsim.Options{})
	if err != nil {
		return RejectRateValidation{}, err
	}
	curve := faultsim.CurveFromResult(res)
	rng := rand.New(rand.NewSource(seed))
	lot, err := defect.GenerateLotFromModel(y, n0, universe, chips, rng)
	if err != nil {
		return RejectRateValidation{}, err
	}
	ate, err := tester.New(c, patterns)
	if err != nil {
		return RejectRateValidation{}, err
	}
	lotRes, err := ate.TestLot(lot)
	if err != nil {
		return RejectRateValidation{}, err
	}
	good := 0
	for _, chip := range lot.Chips {
		if !chip.Defective() {
			good++
		}
	}
	out := RejectRateValidation{Yield: y, N0: n0, Chips: chips}
	seen := make(map[int]bool)
	for _, target := range truncations {
		// Find the shortest prefix reaching the target coverage.
		cut := -1
		for i, pt := range curve {
			if pt.Coverage >= target {
				cut = i + 1
				break
			}
		}
		if cut < 1 || seen[cut] {
			continue // unreachable target, or same prefix as a previous one
		}
		seen[cut] = true
		// Ship whatever the truncated program passes; the defective
		// shipped chips are the escapes. Counted in integers — the
		// tester counted them exactly, no yield round-trip needed.
		passed := 0
		for _, ff := range lotRes.FirstFail {
			if ff == tester.NeverFails || ff >= cut {
				passed++
			}
		}
		achieved := curve[cut-1].Coverage
		row := RejectRateRow{
			Coverage:   achieved,
			PredictedR: m.RejectRate(achieved),
			Passed:     passed,
			Escapes:    passed - good,
		}
		if passed > 0 {
			row.MeasuredR = float64(row.Escapes) / float64(passed)
		}
		out.Rows = append(out.Rows, row)
	}
	if len(out.Rows) == 0 {
		return RejectRateValidation{}, fmt.Errorf("experiment: no truncation point reachable")
	}
	return out, nil
}

// Render prints the validation table.
func (r RejectRateValidation) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Eq. 8 end-to-end validation — y=%.2f n0=%.1f, %d chips\n", r.Yield, r.N0, r.Chips)
	tb := tablefmt.New("coverage", "predicted r", "measured r", "passed", "escapes")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprintf("%.3f", row.Coverage),
			fmt.Sprintf("%.4f", row.PredictedR),
			fmt.Sprintf("%.4f", row.MeasuredR),
			row.Passed, row.Escapes)
	}
	sb.WriteString(tb.String())
	return sb.String()
}
