package faultsim

// CoveragePoint is one point of the cumulative coverage ramp: after
// applying patterns 0..Pattern, the test set detects Detected faults,
// for a coverage of Coverage (fraction of the simulated fault list).
type CoveragePoint struct {
	Pattern  int
	Detected int
	Coverage float64
}

// CurveFromResult converts first-detect indices to a cumulative curve:
// the coverage after every pattern (or strobe, over a RunSteps result).
// This is the fault-simulator product the paper's §5 procedure starts
// from: "A cumulative fault coverage as a function of the number of
// test patterns is obtained."
func CurveFromResult(res Result) []CoveragePoint {
	perPattern := make([]int, res.Patterns)
	for _, d := range res.FirstDetect {
		if d != NotDetected {
			perPattern[d]++
		}
	}
	curve := make([]CoveragePoint, res.Patterns)
	cum := 0
	total := len(res.FirstDetect)
	for i := 0; i < res.Patterns; i++ {
		cum += perPattern[i]
		curve[i] = CoveragePoint{
			Pattern:  i,
			Detected: cum,
			Coverage: float64(cum) / float64(total),
		}
	}
	return curve
}

// Undetected returns the indices of faults the pattern set misses.
func Undetected(res Result) []int {
	var out []int
	for fi, p := range res.FirstDetect {
		if p == NotDetected {
			out = append(out, fi)
		}
	}
	return out
}
