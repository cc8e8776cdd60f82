package faultsim

import (
	"slices"
	"sort"
)

// Ramp is the cumulative coverage ramp in change-point form: Points
// holds one CoveragePoint per step at which the detected count grows,
// ascending by step, and Steps is the total step count of the program.
// The dense curve ([]CoveragePoint, one entry per step) costs
// patterns × outputs entries — gigabytes at c7552 scale — while the
// change-point form is bounded by the fault universe (a fault's first
// detection is the only event that moves the curve), so Prepared
// memory stays proportional to the fault list, not the program length.
// The compression is lossless: At reconstructs any dense entry.
type Ramp struct {
	// Points are the change points: Points[i].Pattern is the step index
	// (pattern × numOutputs + outputIndex for strobe-granular programs)
	// at which the cumulative Detected/Coverage first take these values.
	Points []CoveragePoint `json:"points"`
	// Steps is the total program length in steps; every step in
	// [0, Steps) is addressable through At.
	Steps int `json:"steps"`
}

// SparseRamp compresses a fault-simulation result to change-point form.
// It is the sparse counterpart of CurveFromResult: for every step s,
// SparseRamp(res).At(s) equals CurveFromResult(res)[s]. The detected
// first-detect steps are sorted, and each run of equal steps becomes one
// change point whose Detected is the run's end.
func SparseRamp(res Result) Ramp {
	steps := make([]int, 0, len(res.FirstDetect))
	for _, d := range res.FirstDetect {
		if d != NotDetected {
			steps = append(steps, d)
		}
	}
	slices.Sort(steps)
	runs := 0
	for i, s := range steps {
		if i == 0 || s != steps[i-1] {
			runs++
		}
	}
	points := make([]CoveragePoint, 0, runs)
	total := len(res.FirstDetect)
	for i, s := range steps {
		if i+1 < len(steps) && steps[i+1] == s {
			continue
		}
		points = append(points, CoveragePoint{
			Pattern:  s,
			Detected: i + 1,
			Coverage: float64(i+1) / float64(total),
		})
	}
	return Ramp{Points: points, Steps: res.Patterns}
}

// At returns the cumulative ramp value after step (the dense curve's
// entry at that index): the greatest change point at or before step,
// or the zero-coverage floor when the program has not detected
// anything yet. The returned Pattern field is the queried step.
func (r Ramp) At(step int) CoveragePoint {
	// First index whose change point lies strictly after step.
	i := sort.Search(len(r.Points), func(i int) bool { return r.Points[i].Pattern > step })
	if i == 0 {
		return CoveragePoint{Pattern: step}
	}
	pt := r.Points[i-1]
	pt.Pattern = step
	return pt
}

// FirstReaching returns the change point at which cumulative coverage
// first reaches target — its Pattern field is the earliest step whose
// dense-curve coverage is >= target — or ok=false when the program
// never gets there.
func (r Ramp) FirstReaching(target float64) (CoveragePoint, bool) {
	i := sort.Search(len(r.Points), func(i int) bool { return r.Points[i].Coverage >= target })
	if i == len(r.Points) {
		return CoveragePoint{}, false
	}
	return r.Points[i], true
}

// Final returns the ramp's last change point: the whole program's
// detected count and coverage. A program that detects nothing has a
// zero Final.
func (r Ramp) Final() CoveragePoint {
	if len(r.Points) == 0 {
		return CoveragePoint{}
	}
	return r.Points[len(r.Points)-1]
}
