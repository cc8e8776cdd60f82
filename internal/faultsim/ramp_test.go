package faultsim_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// sparseRampReference is the map-bucketing SparseRamp the run-length
// version replaced, kept as its reference: per-step detect counts in a
// map, the steps sorted, then one cumulative pass.
func sparseRampReference(res faultsim.Result) faultsim.Ramp {
	perStep := make(map[int]int)
	for _, d := range res.FirstDetect {
		if d != faultsim.NotDetected {
			perStep[d]++
		}
	}
	steps := make([]int, 0, len(perStep))
	//repolint:ordered — sorted ascending below before use
	for s := range perStep {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	points := make([]faultsim.CoveragePoint, len(steps))
	cum := 0
	total := len(res.FirstDetect)
	for i, s := range steps {
		cum += perStep[s]
		points[i] = faultsim.CoveragePoint{
			Pattern:  s,
			Detected: cum,
			Coverage: float64(cum) / float64(total),
		}
	}
	return faultsim.Ramp{Points: points, Steps: res.Patterns}
}

// TestSparseRampMatchesReference pins SparseRamp to the map reference,
// point for point, on random results (dense and sparse detection, many
// faults sharing a step, nothing detected) and on the strobe results of
// two real preparations.
func TestSparseRampMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var cases []faultsim.Result
	for _, tc := range []struct{ faults, steps int }{
		{0, 5}, {1, 1}, {7, 3}, {50, 2000}, {400, 40}, {3000, 100000},
	} {
		for _, detect := range []float64{0, 0.3, 1} {
			fd := make([]int, tc.faults)
			for i := range fd {
				fd[i] = faultsim.NotDetected
				if rng.Float64() < detect {
					fd[i] = rng.Intn(tc.steps)
				}
			}
			cases = append(cases, faultsim.Result{FirstDetect: fd, Patterns: tc.steps})
		}
	}
	for _, tc := range []struct {
		spec string
		p    circuits.Params
	}{
		{"mul8", circuits.Params{RandomPatterns: 32, Seed: 7}},
		{"lsi1k", circuits.Params{RandomPatterns: 48, SampleFaults: 150, BacktrackLimit: 50, Seed: 7}},
	} {
		pr, err := circuits.PrepareSpec(tc.spec, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pr.Result)
	}
	for i, res := range cases {
		if got, want := faultsim.SparseRamp(res), sparseRampReference(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d faults over %d steps): SparseRamp differs from the reference", i, len(res.FirstDetect), res.Patterns)
		}
	}
}

// TestSparseRampMatchesDenseCurve pins the compression's losslessness:
// for every step of a real strobe-granular program, At must reproduce
// the dense curve entry, and FirstReaching must return the same first
// crossing a dense scan finds.
func TestSparseRampMatchesDenseCurve(t *testing.T) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	patterns := counting(len(c.Inputs), 40)
	res, err := faultsim.RunSteps(c, reps, patterns)
	if err != nil {
		t.Fatal(err)
	}
	dense := faultsim.CurveFromResult(res)
	ramp := faultsim.SparseRamp(res)
	if ramp.Steps != res.Patterns {
		t.Fatalf("ramp.Steps = %d, want %d", ramp.Steps, res.Patterns)
	}
	if len(ramp.Points) == 0 || len(ramp.Points) >= len(dense) {
		t.Fatalf("ramp has %d change points vs %d dense steps — expected real compression", len(ramp.Points), len(dense))
	}
	for s := range dense {
		got := ramp.At(s)
		if got.Pattern != s || got.Detected != dense[s].Detected || got.Coverage != dense[s].Coverage {
			t.Fatalf("At(%d) = %+v, dense = %+v", s, got, dense[s])
		}
	}
	for _, target := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, ramp.Final().Coverage} {
		want := -1
		for s, pt := range dense {
			if pt.Coverage >= target {
				want = s
				break
			}
		}
		got, ok := ramp.FirstReaching(target)
		if want < 0 {
			if ok {
				t.Fatalf("FirstReaching(%v) = %+v, dense scan never crosses", target, got)
			}
			continue
		}
		if !ok || got.Pattern != want || got.Coverage != dense[want].Coverage {
			t.Fatalf("FirstReaching(%v) = %+v ok=%v, dense scan crosses at step %d (%+v)", target, got, ok, want, dense[want])
		}
	}
	if _, ok := ramp.FirstReaching(ramp.Final().Coverage + 1e-9); ok {
		t.Fatal("FirstReaching above final coverage must report ok=false")
	}
	final := ramp.Final()
	last := dense[len(dense)-1]
	if final.Detected != last.Detected || final.Coverage != last.Coverage {
		t.Fatalf("Final() = %+v, dense tail = %+v", final, last)
	}
}

// TestSparseRampEmpty covers the program that detects nothing.
func TestSparseRampEmpty(t *testing.T) {
	res := faultsim.Result{FirstDetect: []int{faultsim.NotDetected, faultsim.NotDetected}, Patterns: 6}
	ramp := faultsim.SparseRamp(res)
	if len(ramp.Points) != 0 || ramp.Steps != 6 {
		t.Fatalf("ramp = %+v, want no points over 6 steps", ramp)
	}
	if at := ramp.At(3); at.Detected != 0 || at.Coverage != 0 || at.Pattern != 3 {
		t.Fatalf("At(3) = %+v, want zero floor", at)
	}
	if _, ok := ramp.FirstReaching(0.1); ok {
		t.Fatal("FirstReaching on an empty ramp must report ok=false")
	}
	if f := ramp.Final(); f != (faultsim.CoveragePoint{}) {
		t.Fatalf("Final() = %+v, want zero", f)
	}
}

// counting builds a deterministic counting pattern block.
func counting(width, n int) []logicsim.Pattern {
	out := make([]logicsim.Pattern, n)
	for i := range out {
		p := make(logicsim.Pattern, width)
		for j := 0; j < width && j < 63; j++ {
			p[j] = i>>uint(j)&1 == 1
		}
		out[i] = p
	}
	return out
}
