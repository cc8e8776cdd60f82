package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is a timing's tail as the percentile rule reports it: the value
// at the highest percentile of tailLadder that leaves at least ten
// samples beyond it, with that percentile and the sample count.
type tail struct {
	Pct   float64
	Value float64
	N     int
}

// tailOf applies the percentile rule. A sample too small for even the
// median to have ten samples beyond it reports the median (Pct 50).
// Higher percentiles are taken at the nearest rank.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Pct: 50, Value: math.NaN()}
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder[:len(tailLadder)-1] {
		if r := rank(p, n); n-r >= 10 {
			return tail{Pct: p, Value: s[r-1], N: n}
		}
	}
	return tail{Pct: 50, Value: median(s), N: n}
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples; the samples beyond it number n-rank.
func rank(p float64, n int) int {
	// The tolerance keeps p*n/100 that is whole in exact arithmetic,
	// such as 90*100/100, from rounding up a rank.
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// failedFrac is failed runs over attempted runs; a benchmark that
// attempted nothing has failed outright.
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// stageCoverFrac is the traced stage sum over the untraced median
// set-up time: how much of set-up the stage breakdown explains. On a
// multi-circuit workload the circuits prepare in parallel, so their
// summed stages can exceed the wall time.
func stageCoverFrac(stagesMS, setupS float64) float64 {
	return stagesMS / (setupS * 1000)
}

// poolEfficiency is the summed per-lot busy time over the pool's
// capacity during the untraced campaign: 1 means every worker was busy
// for the whole campaign.
func poolEfficiency(lotMSSum, campaignS float64, workers int) float64 {
	return lotMSSum / (campaignS * 1000 * float64(workers))
}

// overheadFrac is how much slower the traced run was than the untraced
// one, as a share of the untraced time.
func overheadFrac(traced, untraced float64) float64 {
	return traced/untraced - 1
}
