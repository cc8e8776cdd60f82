package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// seq returns 1..n in reverse, so tailOf has to sort.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailOfPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		value   float64
		beyondN int
	}{
		{n: 5, pct: 50, value: 3},
		{n: 19, pct: 50, value: 10},
		{n: 20, pct: 50, value: 10.5, beyondN: 10},
		{n: 39, pct: 50, value: 20, beyondN: 19},
		{n: 40, pct: 75, value: 30, beyondN: 10},
		{n: 99, pct: 75, value: 75, beyondN: 24},
		{n: 100, pct: 90, value: 90, beyondN: 10},
		{n: 200, pct: 95, value: 190, beyondN: 10},
		{n: 1000, pct: 99, value: 990, beyondN: 10},
		{n: 10000, pct: 99.9, value: 9990, beyondN: 10},
	} {
		got := tailOf(seq(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.N != tc.n {
			t.Errorf("tailOf(1..%d) = %+v, want p%v = %v over %d", tc.n, got, tc.pct, tc.value, tc.n)
		}
		if tc.beyondN > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tailOf(1..%d): only %d samples beyond p%v", tc.n, beyond, got.Pct)
			}
		}
	}
}

func TestFailedFrac(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 4, 0},
		{1, 4, 0.25},
		{3, 3, 1},
		{0, 0, 1},
	} {
		if got := failedFrac(tc.failed, tc.attempted); got != tc.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", tc.failed, tc.attempted, got, tc.want)
		}
	}
}

func TestStageCoverFrac(t *testing.T) {
	// 14 s of traced stages against a 14.5 s untraced set-up.
	if got, want := stageCoverFrac(14000, 14.5), 14.0/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("stageCoverFrac = %v, want %v", got, want)
	}
}

func TestPoolEfficiency(t *testing.T) {
	// Two workers, a 1 s campaign, 1.5 s of lots: the pool was busy
	// three quarters of the time.
	if got := poolEfficiency(1500, 1, 2); got != 0.75 {
		t.Errorf("poolEfficiency = %v, want 0.75", got)
	}
}

func TestOverheadFrac(t *testing.T) {
	if got := overheadFrac(1.1, 1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overheadFrac = %v, want 0.1", got)
	}
}

func TestEndToEndMetrics(t *testing.T) {
	runs := []runResult{
		{SetupS: 1, HeapMB: 10, CampaignS: []float64{2, 4}, Chips: 1000},
		{SetupS: 3, HeapMB: 30, CampaignS: []float64{3}, Chips: 1000},
		{SetupS: 2, HeapMB: 20, CampaignS: []float64{5, 1}, Chips: 1000},
	}
	got := endToEndMetrics(runs)
	want := map[string]float64{"setup_s": 2, "setup_heap_mb": 20, "campaign_s": 3, "chips_per_s": 1000.0 / 3}
	for k, v := range want {
		if got[k].Value != v {
			t.Errorf("%s = %v, want %v", k, got[k].Value, v)
		}
	}
}
