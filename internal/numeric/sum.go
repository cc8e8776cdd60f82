package numeric

import "math"

// KahanSum accumulates float64 values with compensated (Kahan) summation,
// which keeps the long probability-mass sums in the model accurate even
// when thousands of tiny terms are added to a value near one.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the accumulated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// LogSumExp returns ln(Σ exp(xi)) computed stably. Used when combining
// log-space probability masses (e.g. mixing distributions).
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var k KahanSum
	for _, x := range xs {
		k.Add(math.Exp(x - m))
	}
	return m + math.Log(k.Sum())
}

// ClampInt limits v to [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
