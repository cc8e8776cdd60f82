package dist

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// Poisson is the Poisson distribution with mean Lambda >= 0. The
// defect model uses it for the number of independent physical defects
// on a chip (mean D0·A).
type Poisson struct {
	Lambda float64
}

func (d Poisson) check() {
	if !(d.Lambda >= 0) || math.IsInf(d.Lambda, 1) {
		panic(fmt.Sprintf("dist: Poisson lambda must be finite and >= 0, got %v", d.Lambda))
	}
}

// Mean returns E[X] = Lambda.
func (d Poisson) Mean() float64 { d.check(); return d.Lambda }

// Variance returns Var[X] = Lambda.
func (d Poisson) Variance() float64 { d.check(); return d.Lambda }

// LogPMF returns ln P(X = k), or -Inf outside the support.
func (d Poisson) LogPMF(k int) float64 {
	d.check()
	if k < 0 {
		return math.Inf(-1)
	}
	if d.Lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(k)*math.Log(d.Lambda) - d.Lambda - numeric.LogFactorial(k)
}

// PMF returns P(X = k).
func (d Poisson) PMF(k int) float64 { return math.Exp(d.LogPMF(k)) }

// CDF returns P(X <= k) through the regularized incomplete gamma
// function: P(X <= k) = Q(k+1, lambda).
func (d Poisson) CDF(k int) float64 {
	d.check()
	if k < 0 {
		return 0
	}
	if d.Lambda == 0 {
		return 1
	}
	return numeric.GammaQ(float64(k)+1, d.Lambda)
}

// Quantile returns the smallest k with CDF(k) >= p, for p in [0, 1).
func (d Poisson) Quantile(p float64) int {
	d.check()
	return quantileScan(p, d.CDF)
}

// ptrsCutoff is the mean above which Sample switches from the
// multiplicative (Knuth) method to Hörmann's PTRS transformed
// rejection. Below it exp(-lambda) is comfortably above underflow and
// the expected lambda+1 uniforms are cheap.
const ptrsCutoff = 30

// Sample draws one Poisson variate. Small means use Knuth's
// multiplicative method; large means use the PTRS transformed-rejection
// sampler, which needs O(1) uniforms regardless of Lambda.
func (d Poisson) Sample(rng *rand.Rand) int {
	d.check()
	checkRNG(rng)
	return poissonDraw(rng, d.Lambda, math.Exp(-d.Lambda))
}

// poissonDraw is the one Poisson draw behind Poisson.Sample and
// ChipFaultSampler: limit must be exp(-lambda), which a caller drawing
// many variates at one mean computes once. A zero mean draws no
// uniform.
func poissonDraw(rng *rand.Rand, lambda, limit float64) int {
	switch {
	case lambda == 0:
		return 0
	case lambda < ptrsCutoff:
		return poissonKnuth(rng, limit)
	}
	return poissonPTRS(rng, lambda)
}

// poissonKnuth counts how many uniform factors fit before the running
// product drops below limit = exp(-lambda).
func poissonKnuth(rng *rand.Rand, limit float64) int {
	k := 0
	for prod := rng.Float64(); prod > limit; prod *= rng.Float64() {
		k++
	}
	return k
}

// poissonPTRS is Hörmann's PTRS algorithm ("The transformed rejection
// method for generating Poisson random variables", 1993), valid for
// lambda >= 10; we engage it above ptrsCutoff. It draws a pair of
// uniforms per attempt and accepts with probability ~0.98.
func poissonPTRS(rng *rand.Rand, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-numeric.LogGamma(k+1) {
			return int(k)
		}
	}
}

// ShiftedPoisson is the fault-count distribution of a defective chip
// (Eq. 1, n >= 1 clause): X = 1 + Poisson(N0 - 1), so the support is
// {1, 2, ...} and the mean is N0 >= 1.
type ShiftedPoisson struct {
	N0 float64
}

func (d ShiftedPoisson) check() {
	if !(d.N0 >= 1) || math.IsInf(d.N0, 1) {
		panic(fmt.Sprintf("dist: ShiftedPoisson n0 must be finite and >= 1, got %v", d.N0))
	}
}

// base returns the underlying unshifted Poisson with mean N0 - 1.
func (d ShiftedPoisson) base() Poisson { return Poisson{Lambda: d.N0 - 1} }

// Mean returns E[X] = N0.
func (d ShiftedPoisson) Mean() float64 { d.check(); return d.N0 }

// Variance returns Var[X] = N0 - 1 (the shift adds no spread).
func (d ShiftedPoisson) Variance() float64 { d.check(); return d.N0 - 1 }

// LogPMF returns ln P(X = n), or -Inf outside the support n >= 1.
func (d ShiftedPoisson) LogPMF(n int) float64 {
	d.check()
	if n < 1 {
		return math.Inf(-1)
	}
	return d.base().LogPMF(n - 1)
}

// PMF returns P(X = n) = e^{-(N0-1)} (N0-1)^{n-1} / (n-1)! for n >= 1
// (Eq. 1 with the 1-Y factor stripped).
func (d ShiftedPoisson) PMF(n int) float64 { return math.Exp(d.LogPMF(n)) }

// CDF returns P(X <= n).
func (d ShiftedPoisson) CDF(n int) float64 {
	d.check()
	if n < 1 {
		return 0
	}
	return d.base().CDF(n - 1)
}

// Quantile returns the smallest n with CDF(n) >= p, for p in [0, 1).
func (d ShiftedPoisson) Quantile(p float64) int {
	d.check()
	return 1 + d.base().Quantile(p)
}

// Sample draws one fault count, always at least 1.
func (d ShiftedPoisson) Sample(rng *rand.Rand) int {
	d.check()
	return 1 + d.base().Sample(rng)
}
