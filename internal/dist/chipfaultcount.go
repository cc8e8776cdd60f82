package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// ChipFaultCount is the full fault-count distribution of a manufactured
// chip, both clauses of the paper's Eq. 1: with probability Y the chip
// is fault-free, otherwise the count follows the shifted-Poisson law of
// a defective chip:
//
//	P(0) = Y,    P(n) = (1-Y) · Defective.PMF(n)   for n >= 1.
type ChipFaultCount struct {
	Y         float64        // yield: probability of zero faults, in (0, 1)
	Defective ShiftedPoisson // fault count given the chip is defective
}

// NewChipFaultCount validates (y, n0) and builds the Eq. 1 mixture.
// Yield must lie strictly inside (0, 1) — the degenerate endpoints make
// the conditional law meaningless — and n0 must be a finite mean of at
// least one fault per defective chip.
func NewChipFaultCount(y, n0 float64) (ChipFaultCount, error) {
	if !(y > 0 && y < 1) {
		return ChipFaultCount{}, fmt.Errorf("dist: yield must be in (0,1), got %v", y)
	}
	if !(n0 >= 1) || math.IsInf(n0, 1) {
		return ChipFaultCount{}, fmt.Errorf("dist: n0 must be finite and >= 1, got %v", n0)
	}
	return ChipFaultCount{Y: y, Defective: ShiftedPoisson{N0: n0}}, nil
}

func (d ChipFaultCount) check() {
	if !(d.Y > 0 && d.Y < 1) {
		panic(fmt.Sprintf("dist: ChipFaultCount yield must be in (0,1), got %v", d.Y))
	}
	d.Defective.check()
}

// Mean returns E[X] = (1-Y) N0, the paper's nav (Eq. 2).
func (d ChipFaultCount) Mean() float64 {
	d.check()
	return (1 - d.Y) * d.Defective.Mean()
}

// Variance returns Var[X] via the mixture second moment:
// E[X²] = (1-Y)(Var_d + Mean_d²).
func (d ChipFaultCount) Variance() float64 {
	d.check()
	mu := d.Defective.Mean()
	m2 := (1 - d.Y) * (d.Defective.Variance() + mu*mu)
	mean := (1 - d.Y) * mu
	return m2 - mean*mean
}

// PMF returns P(X = n) per Eq. 1.
func (d ChipFaultCount) PMF(n int) float64 {
	d.check()
	switch {
	case n < 0:
		return 0
	case n == 0:
		return d.Y
	default:
		return (1 - d.Y) * d.Defective.PMF(n)
	}
}

// CDF returns P(X <= n) = Y + (1-Y)·Defective.CDF(n) for n >= 0.
func (d ChipFaultCount) CDF(n int) float64 {
	d.check()
	if n < 0 {
		return 0
	}
	return d.Y + (1-d.Y)*d.Defective.CDF(n)
}

// Quantile returns the smallest n with CDF(n) >= p, for p in [0, 1).
// Any p <= Y lands on the fault-free atom.
func (d ChipFaultCount) Quantile(p float64) int {
	d.check()
	checkQuantileP(p)
	if p <= d.Y {
		return 0
	}
	// The conditional rescale can round to exactly 1 for p just below
	// 1; clamp back inside the inner quantile's domain.
	cond := (p - d.Y) / (1 - d.Y)
	if cond >= 1 {
		cond = math.Nextafter(1, 0)
	}
	return d.Defective.Quantile(cond)
}

// Sample draws one chip's fault count: zero with probability Y, else a
// defective-chip count. The mixture indicator always consumes exactly
// one uniform so draw sequences stay reproducible. A loop drawing many
// chips at one (Y, n0) takes a Sampler once instead.
func (d ChipFaultCount) Sample(rng *rand.Rand) int {
	return d.Sampler().Sample(rng)
}

// ChipFaultSampler draws fault counts of one ChipFaultCount with the
// per-draw constants computed once: the Poisson limit exp(-λ) of the
// defective count's λ = n0-1 is a math.Exp per chip otherwise. Its
// draws consume exactly the uniforms ChipFaultCount.Sample does.
type ChipFaultSampler struct {
	y, lambda, limit float64
}

// Sampler validates the distribution and returns its sampler.
func (d ChipFaultCount) Sampler() ChipFaultSampler {
	d.check()
	lambda := d.Defective.N0 - 1
	return ChipFaultSampler{y: d.Y, lambda: lambda, limit: math.Exp(-lambda)}
}

// Sample draws one chip's fault count, as ChipFaultCount.Sample.
func (s ChipFaultSampler) Sample(rng *rand.Rand) int {
	checkRNG(rng)
	if rng.Float64() < s.y {
		return 0
	}
	return 1 + poissonDraw(rng, s.lambda, s.limit)
}
