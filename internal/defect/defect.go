// Package defect models the physical side of the experiment: how
// manufacturing defects land on chips and how each physical defect
// maps to one or more logical stuck-at faults. The paper stresses that
// its parameter n0 — the average number of *logical faults* on a
// defective chip — is not the average number of *physical defects*
// (D0·A): "In a high-density circuit, a physical defect can produce
// several logical faults."
package defect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// CountModel selects the distribution of physical defects per chip.
type CountModel int

// Count models.
const (
	// PoissonDefects: independent defects, mean D0·A.
	PoissonDefects CountModel = iota
	// ClusteredDefects: negative-binomial defects (gamma-mixed
	// Poisson), the Stapper picture behind Eq. 3.
	ClusteredDefects
)

// String names the count model.
func (m CountModel) String() string {
	switch m {
	case PoissonDefects:
		return "poisson"
	case ClusteredDefects:
		return "clustered"
	default:
		return fmt.Sprintf("CountModel(%d)", int(m))
	}
}

// Model generates physical defects and converts them to logical faults.
type Model struct {
	// D0A is the mean number of physical defects per chip (defect
	// density times chip area).
	D0A float64
	// Count selects the per-chip defect count distribution.
	Count CountModel
	// Cluster is the negative-binomial clustering parameter (1/λ in
	// the paper's Eq. 3 notation); used only by ClusteredDefects.
	Cluster float64
	// FaultsPerDefect is the mean number of logical faults one physical
	// defect produces (>= 1); the per-defect count is shifted-Poisson
	// with this mean.
	FaultsPerDefect float64
	// Locality is the fraction of a defect's faults drawn from a
	// window of structurally nearby gates (same layout neighbourhood);
	// the remainder is uniform. In [0,1].
	Locality float64
	// Window is the gate-ID radius of the locality window; defaults to
	// 5% of the fault list when zero.
	Window int
}

// Validate checks the configuration.
func (m Model) Validate() error {
	if !(m.D0A >= 0) {
		return fmt.Errorf("defect: D0A must be >= 0, got %v", m.D0A)
	}
	if m.Count == ClusteredDefects && !(m.Cluster > 0) {
		return fmt.Errorf("defect: clustered model needs Cluster > 0, got %v", m.Cluster)
	}
	if !(m.FaultsPerDefect >= 1) {
		return fmt.Errorf("defect: FaultsPerDefect must be >= 1, got %v", m.FaultsPerDefect)
	}
	if !(m.Locality >= 0 && m.Locality <= 1) {
		return fmt.Errorf("defect: Locality must be in [0,1], got %v", m.Locality)
	}
	return nil
}

// DefectCount draws the number of physical defects on one chip.
func (m Model) DefectCount(rng *rand.Rand) int {
	if m.D0A == 0 {
		return 0
	}
	switch m.Count {
	case ClusteredDefects:
		nb := dist.NegativeBinomial{R: m.Cluster, Mu: m.D0A}
		return nb.Sample(rng)
	default:
		p := dist.Poisson{Lambda: m.D0A}
		return p.Sample(rng)
	}
}

// TheoreticalYield returns the zero-defect probability of the model.
func (m Model) TheoreticalYield() float64 {
	switch m.Count {
	case ClusteredDefects:
		nb := dist.NegativeBinomial{R: m.Cluster, Mu: m.D0A}
		return nb.PMF(0)
	default:
		return dist.Poisson{Lambda: m.D0A}.PMF(0)
	}
}

// ExpectedN0 returns the model-implied average number of logical faults
// on a *defective* chip: E[faults | defects >= 1] =
// FaultsPerDefect * E[defects | defects >= 1].
func (m Model) ExpectedN0() float64 {
	y := m.TheoreticalYield()
	if y >= 1 {
		return 1
	}
	// E[defects | >=1] = E[defects] / P(>=1).
	return m.FaultsPerDefect * m.D0A / (1 - y)
}

// CastFaults maps ndefects physical defects onto distinct logical
// faults from a universe of size total. Each defect yields a
// shifted-Poisson number of faults with mean FaultsPerDefect, placed
// near a random center (locality) or uniformly. The returned indices
// are distinct and sorted; a chip cannot carry the same stuck-at fault
// twice.
func (m Model) CastFaults(rng *rand.Rand, total, ndefects int) []int {
	if total <= 0 || ndefects <= 0 {
		return nil
	}
	return m.castFaults(rng, ndefects, newCastScratch(total))
}

// castScratch is the dense state behind castFaults, allocated once per
// lot: one mark per universe index and the indices marked for the
// current chip. castFaults leaves every mark clear on return.
type castScratch struct {
	marked []bool
	chosen []int
}

func newCastScratch(total int) *castScratch {
	return &castScratch{marked: make([]bool, total)}
}

// castFaults is CastFaults over a universe of len(s.marked) indices.
//
//repolint:hotpath
func (m Model) castFaults(rng *rand.Rand, ndefects int, s *castScratch) []int {
	total := len(s.marked)
	if total == 0 || ndefects <= 0 {
		return nil
	}
	window := m.Window
	if window <= 0 {
		window = total / 20
		if window < 4 {
			window = 4
		}
	}
	fpd := dist.ShiftedPoisson{N0: m.FaultsPerDefect}
	chosen := s.chosen[:0]
	for d := 0; d < ndefects; d++ {
		k := fpd.Sample(rng)
		center := rng.Intn(total)
		for j := 0; j < k; j++ {
			var idx int
			if rng.Float64() < m.Locality {
				idx = center + rng.Intn(2*window+1) - window
				idx = numeric.ClampInt(idx, 0, total-1)
			} else {
				idx = rng.Intn(total)
			}
			// Distinctness: probe linearly from the collision.
			for s.marked[idx] {
				idx = (idx + 1) % total
				if len(chosen) >= total {
					break
				}
			}
			if len(chosen) < total {
				s.marked[idx] = true
				chosen = append(chosen, idx)
			}
		}
	}
	out := make([]int, len(chosen))
	copy(out, chosen)
	for _, idx := range chosen {
		s.marked[idx] = false
	}
	s.chosen = chosen
	sort.Ints(out)
	return out
}

// Chip is one manufactured die: the logical faults it carries (indices
// into the lot's fault list). A fault-free chip has an empty list.
type Chip struct {
	Faults []int
}

// Defective reports whether the chip carries any fault.
func (c Chip) Defective() bool { return len(c.Faults) > 0 }

// Lot is a set of manufactured chips over a shared fault universe.
type Lot struct {
	Chips    []Chip
	Universe []fault.Fault // the fault list chip indices refer to
	Yield    float64       // achieved (empirical) yield of the lot
}

// GenerateLot manufactures n chips: physical defects per the model,
// each cast into logical faults from the universe. This is the
// substitute for a real wafer lot on the paper's Sentry tester.
func GenerateLot(m Model, universe []fault.Fault, n int, rng *rand.Rand) (Lot, error) {
	if err := m.Validate(); err != nil {
		return Lot{}, err
	}
	if n <= 0 {
		return Lot{}, fmt.Errorf("defect: lot size must be positive, got %d", n)
	}
	if len(universe) == 0 {
		return Lot{}, fmt.Errorf("defect: empty fault universe")
	}
	lot := Lot{Chips: make([]Chip, n), Universe: universe}
	scratch := newCastScratch(len(universe))
	good := 0
	for i := range lot.Chips {
		nd := m.DefectCount(rng)
		idxs := m.castFaults(rng, nd, scratch)
		lot.Chips[i] = Chip{Faults: idxs}
		if len(idxs) == 0 {
			good++
		}
	}
	lot.Yield = float64(good) / float64(n)
	return lot, nil
}

// GenerateLotFromModel manufactures chips directly from the paper's
// statistical model (yield y, shifted-Poisson fault count with mean
// n0), bypassing the physical-defect layer. Used to validate that the
// estimation pipeline recovers known ground truth.
func GenerateLotFromModel(y, n0 float64, universe []fault.Fault, n int, rng *rand.Rand) (Lot, error) {
	fc, err := dist.NewChipFaultCount(y, n0)
	if err != nil {
		return Lot{}, err
	}
	if n <= 0 {
		return Lot{}, fmt.Errorf("defect: lot size must be positive, got %d", n)
	}
	if len(universe) == 0 {
		return Lot{}, fmt.Errorf("defect: empty fault universe")
	}
	lot := Lot{Chips: make([]Chip, n), Universe: universe}
	// int32 halves the scratch; fault universes stay far below 2^31.
	perm := make([]int32, len(universe))
	// Every chip's faults live in one backing array, each chip holding
	// a capacity-capped window of it. It is sized for the lot's total
	// fault count four standard deviations above its mean, so a second
	// array is almost never started; sampling order is unchanged.
	nf := float64(n)
	size := int(math.Min(nf*fc.Mean()+4*math.Sqrt(nf*fc.Variance()), nf*float64(len(universe))))
	all := make([]int, 0, size)
	good := 0
	draw := fc.Sampler()
	for i := range lot.Chips {
		k := draw.Sample(rng)
		if k > len(universe) {
			k = len(universe)
		}
		if k == 0 {
			good++
			continue
		}
		if cap(all)-len(all) < k {
			all = make([]int, 0, max(k, size))
		}
		lo := len(all)
		all = appendDistinct(all, rng, perm, k)
		lot.Chips[i].Faults = all[lo:len(all):len(all)]
	}
	lot.Yield = float64(good) / float64(n)
	return lot, nil
}

// appendDistinct draws k distinct integers from [0, len(perm)) by
// partial Fisher-Yates on a virtual permutation held in perm, the
// lot's dense scratch, and appends them to dst in draw order: perm[p]
// == 0 means position p still holds p, and perm[p] == v+1 means it
// holds v. perm must be all zero on entry and is all zero again on
// return, so one scratch serves every chip of a lot.
//
//repolint:hotpath
func appendDistinct(dst []int, rng *rand.Rand, perm []int32, k int) []int {
	if k <= 0 {
		return dst
	}
	total := len(perm)
	lo := len(dst)
	dst = slices.Grow(dst, k)[:lo+k]
	out := dst[lo:]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(total-i)
		vi, vj := i, j
		if p := perm[i]; p != 0 {
			vi = int(p - 1)
		}
		if p := perm[j]; p != 0 {
			vj = int(p - 1)
		}
		out[i] = vj
		perm[j] = int32(vi + 1)
		perm[i] = int32(vj + 1)
	}
	// The touched positions are 0..k-1 and the drawn js. A drawn j >= k
	// still held j the first time it was drawn, so j is in out: clearing
	// every i and every out[i] restores the all-zero scratch.
	for i, v := range out {
		perm[i] = 0
		perm[v] = 0
	}
	return dst
}

// MeanFaultsOnDefective returns the lot's empirical n0: the average
// fault count over defective chips, or 0 for an all-good lot.
func (l Lot) MeanFaultsOnDefective() float64 {
	sum, nBad := 0, 0
	for _, c := range l.Chips {
		if c.Defective() {
			nBad++
			sum += len(c.Faults)
		}
	}
	if nBad == 0 {
		return 0
	}
	return float64(sum) / float64(nBad)
}
