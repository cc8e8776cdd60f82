package defect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/numeric"
)

func almostEq(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestModelValidate(t *testing.T) {
	good := Model{D0A: 2, FaultsPerDefect: 3, Locality: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []Model{
		{D0A: -1, FaultsPerDefect: 2},
		{D0A: 1, FaultsPerDefect: 0.5},
		{D0A: 1, FaultsPerDefect: 2, Locality: 1.5},
		{D0A: 1, FaultsPerDefect: 2, Count: ClusteredDefects, Cluster: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestCountModelString(t *testing.T) {
	if PoissonDefects.String() != "poisson" || ClusteredDefects.String() != "clustered" {
		t.Error("count model names")
	}
	if CountModel(7).String() != "CountModel(7)" {
		t.Error("unknown count model name")
	}
}

func TestTheoreticalYield(t *testing.T) {
	// Poisson: y = e^{-D0A}.
	m := Model{D0A: 2.659, FaultsPerDefect: 2}
	if !almostEq(m.TheoreticalYield(), math.Exp(-2.659), 1e-12) {
		t.Errorf("poisson yield = %v", m.TheoreticalYield())
	}
	// Clustered: y = (1 + D0A/r)^{-r} (negative binomial zero mass).
	mc := Model{D0A: 2, Count: ClusteredDefects, Cluster: 2, FaultsPerDefect: 2}
	want := math.Pow(1+1.0, -2.0)
	if !almostEq(mc.TheoreticalYield(), want, 1e-9) {
		t.Errorf("clustered yield = %v, want %v", mc.TheoreticalYield(), want)
	}
}

func TestDefectCountMatchesYield(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Model{D0A: 2.659, FaultsPerDefect: 2} // e^-2.659 ≈ 0.07
	const n = 100000
	zero := 0
	for i := 0; i < n; i++ {
		if m.DefectCount(rng) == 0 {
			zero++
		}
	}
	if got := float64(zero) / n; !almostEq(got, m.TheoreticalYield(), 0.05) {
		t.Errorf("empirical yield %v vs theoretical %v", got, m.TheoreticalYield())
	}
}

func TestCastFaultsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Model{D0A: 1, FaultsPerDefect: 4, Locality: 0.8, Window: 10}
	for trial := 0; trial < 200; trial++ {
		idxs := m.CastFaults(rng, 100, 3)
		seen := make(map[int]bool)
		for _, i := range idxs {
			if i < 0 || i >= 100 {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatal("duplicate fault index")
			}
			seen[i] = true
		}
	}
}

func TestCastFaultsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Model{D0A: 1, FaultsPerDefect: 2}
	if got := m.CastFaults(rng, 0, 3); got != nil {
		t.Error("empty universe should give nil")
	}
	if got := m.CastFaults(rng, 10, 0); got != nil {
		t.Error("zero defects should give nil")
	}
	// Saturation: more faults than the universe holds.
	sat := Model{D0A: 1, FaultsPerDefect: 50}
	idxs := sat.CastFaults(rng, 5, 10)
	if len(idxs) > 5 {
		t.Errorf("cast %d faults into universe of 5", len(idxs))
	}
}

func TestExpectedN0(t *testing.T) {
	// Poisson defects, mean d; E[defects | >=1] = d/(1-e^-d). With
	// FaultsPerDefect = 3 the expected n0 is 3 d/(1-e^-d).
	m := Model{D0A: 2, FaultsPerDefect: 3}
	want := 3 * 2 / (1 - math.Exp(-2))
	if !almostEq(m.ExpectedN0(), want, 1e-9) {
		t.Errorf("ExpectedN0 = %v, want %v", m.ExpectedN0(), want)
	}
}

func universeFor(t *testing.T) []fault.Fault {
	t.Helper()
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	return fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
}

func TestGenerateLotYield(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(9))
	m := Model{D0A: 2.659, FaultsPerDefect: 3.3, Locality: 0.7}
	lot, err := GenerateLot(m, universe, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lot.Yield, m.TheoreticalYield(), 0.08) {
		t.Errorf("lot yield %v vs theoretical %v", lot.Yield, m.TheoreticalYield())
	}
	// Empirical n0 should be near the model's expectation.
	if got := lot.MeanFaultsOnDefective(); !almostEq(got, m.ExpectedN0(), 0.1) {
		t.Errorf("lot n0 %v vs expected %v", got, m.ExpectedN0())
	}
}

// TestGenerateLotMatchesPerChipDraws: GenerateLot's lot must equal,
// chip for chip, a reference loop that draws each chip's defect count
// straight from the model's distribution (none at D0·A = 0, negative
// binomial when clustered, Poisson otherwise) and then casts its
// faults, from the same seed, with both streams left at the same
// position. The means span the multiplicative Poisson draw, the PTRS
// cutoff (30) and above it, and the clustered path, so a count draw
// that skips or adds a uniform shows here.
func TestGenerateLotMatchesPerChipDraws(t *testing.T) {
	universe := universeFor(t)
	for _, m := range []Model{
		{D0A: 0, FaultsPerDefect: 2},
		{D0A: 0.05, FaultsPerDefect: 1},
		{D0A: 2.659, FaultsPerDefect: 3.3, Locality: 0.7},
		{D0A: 29.9, FaultsPerDefect: 1.5, Locality: 0.2},
		{D0A: 30, FaultsPerDefect: 1.5},
		{D0A: 47.5, FaultsPerDefect: 2, Locality: 0.5},
		{D0A: 2, Count: ClusteredDefects, Cluster: 0.8, FaultsPerDefect: 2},
	} {
		lotRNG := rand.New(rand.NewSource(5))
		lot, err := GenerateLot(m, universe, 300, lotRNG)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		scratch := newCastScratch(len(universe))
		for i, chip := range lot.Chips {
			nd := 0
			switch {
			case m.D0A == 0:
			case m.Count == ClusteredDefects:
				nd = dist.NegativeBinomial{R: m.Cluster, Mu: m.D0A}.Sample(rng)
			default:
				nd = dist.Poisson{Lambda: m.D0A}.Sample(rng)
			}
			if want := m.castFaults(rng, nd, scratch); !reflect.DeepEqual(chip.Faults, want) {
				t.Fatalf("%+v chip %d: lot %v, reference draws %v", m, i, chip.Faults, want)
			}
		}
		if got, want := lotRNG.Int63(), rng.Int63(); got != want {
			t.Errorf("%+v: streams part after the lot (%d, %d)", m, got, want)
		}
	}
}

func TestGenerateLotErrors(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(1))
	m := Model{D0A: 1, FaultsPerDefect: 2}
	if _, err := GenerateLot(m, universe, 0, rng); err == nil {
		t.Error("zero chips should error")
	}
	if _, err := GenerateLot(m, nil, 10, rng); err == nil {
		t.Error("empty universe should error")
	}
	if _, err := GenerateLot(Model{D0A: -1, FaultsPerDefect: 2}, universe, 10, rng); err == nil {
		t.Error("invalid model should error")
	}
}

func TestGenerateLotFromModel(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(6))
	lot, err := GenerateLotFromModel(0.07, 8.8, universe, 30000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lot.Yield, 0.07, 0.08) {
		t.Errorf("lot yield %v", lot.Yield)
	}
	if got := lot.MeanFaultsOnDefective(); !almostEq(got, 8.8, 0.03) {
		t.Errorf("lot n0 %v, want 8.8", got)
	}
	// All fault indices valid and distinct per chip.
	for _, chip := range lot.Chips[:100] {
		seen := make(map[int]bool)
		for _, fi := range chip.Faults {
			if fi < 0 || fi >= len(universe) {
				t.Fatal("fault index out of range")
			}
			if seen[fi] {
				t.Fatal("duplicate fault on chip")
			}
			seen[fi] = true
		}
	}
}

func TestGenerateLotFromModelErrors(t *testing.T) {
	universe := universeFor(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateLotFromModel(2, 8, universe, 10, rng); err == nil {
		t.Error("invalid yield should error")
	}
	if _, err := GenerateLotFromModel(0.5, 8, universe, 0, rng); err == nil {
		t.Error("zero chips should error")
	}
	if _, err := GenerateLotFromModel(0.5, 8, nil, 10, rng); err == nil {
		t.Error("empty universe should error")
	}
}

// sampleDistinct is appendDistinct for one chip into a fresh slice: the
// form the sampler tests check against the map reference.
func sampleDistinct(rng *rand.Rand, perm []int32, k int) []int {
	return appendDistinct(nil, rng, perm, k)
}

// TestLotSharesOneFaultArray pins the lot's fault storage: a constant
// number of allocations per lot (one backing array for every chip, not
// one slice per defective chip), each chip's window capacity-capped so
// growing one chip's list cannot overwrite the next chip's, and the
// draws equal to sampling each chip into its own slice from the same
// RNG stream.
func TestLotSharesOneFaultArray(t *testing.T) {
	universe := universeFor(t)
	lot, err := GenerateLotFromModel(0.07, 8.8, universe, 2000, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	fc, err := dist.NewChipFaultCount(0.07, 8.8)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int32, len(universe))
	for i, c := range lot.Chips {
		k := min(fc.Sample(rng), len(universe))
		if want := sampleDistinct(rng, perm, k); !reflect.DeepEqual(c.Faults, want) {
			t.Fatalf("chip %d: faults %v, per-chip draw %v", i, c.Faults, want)
		}
		if len(c.Faults) == 0 {
			continue
		}
		if cap(c.Faults) != len(c.Faults) {
			t.Fatalf("chip %d: capacity %d for %d faults, want capped", i, cap(c.Faults), len(c.Faults))
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := GenerateLotFromModel(0.07, 8.8, universe, 2000, rand.New(rand.NewSource(11))); err != nil {
			t.Fatal(err)
		}
	})
	// The RNG, the chip slice, the scratch and the fault array.
	if allocs > 6 {
		t.Errorf("GenerateLotFromModel: %v allocs per lot, want at most 6", allocs)
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	perm := make([]int32, 20)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(20)
		out := sampleDistinct(rng, perm, k)
		if len(out) != k {
			t.Fatalf("got %d, want %d", len(out), k)
		}
		seen := make(map[int]bool)
		for _, v := range out {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("bad sample %v", out)
			}
			seen[v] = true
		}
	}
	if sampleDistinct(rng, perm, 0) != nil {
		t.Error("k=0 should be nil")
	}
}

// sampleDistinctReference is the map-based partial Fisher-Yates the
// dense sampleDistinct replaced: the oracle its draws must match.
func sampleDistinctReference(rng *rand.Rand, total, k int) []int {
	if k <= 0 {
		return nil
	}
	swapped := make(map[int]int)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(total-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		swapped[i] = vj
	}
	return out
}

// castFaultsReference is the map-based CastFaults the dense castFaults
// replaced: the oracle its draws must match.
func castFaultsReference(m Model, rng *rand.Rand, total, ndefects int) []int {
	if total <= 0 || ndefects <= 0 {
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
	chosen := make(map[int]bool)
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
			for chosen[idx] {
				idx = (idx + 1) % total
				if len(chosen) >= total {
					break
				}
			}
			if len(chosen) < total {
				chosen[idx] = true
			}
		}
	}
	out := make([]int, 0, len(chosen))
	for idx := range chosen {
		out = append(out, idx)
	}
	// Map iteration order is randomized per process; sort so the same
	// seed yields the same chip byte-for-byte across runs.
	sort.Ints(out)
	return out
}

// checkSampleDistinct draws k of total from identically seeded RNGs
// through the dense sampleDistinct and the map reference, and reports
// any difference in the draw, in the RNG state afterwards, or in the
// scratch left behind.
func checkSampleDistinct(seed int64, perm []int32, k int) error {
	rngA := rand.New(rand.NewSource(seed))
	rngB := rand.New(rand.NewSource(seed))
	got := sampleDistinct(rngA, perm, k)
	want := sampleDistinctReference(rngB, len(perm), k)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("draw %v, reference %v", got, want)
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		return fmt.Errorf("RNG state diverged: next draw %d, reference %d", a, b)
	}
	for p, v := range perm {
		if v != 0 {
			return fmt.Errorf("scratch not cleared: perm[%d] = %d", p, v)
		}
	}
	return nil
}

func TestSampleDistinctMatchesReference(t *testing.T) {
	for _, total := range []int{1, 2, 7, 20, 1328, 33274} {
		perm := make([]int32, total)
		ks := []int{}
		for k := 0; k <= min(total, 64); k++ {
			ks = append(ks, k)
		}
		if total > 64 {
			ks = append(ks, total)
		}
		for _, k := range ks {
			if err := checkSampleDistinct(int64(total)*1000+int64(k), perm, k); err != nil {
				t.Fatalf("total %d, k %d: %v", total, k, err)
			}
		}
	}
}

func TestCastFaultsMatchesReference(t *testing.T) {
	for _, loc := range []float64{0, 0.6, 1} {
		for _, window := range []int{0, 1, 3} {
			for _, fpd := range []float64{1, 3.3, 50} {
				for _, total := range []int{1, 5, 40, 1328} {
					m := Model{D0A: 1, FaultsPerDefect: fpd, Locality: loc, Window: window}
					seed := int64(total)*7919 + int64(window)*31 + int64(fpd*10) + int64(loc*10)
					rngA := rand.New(rand.NewSource(seed))
					rngB := rand.New(rand.NewSource(seed))
					rngC := rand.New(rand.NewSource(seed))
					// One scratch across every call, as GenerateLot
					// shares one across a lot's chips.
					scratch := newCastScratch(total)
					for _, nd := range []int{0, 1, 3, 8, 0, 2, 10} {
						got := m.castFaults(rngA, nd, scratch)
						exported := m.CastFaults(rngC, total, nd)
						want := castFaultsReference(m, rngB, total, nd)
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(exported, want) {
							t.Fatalf("%+v total %d ndefects %d: got %v, CastFaults %v, reference %v",
								m, total, nd, got, exported, want)
						}
						for p, on := range scratch.marked {
							if on {
								t.Fatalf("%+v total %d ndefects %d: mark %d left set", m, total, nd, p)
							}
						}
					}
					a, b, c := rngA.Int63(), rngB.Int63(), rngC.Int63()
					if a != b || c != b {
						t.Fatalf("%+v total %d: RNG state diverged: %d, CastFaults %d, reference %d", m, total, a, c, b)
					}
				}
			}
		}
	}
}

func FuzzSampleDistinct(f *testing.F) {
	f.Add(int64(1), 20, 5)
	f.Add(int64(7), 1328, 18)
	f.Add(int64(3), 7, 7)
	f.Add(int64(-9), 1, 1)
	f.Fuzz(func(t *testing.T, seed int64, total, k int) {
		if total <= 0 || total > 1<<16 {
			t.Skip()
		}
		k = numeric.ClampInt(k, 0, total)
		if err := checkSampleDistinct(seed, make([]int32, total), k); err != nil {
			t.Fatalf("seed %d, total %d, k %d: %v", seed, total, k, err)
		}
	})
}

// TestGenerateLotFromModelAllocs pins the dense draw: a lot allocates
// its chip slice, one scratch and one fault slice per defective chip,
// and nothing per chip beyond that.
func TestGenerateLotFromModelAllocs(t *testing.T) {
	universe := universeFor(t)
	var lot Lot
	allocs := testing.AllocsPerRun(5, func() {
		rng := rand.New(rand.NewSource(11))
		var err error
		if lot, err = GenerateLotFromModel(0.07, 8.8, universe, 2000, rng); err != nil {
			t.Fatal(err)
		}
	})
	defective := 0
	for _, c := range lot.Chips {
		if c.Defective() {
			defective++
		}
	}
	const slack = 8 // the RNG, the chip slice, the scratch
	if allocs > float64(defective+slack) {
		t.Errorf("GenerateLotFromModel: %v allocs for %d defective chips, want at most %d",
			allocs, defective, defective+slack)
	}
}

func TestMeanFaultsOnDefectiveEmpty(t *testing.T) {
	lot := Lot{Chips: []Chip{{}, {}}}
	if lot.MeanFaultsOnDefective() != 0 {
		t.Error("all-good lot should report 0")
	}
}

func TestClusteredLotOverdispersion(t *testing.T) {
	// Clustered defects raise the variance of per-chip defect counts
	// relative to Poisson at the same mean, hence a higher yield for
	// the same D0A (Stapper's point behind Eq. 3).
	universe := universeFor(t)
	rngA := rand.New(rand.NewSource(10))
	rngB := rand.New(rand.NewSource(10))
	poisson := Model{D0A: 2, FaultsPerDefect: 2}
	clustered := Model{D0A: 2, Count: ClusteredDefects, Cluster: 0.5, FaultsPerDefect: 2}
	lotP, err := GenerateLot(poisson, universe, 20000, rngA)
	if err != nil {
		t.Fatal(err)
	}
	lotC, err := GenerateLot(clustered, universe, 20000, rngB)
	if err != nil {
		t.Fatal(err)
	}
	if lotC.Yield <= lotP.Yield {
		t.Errorf("clustered yield %v should exceed poisson %v at same D0A", lotC.Yield, lotP.Yield)
	}
}

func BenchmarkGenerateLot(b *testing.B) {
	c, err := netlist.ArrayMultiplier(4)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	m := Model{D0A: 2.659, FaultsPerDefect: 3.3, Locality: 0.7}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateLot(m, universe, 277, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateLotFromModel times lot manufacture alone on one
// paper-lots cell: the collapsed mul8 universe, y 0.07, n0 8.8, 2000
// chips.
func BenchmarkGenerateLotFromModel(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	const chips = 2000
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateLotFromModel(0.07, 8.8, universe, chips, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chips*b.N)/b.Elapsed().Seconds(), "chips/s")
}

// TestCastFaultsDeterministic: the same seed must produce the same
// fault list byte-for-byte, including order, and sorted — CastFaults
// collects indices in probe order, which the result must not expose.
// Without that, every physical-lot experiment differs between runs of
// the same seed.
func TestCastFaultsDeterministic(t *testing.T) {
	m := Model{D0A: 2, FaultsPerDefect: 3, Locality: 0.6, Window: 8}
	rng1 := rand.New(rand.NewSource(42))
	rng2 := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		a := m.CastFaults(rng1, 500, 4)
		b := m.CastFaults(rng2, 500, 4)
		if len(a) != len(b) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order diverged at %d: %v vs %v", trial, i, a, b)
			}
		}
		if !sort.IntsAreSorted(a) {
			t.Fatalf("trial %d: result not sorted: %v", trial, a)
		}
	}
}
