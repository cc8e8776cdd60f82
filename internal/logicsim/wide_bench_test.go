package logicsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// BenchmarkWideWidths measures the forced wide walk per lane at the two
// widths the lot engine walks: W=1 (the scalar evalWord kernel) and
// W=4 (the unrolled kernel). The per-lane rate is what the lot engine's
// compaction trades: a 4-word walk costs more per pattern but less per
// lane while the batch is full.
func BenchmarkWideWidths(b *testing.B) {
	c, err := netlist.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	f, err := logicsim.FlatFor(c)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	patterns := make([]logicsim.Pattern, 64)
	for i := range patterns {
		p := make(logicsim.Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		patterns[i] = p
	}
	block, err := logicsim.PackPatterns(patterns)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range wideWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			sim, err := logicsim.NewWideSim(f, w)
			if err != nil {
				b.Fatal(err)
			}
			lf, err := logicsim.NewWideLaneForces(f, w)
			if err != nil {
				b.Fatal(err)
			}
			// Lane 0 stays good-machine; every other lane carries one
			// stuck fault, the engines' batch shape.
			for lane := 1; lane < lf.Lanes(); lane++ {
				g := rng.Intn(len(c.Gates))
				forceMachine(b, f, lf, []logicsim.Injection{{Gate: g, Pin: -1, Stuck: lane%2 == 0}}, lane)
			}
			var out []uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err = sim.RunLaneForced(block, i%block.Count, lf, out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lf.Lanes()), "ns/lane")
		})
	}
}
