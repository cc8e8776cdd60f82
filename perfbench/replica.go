package main

// The traced run times the public calls circuits.Prepare and
// LotRunner.RunLotWith make, one by one, so it has to redo the small
// amount of glue those functions keep private. Each helper below
// mirrors one unexported function of the program; the traced run
// checks that the artifacts and the campaign CSV it builds with them
// are byte-identical to the program's own, so a drifted copy fails the
// run instead of skewing the breakdown.

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/faultsim"
)

// sampleFaults mirrors circuits.sampleFaults: m faults drawn without
// replacement from a splitmix64 stream, kept in universe order.
func sampleFaults(full []fault.Fault, m int, seed int64) []fault.Fault {
	idx := make([]int, len(full))
	for i := range idx {
		idx[i] = i
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0x7552
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < m; i++ {
		j := i + int(next()%uint64(len(idx)-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := idx[:m]
	sort.Ints(chosen)
	out := make([]fault.Fault, m)
	for i, id := range chosen {
		out[i] = full[id]
	}
	return out
}

// replicateSeed mirrors sweep.replicateSeed: the splitmix64 finalizer
// over the base seed and the global task index.
func replicateSeed(base int64, task int) int64 {
	z := uint64(base) + uint64(task+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// rampCheckpoints mirrors experiment.rampCheckpoints: the Table 1
// reduction points of a lot, at most k, plus the final step.
func rampCheckpoints(ramp faultsim.Ramp, k int) []int {
	if ramp.Steps == 0 {
		return nil
	}
	targets := []float64{0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.36, 0.45, 0.50, 0.65}
	var out []int
	ti := 0
	for _, pt := range ramp.Points {
		for ti < len(targets) && pt.Coverage >= targets[ti] {
			out = append(out, pt.Pattern)
			ti++
			if len(out) >= k {
				break
			}
		}
		if len(out) >= k || ti >= len(targets) {
			break
		}
	}
	dedup := out[:0]
	prev := -1
	for _, i := range out {
		if i != prev {
			dedup = append(dedup, i)
			prev = i
		}
	}
	out = dedup
	if len(out) == 0 || out[len(out)-1] != ramp.Steps-1 {
		out = append(out, ramp.Steps-1)
	}
	return out
}
