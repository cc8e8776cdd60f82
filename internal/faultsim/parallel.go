package faultsim

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// RunConcurrent is cone-restricted PPSFP distributed over a goroutine
// pool: the fault list is sharded across workers, each with its own
// flat walk state (FlatSim is not safe for concurrent use) but sharing
// the packed blocks, the immutable flat circuit, and its slot cones.
// Results are identical to the serial engines; only wall-clock changes.
// workers <= 0 selects GOMAXPROCS.
func RunConcurrent(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, workers int) (Result, error) {
	return RunOpts(c, faults, patterns, Concurrent, Options{Workers: workers})
}

// runConcurrent implements the Concurrent engine. Each worker owns a
// contiguous fault shard, so every first-detect slot has exactly one
// writer and fault dropping works shard-locally without synchronization.
func runConcurrent(s *session) error {
	workers := s.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.faults) {
		workers = len(s.faults)
	}
	if workers <= 1 {
		return s.runParallelPattern(true)
	}
	blocks, err := s.packBlocks(false)
	if err != nil {
		return err
	}
	flat, err := s.flatCircuit()
	if err != nil {
		return err
	}
	// Resolved before the workers spawn and shared across the pool: a
	// cone compiles on its first request, from whichever worker asks,
	// and is read-only from then on.
	cones, err := s.flatConeSet()
	if err != nil {
		return err
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	chunk := (len(s.faults) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(s.faults) {
			hi = len(s.faults)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fsim := logicsim.NewFlatSim(flat)
			var scratch []uint64
			for bi := range blocks {
				b := &blocks[bi]
				ran := false // good machine not yet established for this block
				for fi := lo; fi < hi; fi++ {
					if !s.alive(fi) {
						continue
					}
					if !ran {
						out, werr := fsim.RunInto(b.pat, scratch)
						if werr != nil {
							errOnce.Do(func() { firstErr = werr })
							return
						}
						scratch = out
						ran = true
					}
					diff, out, werr := s.diffFault(fsim, cones, b, fi, scratch)
					if werr != nil {
						errOnce.Do(func() { firstErr = werr })
						return
					}
					scratch = out
					if diff != 0 {
						s.detect(fi, b.base+bits.TrailingZeros64(diff))
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr
}
