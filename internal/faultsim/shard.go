package faultsim

import (
	"math/bits"
	"sync"

	"repro/internal/logicsim"
)

// diffFault simulates fault fi against the block whose good-machine
// values the flat simulator holds, re-evaluating only the fault's slot
// cone (with activation early-exit), and returns the word whose bit p
// is set iff pattern p of the block detects the fault. The cone walks
// never mutate the good values, so consecutive calls share one good
// evaluation. The cone is borrowed from the set (ConeOfPtr): no
// FlatCone copy on this per-(fault, block) path, and the gate-to-slot
// map is a plain array lookup.
//
//repolint:hotpath
func (s *session) diffFault(fsim *logicsim.FlatSim, cones *logicsim.FlatConeSet, fi int) (uint64, error) {
	f := s.faults[fi]
	slot := fsim.Flat().SlotOf(f.Gate)
	cone := cones.ConeOfPtr(slot)
	if f.Pin < 0 {
		return fsim.RunCone(slot, f.Stuck, cone, nil)
	}
	return fsim.RunConeForced(slot, f.Pin, f.Stuck, cone, nil)
}

// run is the parallel-pattern engine over the flat core: 64 patterns
// per machine word, one fault injected at a time. Faults already
// detected in earlier blocks are dropped, and each faulty pass is
// restricted to the fault's slot cone on top of the block's
// good-machine values.
//
// workers (Options.Workers) splits the fault list into that many
// contiguous shards, each run on its own goroutine with its own flat
// walk state (FlatSim is not safe for concurrent use) over the shared
// blocks, flat circuit and slot cones. workers <= 1 runs the one shard
// [0, len(faults)) inline and starts no goroutine. Results do not
// depend on the shard count.
func (s *session) run(workers int) error {
	// The flat form and the slot cones are cached on the circuit across
	// sessions and shared by every shard: a cone compiles on its first
	// request, from whichever shard asks, and is read-only from then on.
	cones, err := logicsim.FlatConeSetFor(s.c)
	if err != nil {
		return err
	}
	blocks, err := s.packBlocks()
	if err != nil {
		return err
	}
	flat := cones.Flat()
	fsim := logicsim.NewFlatSim(flat)
	shards := min(workers, len(s.faults))
	if shards <= 1 {
		return s.runShard(fsim, cones, blocks, 0, len(s.faults))
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	chunk := (len(s.faults) + shards - 1) / shards
	for w := range shards {
		lo := w * chunk
		hi := min(lo+chunk, len(s.faults))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := fsim
			if w > 0 {
				sim = logicsim.NewFlatSim(flat)
			}
			errs[w] = s.runShard(sim, cones, blocks, lo, hi)
		}()
	}
	wg.Wait()
	// The lowest failing shard's error, so the report does not depend
	// on goroutine timing.
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runShard is the one block×fault loop: it simulates faults [lo, hi)
// against every block in pattern order. Each fault index belongs to
// exactly one shard, so every first-detect slot has one writer and
// fault dropping works shard-locally without synchronization. The good
// machine is established at most once per block, and only if some
// fault of the shard is still alive; the loop stops at the first block
// where none is.
//
//repolint:hotpath
func (s *session) runShard(fsim *logicsim.FlatSim, cones *logicsim.FlatConeSet, blocks []logicsim.PatternBlock, lo, hi int) error {
	var (
		scratch []uint64
		diff    uint64
		err     error
	)
	for bi := range blocks {
		live := false
		for fi := lo; fi < hi; fi++ {
			if !s.alive(fi) {
				continue
			}
			if !live {
				// The cone walks leave the good machine untouched, so
				// one evaluation serves every surviving fault.
				if scratch, err = fsim.RunInto(blocks[bi], scratch); err != nil {
					return err
				}
				live = true
			}
			if diff, err = s.diffFault(fsim, cones, fi); err != nil {
				return err
			}
			if diff != 0 {
				s.detect(fi, bi*64+bits.TrailingZeros64(diff))
			}
		}
		if !live {
			break // nothing left in the shard; skip the dead tail
		}
	}
	return nil
}
