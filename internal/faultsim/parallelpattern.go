package faultsim

import (
	"math/bits"

	"repro/internal/logicsim"
)

// diffFault simulates fault fi against one block on the flat core and
// returns the word whose bit p is set iff pattern p of the block
// detects the fault, plus the (possibly regrown) output scratch slice.
// With cones non-nil the pass is cone-restricted — only the fault's
// slot cone is re-evaluated, with activation early-exit — and the flat
// simulator must already hold the block's good-machine values (the cone
// walks never mutate them, so consecutive calls share one good
// evaluation). With cones nil it is the serial baseline's full-circuit
// path: a scalar flat walk with the fault injected, diffed against the
// stored good outputs.
// This is the single copy of the diff-and-detect rule every
// parallel-pattern engine (serial, ppsfp, concurrent) runs on.
//
//repolint:hotpath
func (s *session) diffFault(fsim *logicsim.FlatSim, cones *logicsim.FlatConeSet, b *block, fi int, scratch []uint64) (uint64, []uint64, error) {
	f := s.faults[fi]
	if cones != nil {
		// The cone is borrowed from the set (ConeOfPtr): no FlatCone copy
		// on this per-(fault, block) path, and the gate-to-slot map is a
		// plain array lookup.
		var (
			diff uint64
			err  error
		)
		slot := fsim.Flat().SlotOf(f.Gate)
		cone := cones.ConeOfPtr(slot)
		if f.Pin < 0 {
			diff, err = fsim.RunCone(slot, f.Stuck, cone, nil)
		} else {
			diff, err = fsim.RunConeForced(slot, f.Pin, f.Stuck, cone, nil)
		}
		return diff, scratch, err
	}
	slot := fsim.Flat().SlotOf(f.Gate)
	bad, err := fsim.RunWithFaultInto(b.pat, slot, f.Pin, f.Stuck, scratch)
	if err != nil {
		return 0, scratch, err
	}
	mask := b.pat.Mask()
	var diff uint64
	for o := range bad {
		diff |= (bad[o] ^ b.good[o]) & mask
	}
	return diff, bad, nil
}

// runParallelPattern is the parallel-pattern engine family over the
// flat core: 64 patterns per machine word, one fault injected at a
// time. With ppsfp set, faults already detected in earlier blocks are
// dropped and each faulty pass is restricted to the fault's slot cone
// on top of the block's good-machine values; without it every fault
// meets every block on a full-circuit walk, the serial baseline.
func (s *session) runParallelPattern(ppsfp bool) error {
	blocks, err := s.packBlocks(!ppsfp)
	if err != nil {
		return err
	}
	fsim, err := s.flatSim()
	if err != nil {
		return err
	}
	var cones *logicsim.FlatConeSet
	if ppsfp {
		if cones, err = s.flatConeSet(); err != nil {
			return err
		}
	}
	var scratch []uint64
	for bi := range blocks {
		b := &blocks[bi]
		if ppsfp {
			if !s.anyAlive() {
				break // everything detected; skip the dead tail
			}
			// Establish the good machine for this block; the cone walks
			// leave it untouched, so one evaluation serves every
			// surviving fault.
			if scratch, err = fsim.RunInto(b.pat, scratch); err != nil {
				return err
			}
		}
		for fi := range s.faults {
			if ppsfp && !s.alive(fi) {
				continue
			}
			var diff uint64
			diff, scratch, err = s.diffFault(fsim, cones, b, fi, scratch)
			if err != nil {
				return err
			}
			if diff != 0 {
				s.detect(fi, b.base+bits.TrailingZeros64(diff))
			}
		}
	}
	return nil
}
