package logicsim

import (
	"fmt"
	"math/bits"
	"slices"
)

// The divergence walk. A multi-fault chip — or a single fault, during
// fault simulation — departs from the good machine at only a few
// percent of the logic slots under a given pattern on ISCAS-scale
// circuits. RunChipBlock simulates only those, the idea behind
// concurrent fault simulation (Ulrich & Baker, 1974): the fault slots
// seed a pending bitmap, slots are popped in ascending (= topological)
// order, a fanin that diverged is read from the walk's difference plane
// and any other from the good machine's plane, and a result is stored
// — and its fanouts scheduled — only when it differs from the good
// value. Every slot never scheduled equals the good machine, so the
// output difference words are exact.
//
// The walk is pattern-parallel: one chip per walk, one pattern per lane,
// 64 patterns of a block at once — the parallel-pattern idea of PPSFP
// (Waicukauski et al., 1985) applied to a multi-fault machine. A slot's
// good word is its word of the block's good plane (GoodPlanes), read in
// the layout it is stored in, and a chip's sites are evaluated once per
// 64 patterns. The difference plane (WideSim.diff) holds each slot's
// word XOR its good word, zero for every slot that did not diverge, so
// a fanin reads as diff ^ good with no test per fanin. A lane mask
// limits the walk to the patterns the caller still needs. The lot
// engine finishes every batch the density rule calls sparse on it, and
// fault simulation (faultsim), strobe refinement and diagnosis grade
// every single fault on it: a fault whose effect dies within a few
// gates costs those few gates, not its whole output cone.

// GoodPlanes holds the good machine's value word of every slot for each
// 64-pattern block of a pattern set: block b's plane is the Slots()
// words at [b*slots, (b+1)*slots), bit p of a word being the slot's
// value under pattern b*64+p. It is immutable after construction and
// safe for concurrent readers.
type GoodPlanes struct {
	f     *Flat
	count int      // patterns covered
	words []uint64 // len = blocks * slots
}

// NewGoodPlanes simulates the good machine over every block of a
// pattern set, one FlatSim walk per block. Every block but the last
// must be full (64 patterns), as PackPatterns over consecutive 64-pattern
// runs produces, so pattern p lives in block p/64 at bit p%64.
func NewGoodPlanes(f *Flat, blocks []PatternBlock) (*GoodPlanes, error) {
	sim := NewFlatSim(f)
	gp := &GoodPlanes{f: f, words: make([]uint64, 0, len(blocks)*f.Slots())}
	for bi, block := range blocks {
		if err := block.Validate(f.numIn); err != nil {
			return nil, err
		}
		if block.Count != 64 && bi != len(blocks)-1 {
			return nil, fmt.Errorf("logicsim: good planes: block %d of %d holds %d patterns, want 64", bi, len(blocks), block.Count)
		}
		copy(sim.val[:f.numIn], block.Inputs)
		sim.walkRange(f.numIn, len(f.op))
		gp.words = append(gp.words, sim.val...)
		gp.count += block.Count
	}
	return gp, nil
}

// Patterns returns the number of patterns the planes cover.
func (gp *GoodPlanes) Patterns() int { return gp.count }

// Block returns the good machine's plane of block b, one word per slot,
// in the layout RunChipBlock reads, or nil when b is outside the
// planes (which RunChipBlock then rejects). Callers must not mutate it.
func (gp *GoodPlanes) Block(b int) []uint64 {
	n := gp.f.Slots()
	if b < 0 || b*64 >= gp.count {
		return nil
	}
	return gp.words[b*n : (b+1)*n]
}

// RunChipBlock evaluates one multi-fault chip over the 64 patterns of a
// block, one pattern per lane, and appends to out each primary output's
// difference word from the good machine: bit p set means the chip's
// output differs under pattern p of the block. It also returns fails,
// the OR of those words — the patterns under which any output fails —
// folded while the outputs are read, so a caller that wants the first
// failing pattern or just whether any failed needs no second pass over
// out. good is the block's good-machine plane, one word per slot
// (GoodPlanes.Block, or FlatSim.Plane after a RunInto). Only the lanes
// set in mask are followed: a slot diverges when (v ^ good) & mask is
// non-zero, so padding lanes past a partial block's last pattern, or
// patterns the caller has already accounted for, cost nothing and
// never set a bit of out. The sim must be 1 word wide.
//
// faults is the chip's fault list resolved by Flat.ResolveInjections on
// the same circuit; they are not revalidated. A stem fault sets its
// slot to the all-0 or all-1 word (on a primary input it overrides the
// input word), a pin fault replaces that fanin's word while its slot is
// evaluated, and a site listed twice keeps its last entry, as
// WideLaneForces and the test oracle do. Only the fault slots and the
// fanout of every slot that diverged are walked.
// A single fault is the single-fault machine: fault simulation grades
// each fault alone on this walk.
//
//repolint:hotpath
func (s *WideSim) RunChipBlock(good []uint64, mask uint64, faults []SlotInjection, out []uint64) ([]uint64, uint64, error) {
	f := s.f
	if s.words != 1 {
		return nil, 0, errChipWords(s.words)
	}
	if len(good) != len(f.op) {
		return nil, 0, errPlaneSize(len(good), len(f.op))
	}
	s.walkChip(good, mask, faults)
	var fails uint64
	if f.outOf == nil {
		out = out[:0]
		for _, os := range f.outSlot {
			out = append(out, s.diff[os])
			fails |= s.diff[os]
		}
		return out, fails, nil
	}
	// Only a diverged slot has a non-zero diff word, so the outputs are
	// read off the divergent region rather than the whole output list.
	out = slices.Grow(out[:0], len(f.outSlot))[:len(f.outSlot)]
	clear(out)
	for _, slot := range s.diverged {
		if oi := f.outOf[slot]; oi >= 0 {
			out[oi] = s.diff[slot]
			fails |= s.diff[slot]
		}
	}
	return out, fails, nil
}

// errChipWords and errPlaneSize build RunChipBlock's validation errors
// outside the annotated hot function.
func errChipWords(words int) error {
	return fmt.Errorf("logicsim: chip walk on a %d-word sim, want 1", words)
}

func errPlaneSize(words, slots int) error {
	return fmt.Errorf("logicsim: good plane of %d words for %d slots (block outside the planes, or planes of another circuit?)", words, slots)
}

// walkChip seeds the pending bitmap with the chip's fault slots, marks
// them as seeds, and pops the bitmap in ascending slot order. A slot's
// fanouts always sit at higher slots than the slot itself, so one
// forward scan over the bitmap words sees every slot scheduled during
// the scan; hi tracks the highest word holding a pending bit, so the
// scan stops at the end of the divergent region. Each popped slot's
// diff word is its value XOR its good word, masked to the lanes
// followed. The previous walk's divergent words are zeroed first,
// restoring the diff plane's invariant.
//
//repolint:hotpath
func (s *WideSim) walkChip(good []uint64, mask uint64, faults []SlotInjection) {
	f := s.f
	for _, slot := range s.diverged {
		s.diff[slot] = 0
	}
	s.diverged = s.diverged[:0]
	lo, hi := len(s.pend), -1
	for _, sf := range faults {
		s.seed[sf.Slot] = true
		wi := int(sf.Slot >> 6)
		s.pend[wi] |= 1 << uint(sf.Slot&63)
		lo, hi = min(lo, wi), max(hi, wi)
	}
	pend := s.pend
	for wi := lo; wi <= hi; wi++ {
		// The word's pending bits are popped from a local copy; a
		// fanout scheduled into this same word is picked up after
		// its scheduling loop.
		w := pend[wi]
		pend[wi] = 0
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &= w - 1
			slot := wi<<6 | bit
			var v uint64
			if s.seed[slot] {
				v = s.chipSeed(slot, good, faults)
			} else {
				v = s.chipFold(slot, good)
			}
			d := (v ^ good[slot]) & mask
			if d == 0 {
				continue
			}
			s.diff[slot] = d
			s.diverged = append(s.diverged, int32(slot))
			fo := f.fanout[f.foAt[slot]:f.foAt[slot+1]]
			for _, r := range fo {
				pend[r>>6] |= 1 << uint(r&63)
			}
			if len(fo) > 0 {
				hi = max(hi, int(fo[len(fo)-1]>>6)) // fanout lists ascend
			}
			w |= pend[wi]
			pend[wi] = 0
		}
	}
	for _, sf := range faults {
		s.seed[sf.Slot] = false
	}
}

// chipFold evaluates a logic slot carrying no fault, each fanin read as
// its diff word XOR its good word. The 1- and 2-input shapes are
// evaluated inline, as in evalWord; wider gates fold.
//
//repolint:hotpath
func (s *WideSim) chipFold(slot int, good []uint64) uint64 {
	f := s.f
	diff, fanin := s.diff, f.fanin
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	op := f.op[slot]
	fs := fanin[lo]
	v := diff[fs] ^ good[fs]
	switch op {
	case opBuf:
		return v
	case opNot:
		return ^v
	case opAnd2, opNand2, opOr2, opNor2, opXor2, opXnor2:
		fb := fanin[lo+1]
		b := diff[fb] ^ good[fb]
		switch op {
		case opAnd2:
			return v & b
		case opNand2:
			return ^(v & b)
		case opOr2:
			return v | b
		case opNor2:
			return ^(v | b)
		case opXor2:
			return v ^ b
		}
		return ^(v ^ b)
	case opAndN, opNandN:
		for _, fs := range fanin[lo+1 : hi] {
			v &= diff[fs] ^ good[fs]
		}
	case opOrN, opNorN:
		for _, fs := range fanin[lo+1 : hi] {
			v |= diff[fs] ^ good[fs]
		}
	default: // the xor family
		for _, fs := range fanin[lo+1 : hi] {
			v ^= diff[fs] ^ good[fs]
		}
	}
	if isInverting(op) {
		v = ^v
	}
	return v
}

// chipSeed evaluates a slot the chip's fault list names. The last stem
// entry on the slot decides its word outright; otherwise the slot (a
// logic slot, since a primary input carries no pins) is folded with
// each pinned fanin replaced by its last entry's stuck word.
func (s *WideSim) chipSeed(slot int, good []uint64, faults []SlotInjection) uint64 {
	stem, stuck := false, false
	for _, sf := range faults {
		if int(sf.Slot) == slot && sf.Pin < 0 {
			stem, stuck = true, sf.Stuck
		}
	}
	if stem {
		return stuckWord(stuck)
	}
	f := s.f
	op := f.op[slot]
	var v uint64
	for k, fs := range f.fanin[f.faninAt[slot]:f.faninAt[slot+1]] {
		b := s.diff[fs] ^ good[fs]
		for _, sf := range faults {
			if int(sf.Slot) == slot && int(sf.Pin) == k {
				b = stuckWord(sf.Stuck)
			}
		}
		switch {
		case k == 0:
			v = b
		case op == opAnd2 || op == opNand2 || op == opAndN || op == opNandN:
			v &= b
		case op == opOr2 || op == opNor2 || op == opOrN || op == opNorN:
			v |= b
		default: // the xor family: 1-fanin ops never reach k > 0
			v ^= b
		}
	}
	if isInverting(op) {
		v = ^v
	}
	return v
}

// stuckWord is the all-1 word for stuck-at-1, all-0 for stuck-at-0.
func stuckWord(stuck bool) uint64 {
	if stuck {
		return ^uint64(0)
	}
	return 0
}

// isInverting reports whether an op code complements its fold (NAND,
// NOR, XNOR, NOT).
func isInverting(op uint8) bool {
	switch op {
	case opNot, opNand2, opNor2, opXnor2, opNandN, opNorN, opXnorN:
		return true
	}
	return false
}
