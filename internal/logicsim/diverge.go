package logicsim

import (
	"fmt"
	"math/bits"
)

// The divergence-driven lane walk. In a lane block of nearly identical
// machines — the good circuit plus chips that each carry a handful of
// faults — almost every slot holds the good value on every lane: on
// ISCAS-scale circuits only a few percent of the logic slots have a lane
// that departs from the good machine at a given pattern. RunLaneDiverged
// simulates only those, the idea behind concurrent fault simulation
// (Ulrich & Baker, 1974): the forced slots seed a pending bitmap, slots
// are popped in ascending (= topological) order, a fanin that diverged
// at this pattern is read from the lane plane and any other as the
// broadcast bit of the good machine's plane, and a result is stored —
// and its fanouts scheduled — only when some lane differs from the good
// bit. Every slot never scheduled equals the good machine on every
// lane, so the output blocks are exactly RunLaneForced's.
//
// The lane plane of this walk (WideSim.diff) holds each slot's block
// XOR its broadcast good bit, which is zero for every slot that did not
// diverge: a fanin reads as diff ^ good whether it diverged or not, with
// no test per fanin.
//
// The walk comes in two layouts over the same scratch:
//
//   - Lane-parallel (RunLaneDiverged): one pattern per walk, one machine
//     per lane — the good machine plus up to 255 chips. Every walk
//     re-evaluates the forced sites of every chip in the table.
//   - Pattern-parallel (RunChipBlock): one chip per walk, one pattern
//     per lane, 64 patterns of a block at once — the parallel-pattern
//     idea of PPSFP (Waicukauski et al., 1985) applied to a multi-fault
//     machine. A slot's good word is its GoodPlanes word itself rather
//     than a broadcast bit, so the planes are read in the layout they
//     are stored in, and a chip's sites are evaluated once per 64
//     patterns. It carries one machine per walk, so it wins when a
//     table would force few slots anyway: the lot engine takes it for
//     a batch the density rule calls sparse.

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

// RunLaneDiverged evaluates pattern p (an index into the whole pattern
// set gp covers) across all 64*Words lanes and returns the same output
// lane blocks as RunLaneForced over that pattern's block, but walks only
// the slots where some lane departs from the good machine: the slots lf
// forces, and the fanout of every slot that diverged. Its cost tracks
// the divergent region rather than the circuit, so it wins when the
// table forces few slots; a table forcing much of the circuit diverges
// almost everywhere and is cheaper on RunLaneForced's linear sweep.
//
//repolint:hotpath
func (s *WideSim) RunLaneDiverged(gp *GoodPlanes, p int, lf *WideLaneForces, out []uint64) ([]uint64, error) {
	f := s.f
	if gp.f != f {
		return nil, errPlanesCircuit()
	}
	if p < 0 || p >= gp.count {
		return nil, errPatternRange(p, gp.count)
	}
	if lf.f != f || lf.words != s.words {
		return nil, errForcesShape(lf.words)
	}
	n := len(f.op)
	bi := p >> 6
	good := gp.words[bi*n : (bi+1)*n]
	sh := uint(p & 63)
	s.walkDiverged(good, sh, lf)
	out = out[:0]
	w := s.words
	for _, os := range f.outSlot {
		g := -(good[os] >> sh & 1)
		o := int(os) * w
		for _, d := range s.diff[o : o+w] {
			out = append(out, d^g)
		}
	}
	return out, nil
}

// errPlanesCircuit builds RunLaneDiverged's circuit-mismatch error
// outside the annotated hot function.
func errPlanesCircuit() error {
	return fmt.Errorf("logicsim: good planes built over a different flat circuit")
}

// RunChipBlock evaluates one multi-fault chip over the 64 patterns of
// block b of the pattern set gp covers, one pattern per lane, and
// appends to out each primary output's difference word from the good
// machine: bit p set means the chip's output differs under pattern
// b*64+p. Bits past the last pattern of a partial final block are
// meaningless; the caller masks them. The sim must be 1 word wide.
//
// faults is the chip's fault list resolved by Flat.ResolveInjections on
// the same circuit; they are not revalidated. A stem fault sets its
// slot to the all-0 or all-1 word (on a primary input it overrides the
// input word), a pin fault replaces that fanin's word while its slot is
// evaluated, and a site listed twice keeps its last entry, as
// WideLaneForces and the test oracle do. Only the fault slots and the
// fanout of every slot that diverged are walked, as in RunLaneDiverged.
//
//repolint:hotpath
func (s *WideSim) RunChipBlock(gp *GoodPlanes, b int, faults []SlotInjection, out []uint64) ([]uint64, error) {
	f := s.f
	if s.words != 1 {
		return nil, errChipWords(s.words)
	}
	if gp.f != f {
		return nil, errPlanesCircuit()
	}
	if b < 0 || b*64 >= gp.count {
		return nil, errBlockRange(b, gp.count)
	}
	n := len(f.op)
	good := gp.words[b*n : (b+1)*n]
	s.walkChip(good, faults)
	out = out[:0]
	for _, os := range f.outSlot {
		out = append(out, s.diff[os])
	}
	return out, nil
}

// errChipWords and errBlockRange build RunChipBlock's validation errors
// outside the annotated hot function.
func errChipWords(words int) error {
	return fmt.Errorf("logicsim: chip walk on a %d-word sim, want 1", words)
}

func errBlockRange(b, patterns int) error {
	return fmt.Errorf("logicsim: block %d outside good planes of %d patterns", b, patterns)
}

// walkChip is walkDiverged in the pattern-parallel layout: the chip's
// fault slots seed the pending bitmap and are marked as seeds for the
// walk, and each popped slot's diff word is its value XOR its good
// word.
//
//repolint:hotpath
func (s *WideSim) walkChip(good []uint64, faults []SlotInjection) {
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
	for wi := lo; wi <= hi; wi++ {
		for s.pend[wi] != 0 {
			bit := bits.TrailingZeros64(s.pend[wi])
			s.pend[wi] &^= 1 << uint(bit)
			slot := wi<<6 | bit
			var v uint64
			if s.seed[slot] {
				v = s.chipSeed(slot, good, faults)
			} else {
				v = s.chipFold(slot, good)
			}
			d := v ^ good[slot]
			if d == 0 {
				continue
			}
			s.diff[slot] = d
			s.diverged = append(s.diverged, int32(slot))
			fo := f.fanout[f.foAt[slot]:f.foAt[slot+1]]
			for _, r := range fo {
				s.pend[r>>6] |= 1 << uint(r&63)
			}
			if len(fo) > 0 {
				hi = max(hi, int(fo[len(fo)-1]>>6)) // fanout lists ascend
			}
		}
	}
	for _, sf := range faults {
		s.seed[sf.Slot] = false
	}
}

// chipFold evaluates a logic slot carrying no fault, each fanin read as
// its diff word XOR its good word.
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
	case opAnd2, opNand2, opAndN, opNandN:
		for _, fs := range fanin[lo+1 : hi] {
			v &= diff[fs] ^ good[fs]
		}
	case opOr2, opNor2, opOrN, opNorN:
		for _, fs := range fanin[lo+1 : hi] {
			v |= diff[fs] ^ good[fs]
		}
	case opXor2, opXnor2, opXorN, opXnorN:
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

// walkDiverged seeds the pending bitmap with the forced slots and pops
// it in ascending slot order. A slot's fanouts always sit at higher
// slots than the slot itself, so one forward scan over the bitmap words sees every
// slot scheduled during the scan; hi tracks the highest word holding a
// pending bit, so the scan stops at the end of the divergent region.
// The previous walk's divergent blocks are zeroed first, restoring the
// diff plane's invariant.
//
//repolint:hotpath
func (s *WideSim) walkDiverged(good []uint64, sh uint, lf *WideLaneForces) {
	f := s.f
	w := s.words
	if w == 1 {
		for _, slot := range s.diverged {
			s.diff[slot] = 0
		}
	} else {
		for _, slot := range s.diverged {
			*(*[4]uint64)(s.diff[int(slot)*4:]) = [4]uint64{}
		}
	}
	s.diverged = s.diverged[:0]
	lo, hi := len(s.pend), -1
	for _, slot := range lf.sites {
		wi := int(slot >> 6)
		s.pend[wi] |= 1 << uint(slot&63)
		lo, hi = min(lo, wi), max(hi, wi)
	}
	for wi := lo; wi <= hi; wi++ {
		for s.pend[wi] != 0 {
			bit := bits.TrailingZeros64(s.pend[wi])
			s.pend[wi] &^= 1 << uint(bit)
			slot := wi<<6 | bit
			var diverged bool
			if w == 1 {
				diverged = s.divSlot1(slot, good, sh, lf)
			} else {
				diverged = s.divSlot4(slot, good, sh, lf)
			}
			if !diverged {
				continue
			}
			s.diverged = append(s.diverged, int32(slot))
			fo := f.fanout[f.foAt[slot]:f.foAt[slot+1]]
			for _, r := range fo {
				s.pend[r>>6] |= 1 << uint(r&63)
			}
			if len(fo) > 0 {
				hi = max(hi, int(fo[len(fo)-1]>>6)) // fanout lists ascend
			}
		}
	}
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
