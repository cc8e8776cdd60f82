package logicsim

// The 1-word (64-lane) width of the wide walk. This is the width the
// chipparallel256 engine's dead-lane compaction collapses to once a
// batch's survivors fit in 64 lanes — on shallow circuits that is most
// of every batch's lifetime. An unforced slot is one evalWord, the
// scalar gate switch FlatSim.walkRange runs; forces are applied around
// it with scalar ops, mirroring wide4.go. The divergence walk's 1-word
// kernel (divSlot1, see diverge.go) lives here too.

// evalForcedSlot1 evaluates one logic slot at words == 1, applying the
// slot's pin forces during evaluation and its stem force to the result.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot1(slot int, lf *WideLaneForces) {
	dst := &s.val[slot]
	if !lf.forced(slot) {
		*dst = evalWord(s.f, s.val, slot)
		return
	}
	if pins := lf.pins[slot]; len(pins) > 0 {
		s.evalStaged1(slot, dst, pins)
	} else {
		*dst = evalWord(s.f, s.val, slot)
	}
	*dst = *dst&^lf.stem[2*slot] | lf.stem[2*slot+1]
}

// evalStaged1 evaluates a pin-forced slot at words == 1. Like the
// 4-word kernel, the ubiquitous 1- and 2-input shapes run inline on
// local copies; wider gates take the generic staged path.
func (s *WideSim) evalStaged1(slot int, dst *uint64, pins []widePin) {
	f := s.f
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	op := f.op[slot]
	switch hi - lo {
	case 1:
		a := s.val[f.fanin[lo]]
		for i := range pins {
			pl := &pins[i]
			a = a&^pl.care[0] | pl.force[0]
		}
		if op == opNot {
			*dst = ^a
		} else { // opBuf: 1-fanin gates compile to buf or not only
			*dst = a
		}
	case 2:
		a := s.val[f.fanin[lo]]
		b := s.val[f.fanin[lo+1]]
		for i := range pins {
			pl := &pins[i]
			if pl.pin == 0 {
				a = a&^pl.care[0] | pl.force[0]
			} else {
				b = b&^pl.care[0] | pl.force[0]
			}
		}
		switch op {
		case opAnd2:
			*dst = a & b
		case opNand2:
			*dst = ^(a & b)
		case opOr2:
			*dst = a | b
		case opNor2:
			*dst = ^(a | b)
		case opXor2:
			*dst = a ^ b
		case opXnor2:
			*dst = ^(a ^ b)
		}
	default:
		s.evalStaged(slot, s.val[slot:slot+1], pins)
	}
}

// divSlot1 is the divergence walk's kernel at words == 1: it evaluates
// one pending slot with every fanin read as its diff word XOR its
// broadcast good bit, applies the slot's pin and stem forces, stores the
// result's difference from the good machine (zero keeps the diff
// plane's invariant), and reports whether any lane departs from it.
//
//repolint:hotpath
func (s *WideSim) divSlot1(slot int, good []uint64, sh uint, lf *WideLaneForces) bool {
	var v uint64
	forced := lf.forced(slot)
	if forced && (slot < s.f.numIn || len(lf.pins[slot]) > 0) {
		v = s.divPinned1(slot, good, sh, lf.pins[slot])
	} else {
		v = s.divFold1(slot, good, sh)
	}
	if forced {
		v = v&^lf.stem[2*slot] | lf.stem[2*slot+1]
	}
	d := v ^ -(good[slot] >> sh & 1)
	s.diff[slot] = d
	return d != 0
}

// divFold1 evaluates a logic slot with no pin forces at words == 1,
// each fanin read as its diff word XOR its broadcast good bit.
//
//repolint:hotpath
func (s *WideSim) divFold1(slot int, good []uint64, sh uint) uint64 {
	f := s.f
	diff, fanin := s.diff, f.fanin
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	op := f.op[slot]
	fs := fanin[lo]
	v := diff[fs] ^ -(good[fs] >> sh & 1)
	switch op {
	case opAnd2, opNand2, opAndN, opNandN:
		for _, fs := range fanin[lo+1 : hi] {
			v &= diff[fs] ^ -(good[fs] >> sh & 1)
		}
	case opOr2, opNor2, opOrN, opNorN:
		for _, fs := range fanin[lo+1 : hi] {
			v |= diff[fs] ^ -(good[fs] >> sh & 1)
		}
	case opXor2, opXnor2, opXorN, opXnorN:
		for _, fs := range fanin[lo+1 : hi] {
			v ^= diff[fs] ^ -(good[fs] >> sh & 1)
		}
	}
	if isInverting(op) {
		v = ^v
	}
	return v
}

// divPinned1 is divFold1 for a forced primary input (which carries the
// pattern bit) or a slot with pin forces, applied to each fanin as it
// is read. Only seeds of the walk come here.
func (s *WideSim) divPinned1(slot int, good []uint64, sh uint, pins []widePin) uint64 {
	f := s.f
	if slot < f.numIn {
		return -(good[slot] >> sh & 1)
	}
	op := f.op[slot]
	var v uint64
	for k, fs := range f.fanin[f.faninAt[slot]:f.faninAt[slot+1]] {
		b := s.diff[fs] ^ -(good[fs] >> sh & 1)
		for i := range pins {
			if pl := &pins[i]; int(pl.pin) == k {
				b = b&^pl.care[0] | pl.force[0]
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
