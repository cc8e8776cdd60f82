package logicsim

// The 1-word (64-lane) width of the wide walk. This is the width the
// chipparallel256 engine's dead-lane compaction collapses to once a
// batch's survivors fit in 64 lanes — on shallow circuits that is most
// of every batch's lifetime. An unforced slot is one evalWord, the
// scalar gate switch FlatSim.walkRange runs; forces are applied around
// it with scalar ops, mirroring wide4.go. It is also the only width
// the chip walk (RunChipBlock, diverge.go) runs at.

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
