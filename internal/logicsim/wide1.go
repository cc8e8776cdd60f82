package logicsim

// The 1-word (64-lane) specialization of the wide walk. This is the
// width the chipparallel256 engine's dead-lane compaction collapses to
// once a batch's survivors fit in 64 lanes — on shallow circuits that
// is most of every batch's lifetime — so the walk must not pay the
// generic stride loop's per-word branch for a single word. The kernels
// mirror wide4.go with scalar ops.

// block1 returns slot's lane block as a plain word pointer.
func (s *WideSim) block1(slot int) *uint64 {
	return &s.val[slot]
}

// evalForcedSlot1 is evalForcedSlot at words == 1.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot1(slot int, lf *WideLaneForces) {
	dst := s.block1(slot)
	if lf.forced(slot) {
		if pins := lf.pins[slot]; len(pins) > 0 {
			s.evalStaged1(slot, dst, pins)
		} else {
			s.evalSlot1(slot, dst)
		}
		*dst = *dst&^lf.stem[2*slot] | lf.stem[2*slot+1]
		return
	}
	s.evalSlot1(slot, dst)
}

// evalSlot1 is the unforced gate evaluation at words == 1: one op
// switch, scalar word ops.
//
//repolint:hotpath
func (s *WideSim) evalSlot1(slot int, dst *uint64) {
	f := s.f
	val, fanin := s.val, f.fanin
	lo := f.faninAt[slot]
	switch f.op[slot] {
	case opBuf:
		*dst = val[fanin[lo]]
	case opNot:
		*dst = ^val[fanin[lo]]
	case opAnd2:
		*dst = val[fanin[lo]] & val[fanin[lo+1]]
	case opNand2:
		*dst = ^(val[fanin[lo]] & val[fanin[lo+1]])
	case opOr2:
		*dst = val[fanin[lo]] | val[fanin[lo+1]]
	case opNor2:
		*dst = ^(val[fanin[lo]] | val[fanin[lo+1]])
	case opXor2:
		*dst = val[fanin[lo]] ^ val[fanin[lo+1]]
	case opXnor2:
		*dst = ^(val[fanin[lo]] ^ val[fanin[lo+1]])
	default:
		*dst = evalFlatN(f.op[slot], fanin[lo:f.faninAt[slot+1]], val)
	}
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
