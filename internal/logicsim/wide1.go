package logicsim

// The 1-word (64-lane) width of the wide walk. This is the width the
// chipparallel256 engine's dead-lane compaction collapses to once a
// batch's survivors fit in 64 lanes — on shallow circuits that is most
// of every batch's lifetime. An unforced slot is one evalWord, the
// scalar gate switch FlatSim.walkRange runs; a forced slot reads its
// fanins through their pin masks and its result through its stem mask,
// straight from the slot's block pairs in the forcing table, mirroring
// wide4.go. It is also the only width the chip walk (RunChipBlock,
// diverge.go) runs at.

// evalForcedSlot1 evaluates one logic slot at words == 1, applying the
// slot's pin masks to its fanins and its stem mask to the result. A
// forced slot's unforced sites hold all-zero masks, so every fanin is
// masked with no test for which pins carry faults.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot1(slot int, lf *WideLaneForces) {
	if !lf.forced(slot) {
		s.val[slot] = evalWord(s.f, s.val, slot)
		return
	}
	f := s.f
	lo := f.faninAt[slot]
	t := lf.tab[(slot+int(lo))*2:] // stem care, force; pin 0 care, force; ...
	op := f.op[slot]
	var v uint64
	switch op {
	case opBuf, opNot:
		v = s.val[f.fanin[lo]]&^t[2] | t[3]
		if op == opNot {
			v = ^v
		}
	case opAnd2, opNand2, opOr2, opNor2, opXor2, opXnor2:
		t := (*[6]uint64)(t)
		a := s.val[f.fanin[lo]]&^t[2] | t[3]
		b := s.val[f.fanin[lo+1]]&^t[4] | t[5]
		switch op {
		case opAnd2:
			v = a & b
		case opNand2:
			v = ^(a & b)
		case opOr2:
			v = a | b
		case opNor2:
			v = ^(a | b)
		case opXor2:
			v = a ^ b
		default:
			v = ^(a ^ b)
		}
	default:
		s.evalStaged(slot, s.val[slot:slot+1], t[2:])
		v = s.val[slot]
	}
	s.val[slot] = v&^t[0] | t[1]
}
