package logicsim

// The 4-word (256-lane) width of the wide walk. A stride loop over the
// words would pay a bounds check and a loop branch per word; at the
// width the chipparallel256 lot engine batches at, that overhead
// dominates the gate function itself. Converting each lane block to a
// *[4]uint64 (a plain slice-to-array-pointer conversion, one length
// check per block) lets the compiler emit straight-line unchecked word
// ops — the scalar walk's single-op gate evaluation, four words wide.

// block4 returns slot's lane block as a fixed-size array pointer.
func (s *WideSim) block4(slot int) *[4]uint64 {
	return (*[4]uint64)(s.val[slot*4:])
}

// evalForcedSlot4 evaluates one logic slot at words == 4, applying the
// slot's pin masks to its fanins and its stem mask to the result. Each
// site's block pair is viewed as one *[8]uint64, care words 0..3 and
// force words 4..7; a forced slot's unforced sites hold all-zero
// masks, so every fanin is masked with no test for which pins carry
// faults.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot4(slot int, lf *WideLaneForces) {
	dst := s.block4(slot)
	if !lf.forced(slot) {
		s.evalSlot4(slot, dst)
		return
	}
	f := s.f
	lo := f.faninAt[slot]
	t := lf.tab[(slot+int(lo))*8:]
	op := f.op[slot]
	switch op {
	case opBuf, opNot:
		a := forced4(s.val, f.fanin[lo], (*[8]uint64)(t[8:]))
		if op == opNot {
			a[0], a[1], a[2], a[3] = ^a[0], ^a[1], ^a[2], ^a[3]
		}
		*dst = a
	case opAnd2, opNand2, opOr2, opNor2, opXor2, opXnor2:
		pins := (*[16]uint64)(t[8:])
		a := forced4(s.val, f.fanin[lo], (*[8]uint64)(pins[:8]))
		b := forced4(s.val, f.fanin[lo+1], (*[8]uint64)(pins[8:]))
		switch op {
		case opAnd2:
			dst[0], dst[1], dst[2], dst[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
		case opNand2:
			dst[0], dst[1], dst[2], dst[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
		case opOr2:
			dst[0], dst[1], dst[2], dst[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
		case opNor2:
			dst[0], dst[1], dst[2], dst[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
		case opXor2:
			dst[0], dst[1], dst[2], dst[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
		default:
			dst[0], dst[1], dst[2], dst[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
		}
	default:
		s.evalStaged(slot, dst[:], t[8:])
	}
	cf := (*[8]uint64)(t)
	dst[0] = dst[0]&^cf[0] | cf[4]
	dst[1] = dst[1]&^cf[1] | cf[5]
	dst[2] = dst[2]&^cf[2] | cf[6]
	dst[3] = dst[3]&^cf[3] | cf[7]
}

// forced4 returns the lane block of fanin slot fs with a pin's masks
// applied: care words 0..3 of cf cleared, force words 4..7 set.
func forced4(val []uint64, fs int32, cf *[8]uint64) [4]uint64 {
	a := (*[4]uint64)(val[int(fs)*4:])
	return [4]uint64{a[0]&^cf[0] | cf[4], a[1]&^cf[1] | cf[5], a[2]&^cf[2] | cf[6], a[3]&^cf[3] | cf[7]}
}

// evalSlot4 is the unforced gate evaluation at words == 4: one op
// switch, unrolled fixed-size word ops.
//
//repolint:hotpath
func (s *WideSim) evalSlot4(slot int, dst *[4]uint64) {
	f := s.f
	val, fanin := s.val, f.fanin
	lo := f.faninAt[slot]
	switch f.op[slot] {
	case opBuf:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		*dst = *a
	case opNot:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		dst[0], dst[1], dst[2], dst[3] = ^a[0], ^a[1], ^a[2], ^a[3]
	case opAnd2:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		b := (*[4]uint64)(val[int(fanin[lo+1])*4:])
		dst[0], dst[1], dst[2], dst[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
	case opNand2:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		b := (*[4]uint64)(val[int(fanin[lo+1])*4:])
		dst[0], dst[1], dst[2], dst[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
	case opOr2:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		b := (*[4]uint64)(val[int(fanin[lo+1])*4:])
		dst[0], dst[1], dst[2], dst[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
	case opNor2:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		b := (*[4]uint64)(val[int(fanin[lo+1])*4:])
		dst[0], dst[1], dst[2], dst[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
	case opXor2:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		b := (*[4]uint64)(val[int(fanin[lo+1])*4:])
		dst[0], dst[1], dst[2], dst[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
	case opXnor2:
		a := (*[4]uint64)(val[int(fanin[lo])*4:])
		b := (*[4]uint64)(val[int(fanin[lo+1])*4:])
		dst[0], dst[1], dst[2], dst[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
	default:
		s.evalWideN4(slot, dst)
	}
}

// evalWideN4 evaluates the wide (3+ fanin) op codes at words == 4.
func (s *WideSim) evalWideN4(slot int, dst *[4]uint64) {
	f := s.f
	val := s.val
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	op := f.op[slot]
	*dst = *(*[4]uint64)(val[int(fanin[0])*4:])
	switch op {
	case opAndN, opNandN:
		for _, fs := range fanin[1:] {
			b := (*[4]uint64)(val[int(fs)*4:])
			dst[0], dst[1], dst[2], dst[3] = dst[0]&b[0], dst[1]&b[1], dst[2]&b[2], dst[3]&b[3]
		}
	case opOrN, opNorN:
		for _, fs := range fanin[1:] {
			b := (*[4]uint64)(val[int(fs)*4:])
			dst[0], dst[1], dst[2], dst[3] = dst[0]|b[0], dst[1]|b[1], dst[2]|b[2], dst[3]|b[3]
		}
	case opXorN, opXnorN:
		for _, fs := range fanin[1:] {
			b := (*[4]uint64)(val[int(fs)*4:])
			dst[0], dst[1], dst[2], dst[3] = dst[0]^b[0], dst[1]^b[1], dst[2]^b[2], dst[3]^b[3]
		}
	}
	if op == opNandN || op == opNorN || op == opXnorN {
		dst[0], dst[1], dst[2], dst[3] = ^dst[0], ^dst[1], ^dst[2], ^dst[3]
	}
}
