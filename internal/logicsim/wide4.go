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
// slot's pin forces during evaluation and its stem force to the result.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot4(slot int, lf *WideLaneForces) {
	dst := s.block4(slot)
	if lf.forced(slot) {
		if pins := lf.pins[slot]; len(pins) > 0 {
			s.evalStaged4(slot, dst, pins)
		} else {
			s.evalSlot4(slot, dst)
		}
		cf := (*[8]uint64)(lf.stem[slot*8:]) // care words 0..3, force 4..7
		dst[0] = dst[0]&^cf[0] | cf[4]
		dst[1] = dst[1]&^cf[1] | cf[5]
		dst[2] = dst[2]&^cf[2] | cf[6]
		dst[3] = dst[3]&^cf[3] | cf[7]
		return
	}
	s.evalSlot4(slot, dst)
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

// evalStaged4 evaluates a pin-forced slot at words == 4. In a dense
// chipparallel256 batch most of the circuit carries forces, so this runs
// for a large fraction of gates per walk: the ubiquitous 1- and 2-input
// shapes are evaluated inline on local copies with no staging pass, and
// only wider gates pay the generic staged path.
func (s *WideSim) evalStaged4(slot int, dst *[4]uint64, pins []widePin) {
	f := s.f
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	op := f.op[slot]
	switch hi - lo {
	case 1:
		a := *(*[4]uint64)(s.val[int(f.fanin[lo])*4:])
		for i := range pins {
			pl := &pins[i]
			a[0] = a[0]&^pl.care[0] | pl.force[0]
			a[1] = a[1]&^pl.care[1] | pl.force[1]
			a[2] = a[2]&^pl.care[2] | pl.force[2]
			a[3] = a[3]&^pl.care[3] | pl.force[3]
		}
		if op == opNot {
			dst[0], dst[1], dst[2], dst[3] = ^a[0], ^a[1], ^a[2], ^a[3]
		} else { // opBuf: 1-fanin gates compile to buf or not only
			*dst = a
		}
	case 2:
		a := *(*[4]uint64)(s.val[int(f.fanin[lo])*4:])
		b := *(*[4]uint64)(s.val[int(f.fanin[lo+1])*4:])
		for i := range pins {
			pl := &pins[i]
			if pl.pin == 0 {
				a[0] = a[0]&^pl.care[0] | pl.force[0]
				a[1] = a[1]&^pl.care[1] | pl.force[1]
				a[2] = a[2]&^pl.care[2] | pl.force[2]
				a[3] = a[3]&^pl.care[3] | pl.force[3]
			} else {
				b[0] = b[0]&^pl.care[0] | pl.force[0]
				b[1] = b[1]&^pl.care[1] | pl.force[1]
				b[2] = b[2]&^pl.care[2] | pl.force[2]
				b[3] = b[3]&^pl.care[3] | pl.force[3]
			}
		}
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
		case opXnor2:
			dst[0], dst[1], dst[2], dst[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
		}
	default:
		s.evalStaged(slot, dst[:], pins)
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
