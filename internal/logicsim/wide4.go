package logicsim

// The 4-word (256-lane) width of the wide walk. A stride loop over the
// words would pay a bounds check and a loop branch per word; at the
// width the chipparallel256 lot engine batches at, that overhead
// dominates the gate function itself. Converting each lane block to a
// *[4]uint64 (a plain slice-to-array-pointer conversion, one length
// check per block) lets the compiler emit straight-line unchecked word
// ops — the scalar walk's single-op gate evaluation, four words wide.
// The divergence walk's 4-word kernel (divSlot4, see diverge.go) is
// built the same way, its folds returning the four words in registers.

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

// divSlot4 is the divergence walk's kernel at words == 4, divSlot1
// four words wide: it evaluates one pending slot, applies its stem
// force, stores the result's difference from the good machine (zero
// keeps the diff plane's invariant), and reports whether any lane
// departs from it.
//
//repolint:hotpath
func (s *WideSim) divSlot4(slot int, good []uint64, sh uint, lf *WideLaneForces) bool {
	var v0, v1, v2, v3 uint64
	forced := lf.forced(slot)
	if forced && (slot < s.f.numIn || len(lf.pins[slot]) > 0) {
		v0, v1, v2, v3 = s.divPinned4(slot, good, sh, lf.pins[slot])
	} else {
		v0, v1, v2, v3 = s.divFold4(slot, good, sh)
	}
	if forced {
		cf := (*[8]uint64)(lf.stem[slot*8:]) // care words 0..3, force 4..7
		v0 = v0&^cf[0] | cf[4]
		v1 = v1&^cf[1] | cf[5]
		v2 = v2&^cf[2] | cf[6]
		v3 = v3&^cf[3] | cf[7]
	}
	g := -(good[slot] >> sh & 1)
	o := (*[4]uint64)(s.diff[slot*4:])
	o[0], o[1], o[2], o[3] = v0^g, v1^g, v2^g, v3^g
	return o[0]|o[1]|o[2]|o[3] != 0
}

// divFold4 evaluates a logic slot with no pin forces at words == 4,
// each fanin read as its diff block XOR its broadcast good bit; the
// four words come back in registers.
//
//repolint:hotpath
func (s *WideSim) divFold4(slot int, good []uint64, sh uint) (v0, v1, v2, v3 uint64) {
	f := s.f
	diff, fanin := s.diff, f.fanin
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	op := f.op[slot]
	fs := int(fanin[lo])
	b := -(good[fs] >> sh & 1)
	d := (*[4]uint64)(diff[fs*4:])
	v0, v1, v2, v3 = d[0]^b, d[1]^b, d[2]^b, d[3]^b
	switch op {
	case opAnd2, opNand2, opAndN, opNandN:
		for _, fs := range fanin[lo+1 : hi] {
			b := -(good[fs] >> sh & 1)
			d := (*[4]uint64)(diff[int(fs)*4:])
			v0, v1, v2, v3 = v0&(d[0]^b), v1&(d[1]^b), v2&(d[2]^b), v3&(d[3]^b)
		}
	case opOr2, opNor2, opOrN, opNorN:
		for _, fs := range fanin[lo+1 : hi] {
			b := -(good[fs] >> sh & 1)
			d := (*[4]uint64)(diff[int(fs)*4:])
			v0, v1, v2, v3 = v0|(d[0]^b), v1|(d[1]^b), v2|(d[2]^b), v3|(d[3]^b)
		}
	case opXor2, opXnor2, opXorN, opXnorN:
		for _, fs := range fanin[lo+1 : hi] {
			b := -(good[fs] >> sh & 1)
			d := (*[4]uint64)(diff[int(fs)*4:])
			v0, v1, v2, v3 = v0^d[0]^b, v1^d[1]^b, v2^d[2]^b, v3^d[3]^b
		}
	}
	if isInverting(op) {
		v0, v1, v2, v3 = ^v0, ^v1, ^v2, ^v3
	}
	return v0, v1, v2, v3
}

// divPinned4 is divFold4 for a forced primary input (which carries the
// pattern bit) or a slot with pin forces, applied to each fanin as it
// is read. Only seeds of the walk come here.
func (s *WideSim) divPinned4(slot int, good []uint64, sh uint, pins []widePin) (v0, v1, v2, v3 uint64) {
	f := s.f
	if slot < f.numIn {
		g := -(good[slot] >> sh & 1)
		return g, g, g, g
	}
	op := f.op[slot]
	for k, fs := range f.fanin[f.faninAt[slot]:f.faninAt[slot+1]] {
		b := -(good[fs] >> sh & 1)
		d := (*[4]uint64)(s.diff[int(fs)*4:])
		b0, b1, b2, b3 := d[0]^b, d[1]^b, d[2]^b, d[3]^b
		for i := range pins {
			if pl := &pins[i]; int(pl.pin) == k {
				b0 = b0&^pl.care[0] | pl.force[0]
				b1 = b1&^pl.care[1] | pl.force[1]
				b2 = b2&^pl.care[2] | pl.force[2]
				b3 = b3&^pl.care[3] | pl.force[3]
			}
		}
		switch {
		case k == 0:
			v0, v1, v2, v3 = b0, b1, b2, b3
		case op == opAnd2 || op == opNand2 || op == opAndN || op == opNandN:
			v0, v1, v2, v3 = v0&b0, v1&b1, v2&b2, v3&b3
		case op == opOr2 || op == opNor2 || op == opOrN || op == opNorN:
			v0, v1, v2, v3 = v0|b0, v1|b1, v2|b2, v3|b3
		default: // the xor family: 1-fanin ops never reach k > 0
			v0, v1, v2, v3 = v0^b0, v1^b1, v2^b2, v3^b3
		}
	}
	if isInverting(op) {
		v0, v1, v2, v3 = ^v0, ^v1, ^v2, ^v3
	}
	return v0, v1, v2, v3
}
