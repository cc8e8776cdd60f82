package logicsim

import "fmt"

// Trit is a three-valued logic level: 0, 1, or X (unknown).
type Trit uint8

// Ternary logic values.
const (
	F Trit = iota // logic 0
	T             // logic 1
	X             // unknown
)

// String renders the trit.
func (t Trit) String() string {
	switch t {
	case F:
		return "0"
	case T:
		return "1"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Trit(%d)", uint8(t))
	}
}

// NotT returns three-valued NOT.
func NotT(a Trit) Trit {
	switch a {
	case F:
		return T
	case T:
		return F
	default:
		return X
	}
}

// EvalSlotT evaluates one logic slot of the flat circuit in three-valued
// logic over a slot-indexed value plane — the ternary kernel behind
// PODEM's implication. pin >= 0 replaces that fanin's value with forced
// (an input-pin fault at the slot); pin < 0 reads every fanin from val.
// The result equals the test oracle's per-gate ref.EvalT over the
// gate's type and fanin values. The slot must be a logic slot (not a
// primary input) and pin, if set, one of its pins.
//
//repolint:hotpath
func (f *Flat) EvalSlotT(val []Trit, slot, pin int, forced Trit) Trit {
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	switch op := f.op[slot]; op {
	case opBuf, opNot:
		v := forced
		if pin != 0 {
			v = val[fanin[0]]
		}
		if op == opNot {
			return NotT(v)
		}
		return v
	case opAnd2, opNand2, opOr2, opNor2, opXor2, opXnor2:
		a, b := val[fanin[0]], val[fanin[1]]
		switch pin {
		case 0:
			a = forced
		case 1:
			b = forced
		}
		return tritLUT2[op][a&3][b&3]
	default:
		var seen, odd uint8
		for i, fs := range fanin {
			v := val[fs]
			if i == pin {
				v = forced
			}
			seen |= 1 << v
			odd ^= uint8(v) & 1
		}
		return tritFold[op][seen&7][odd&1]
	}
}

// tritLUT2[op][a][b] is 2-input op code op over trits a and b (index 3
// unused), so the common gate shapes evaluate with one load.
var tritLUT2 = func() (lut [opXnor2 + 1][4][4]Trit) {
	for op := opAnd2; op <= opXnor2; op++ {
		for a := F; a <= X; a++ {
			for b := F; b <= X; b++ {
				lut[op][a][b] = foldT(op, 1<<a|1<<b, uint8(a&1^b&1))
			}
		}
	}
	return lut
}()

// tritFold[op][seen][odd] is foldT tabulated for the wide op codes, so
// a wide gate costs its fanin loop plus one load.
var tritFold = func() (lut [opXnorN + 1][8][2]Trit) {
	for op := opAndN; op <= opXnorN; op++ {
		for seen := range uint8(8) {
			for odd := range uint8(2) {
				lut[op][seen][odd] = foldT(op, seen, odd)
			}
		}
	}
	return lut
}()

// foldT finishes a ternary AND/OR/XOR-family gate from a summary of its
// fanin values: seen has bit v set for every fanin value v (F=0, T=1,
// X=2), odd is the parity of the 1s. AND is 0 if any 0 and else X if
// any X; OR is 1 if any 1 and else X if any X; XOR is X if any X and
// else the parity. The inverting ops complement the result.
func foldT(op uint8, seen, odd uint8) Trit {
	var r Trit
	switch op {
	case opAnd2, opNand2, opAndN, opNandN:
		switch {
		case seen&(1<<F) != 0:
			r = F
		case seen&(1<<X) != 0:
			r = X
		default:
			r = T
		}
	case opOr2, opNor2, opOrN, opNorN:
		switch {
		case seen&(1<<T) != 0:
			r = T
		case seen&(1<<X) != 0:
			r = X
		default:
			r = F
		}
	default: // XOR family
		r = Trit(odd)
		if seen&(1<<X) != 0 {
			r = X
		}
	}
	switch op {
	case opNand2, opNandN, opNor2, opNorN, opXnor2, opXnorN:
		return NotT(r)
	}
	return r
}
