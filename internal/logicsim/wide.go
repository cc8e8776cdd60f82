package logicsim

import (
	"errors"
	"fmt"
)

// The wide lane layer generalizes the 64-bit machine word to an N-word
// lane block: 64*N independent bit-lanes ride one flat circuit walk.
// The ATE's chipparallel256 lot engine puts the good machine plus up
// to 255 defective chips in the lanes of a block. Lane blocks are
// stored stride-packed: a slot's block is the W contiguous words at
// [slot*W, slot*W+W), lane L living in word L/64 bit L%64 — so the
// whole value plane is one contiguous []uint64 and the walk stays a
// linear sweep.
//
// There are exactly two widths, each with its own kernel: 1 word (the
// scalar evalWord switch, wide1.go) and MaxLaneWords words (unrolled,
// wide4.go). A middle width would need a kernel of its own — a generic
// stride loop pays a bounds check and a loop branch per word — and buys
// nothing: a lot engine that starts every batch at 4 words and compacts
// straight to 1 measured neutral or faster on every perfbench workload
// than one that also walked 2 and 3 words.

// MaxLaneWords is the wide lane-block width: 256 lanes per walk, the
// block a chipparallel256 batch (the good machine plus at most 255
// chips) starts at.
const MaxLaneWords = 4

// ErrLaneWords marks a lane-block word count other than 1 or
// MaxLaneWords. Both wide-layer constructors (simulator and forcing
// table) wrap it, so callers can errors.Is a shape mistake regardless
// of which one caught it.
var ErrLaneWords = errors.New("lane-block word count not supported")

// validLaneWords rejects widths other than 1 and MaxLaneWords.
func validLaneWords(words int) error {
	if words != 1 && words != MaxLaneWords {
		return fmt.Errorf("logicsim: lane block of %d words, want 1 or %d: %w", words, MaxLaneWords, ErrLaneWords)
	}
	return nil
}

// WideLaneForces is a multi-fault forcing table over the 64*N lanes of
// an N-word lane block, indexed by *slot* so it pairs with the flat
// walk: each lane carries one machine, and each forced slot carries a
// care mask (which lanes are forced there) and force bits (their stuck
// values), applied as v = (v &^ care) | force word by word. Stem forces
// overwrite a slot's output block; pin forces overwrite one fanin block
// during that slot's evaluation only. Adding the same site twice on an
// overlapping lane keeps the last value, as the test oracle's
// ref.Simulator.RunWithFaults does for a chip's ordered fault list, and
// Reset is O(1) via an epoch
// bump. Not safe for concurrent use.
type WideLaneForces struct {
	f     *Flat
	words int
	epoch int32
	mark  []int32 // per slot: epoch its entries belong to
	// stem holds the stride-packed stem masks of every slot, care and
	// force interleaved: slot s owns stem[s*2*words : (s+1)*2*words),
	// care block first, force block second. Builds and force application
	// always touch a slot's care and force words together, and slots are
	// visited in scattered order — keeping the pair adjacent makes the
	// common case one cache line per site instead of two (a measurable
	// share of lot-engine time on shallow circuits, where tables are
	// rebuilt far more often than they are walked). An all-zero care
	// block means no stem fault on the slot this epoch.
	stem []uint64
	// pins holds the per-input-pin masks of each slot, truncated to zero
	// length when the slot is first touched in a new epoch.
	pins [][]widePin
	// sites lists the slots forced this epoch, in first-touch order: the
	// divergence walk's seeds (RunLaneDiverged).
	sites []int32
}

// widePin is one forced input pin of a slot. The masks are fixed-size
// so pin entries recycle across epochs without reallocation; only the
// leading `words` entries are meaningful.
type widePin struct {
	pin         int32
	care, force [MaxLaneWords]uint64
}

// NewWideLaneForces allocates a forcing table of 64*words lanes sized
// for the flat circuit.
func NewWideLaneForces(f *Flat, words int) (*WideLaneForces, error) {
	if err := validLaneWords(words); err != nil {
		return nil, err
	}
	n := f.Slots()
	return &WideLaneForces{
		f:     f,
		words: words,
		epoch: 1,
		mark:  make([]int32, n),
		stem:  make([]uint64, n*2*words),
		pins:  make([][]widePin, n),
	}, nil
}

// Lanes returns the number of bit-lanes of the table.
func (lf *WideLaneForces) Lanes() int { return 64 * lf.words }

// Words returns the lane-block width in machine words.
func (lf *WideLaneForces) Words() int { return lf.words }

// Reset empties the table for reuse in O(1).
func (lf *WideLaneForces) Reset() {
	lf.epoch++
	lf.sites = lf.sites[:0]
}

// ForcedSlots returns the number of distinct slots forced this epoch.
func (lf *WideLaneForces) ForcedSlots() int { return len(lf.sites) }

// Injection is one stuck-at fault to inject during simulation. Pin < 0
// places the fault on the gate output; otherwise on that input pin.
// (It mirrors fault.Fault without importing it, keeping this package a
// pure simulation substrate.)
type Injection struct {
	Gate  int
	Pin   int
	Stuck bool
}

// SlotInjection is an Injection resolved to slot space: the fault site
// as a flat slot index, with site and pin validation already done. A
// negative Pin is an output-stem fault, as in Injection.
// Flat.ResolveInjections produces them; AddResolved consumes them
// without revalidating — the bulk-build path of the lot engines, which
// rebuild forcing tables from the same fault universe every batch and
// would otherwise pay the gate-range check and gate→slot lookup on
// every one of those adds.
type SlotInjection struct {
	Slot  int32
	Pin   int32
	Stuck bool
}

// ResolveInjections validates a fault list and resolves it to slot
// space in one pass, so repeated table builds over the same universe
// can use AddResolved instead of revalidating every fault.
func (f *Flat) ResolveInjections(faults []Injection) ([]SlotInjection, error) {
	out := make([]SlotInjection, len(faults))
	for i, fi := range faults {
		if fi.Gate < 0 || fi.Gate >= f.Slots() {
			return nil, fmt.Errorf("logicsim: fault site %d out of range", fi.Gate)
		}
		slot := f.slotOf[fi.Gate]
		if fi.Pin >= 0 {
			if nf := int(f.faninAt[slot+1] - f.faninAt[slot]); fi.Pin >= nf {
				return nil, fmt.Errorf("logicsim: gate %d has no pin %d", fi.Gate, fi.Pin)
			}
		}
		out[i] = SlotInjection{Slot: slot, Pin: int32(fi.Pin), Stuck: fi.Stuck}
	}
	return out, nil
}

// AddResolved forces a pre-resolved fault onto one lane. The caller
// guarantees the injection came from ResolveInjections on the same
// flat circuit and that lane is inside 0..Lanes()-1; no per-call
// validation is repeated. On a lane already forced at the same site,
// the new stuck value wins.
//
//repolint:hotpath
func (lf *WideLaneForces) AddResolved(f SlotInjection, lane int) {
	slot := int(f.Slot)
	base := slot * 2 * lf.words
	if lf.mark[slot] != lf.epoch {
		lf.mark[slot] = lf.epoch
		for k := 0; k < 2*lf.words; k++ {
			lf.stem[base+k] = 0
		}
		lf.pins[slot] = lf.pins[slot][:0]
		lf.sites = append(lf.sites, f.Slot)
	}
	word, bit := lane>>6, uint(lane&63)
	if f.Pin < 0 {
		o := base + word
		lf.stem[o] |= 1 << bit
		if f.Stuck {
			lf.stem[o+lf.words] |= 1 << bit
		} else {
			lf.stem[o+lf.words] &^= 1 << bit
		}
		return
	}
	for i := range lf.pins[slot] {
		if pl := &lf.pins[slot][i]; pl.pin == f.Pin {
			pl.care[word] |= 1 << bit
			if f.Stuck {
				pl.force[word] |= 1 << bit
			} else {
				pl.force[word] &^= 1 << bit
			}
			return
		}
	}
	var pl widePin
	pl.pin = f.Pin
	pl.care[word] |= 1 << bit
	if f.Stuck {
		pl.force[word] |= 1 << bit
	}
	lf.pins[slot] = append(lf.pins[slot], pl)
}

// forced reports whether the slot carries forces this epoch.
func (lf *WideLaneForces) forced(slot int) bool {
	return lf.mark[slot] == lf.epoch
}

// WideSim is the N-word walk state over a Flat: one stride-packed lane
// block per slot, reused across runs. Not safe for concurrent use;
// create one per goroutine over the shared Flat.
type WideSim struct {
	f     *Flat
	words int
	val   []uint64 // stride-packed value plane, slot s at [s*words, s*words+words)
	stage []uint64 // fanin staging scratch for pin-forced gates
	// Divergence-walk state (see RunLaneDiverged). diff is a second
	// stride-packed plane holding each slot's lane block XOR the
	// broadcast good bit: zero wherever no lane departs from the good
	// machine, so a fanin reads as diff ^ good with no branch. diverged
	// lists the slots whose diff block is non-zero, cleared at the start
	// of the next walk; pend is the bitmap of slots awaiting evaluation.
	diff     []uint64
	diverged []int32
	pend     []uint64
}

// NewWideSim allocates wide walk state of 64*words lanes for the flat
// circuit.
func NewWideSim(f *Flat, words int) (*WideSim, error) {
	if err := validLaneWords(words); err != nil {
		return nil, err
	}
	n := f.Slots()
	return &WideSim{
		f:     f,
		words: words,
		val:   make([]uint64, n*words),
		diff:  make([]uint64, n*words),
		pend:  make([]uint64, (n+63)/64),
	}, nil
}

// RunLaneForced evaluates pattern p of the block across all 64*Words
// lanes in one flat walk: every lane sees the same input bits
// (broadcast from bit p of each packed input word) and each forced site
// applies its lane masks. Lanes carrying no fault — lane 0 by engine
// convention — compute the good circuit. Output lane blocks are
// appended stride-packed to out (reused when capacity allows) in
// primary-output order. This is the chipparallel256 lot engine's inner
// loop: one walk per pattern evaluates the good machine plus up to
// 64*Words-1 defective chips.
//
//repolint:hotpath
func (s *WideSim) RunLaneForced(block PatternBlock, p int, lf *WideLaneForces, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.Validate(f.numIn); err != nil {
		return nil, err
	}
	if p < 0 || p >= block.Count {
		return nil, errPatternRange(p, block.Count)
	}
	if lf.f != f || lf.words != s.words {
		return nil, errForcesShape(lf.words)
	}
	w := s.words
	for i := 0; i < f.numIn; i++ {
		b := -(block.Inputs[i] >> uint(p) & 1)
		o := i * w
		if lf.forced(i) {
			sb := i * 2 * w
			for k := 0; k < w; k++ {
				s.val[o+k] = b&^lf.stem[sb+k] | lf.stem[sb+w+k]
			}
		} else {
			for k := 0; k < w; k++ {
				s.val[o+k] = b
			}
		}
	}
	s.walkForced(lf)
	return s.appendOutputs(out), nil
}

// appendOutputs appends the primary-output lane blocks to out.
func (s *WideSim) appendOutputs(out []uint64) []uint64 {
	out = out[:0]
	w := s.words
	for _, os := range s.f.outSlot {
		o := int(os) * w
		out = append(out, s.val[o:o+w]...)
	}
	return out
}

// errForcesShape and errPatternRange build RunLaneForced's validation
// errors outside the annotated hot function, keeping fmt off the hot
// path.
func errForcesShape(words int) error {
	return fmt.Errorf("logicsim: forcing table shape (%d words) does not match simulator", words)
}

func errPatternRange(p, count int) error {
	return fmt.Errorf("logicsim: pattern %d outside block of %d", p, count)
}

// walkForced is the wide hot loop: one linear pass over the logic
// slots with the forcing table applied. The width dispatch is hoisted
// out of the loop, so each slot pays one kernel call.
//
//repolint:hotpath
func (s *WideSim) walkForced(lf *WideLaneForces) {
	f := s.f
	if s.words == 1 {
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot1(slot, lf)
		}
		return
	}
	for slot := f.numIn; slot < len(f.op); slot++ {
		s.evalForcedSlot4(slot, lf)
	}
}

// evalStaged evaluates a pin-forced slot: fanin lane blocks are staged,
// the pin masks applied, then the op evaluated over the staged blocks.
// It is the fallback of both widths for pin-forced gates of 3+ inputs.
func (s *WideSim) evalStaged(slot int, dst []uint64, pins []widePin) {
	f := s.f
	w := s.words
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	n := int(hi-lo) * w
	if cap(s.stage) < n {
		s.stage = make([]uint64, n)
	}
	stage := s.stage[:n]
	for i, fs := range f.fanin[lo:hi] {
		copy(stage[i*w:(i+1)*w], s.val[int(fs)*w:int(fs)*w+w])
	}
	for i := range pins {
		pl := &pins[i]
		o := int(pl.pin) * w
		for k := 0; k < w; k++ {
			stage[o+k] = stage[o+k]&^pl.care[k] | pl.force[k]
		}
	}
	op := f.op[slot]
	copy(dst, stage[:w])
	switch op {
	case opBuf:
	case opNot:
		for k := 0; k < w; k++ {
			dst[k] = ^dst[k]
		}
	case opAnd2, opNand2, opAndN, opNandN:
		for o := w; o < n; o += w {
			for k := 0; k < w; k++ {
				dst[k] &= stage[o+k]
			}
		}
		if op == opNand2 || op == opNandN {
			for k := 0; k < w; k++ {
				dst[k] = ^dst[k]
			}
		}
	case opOr2, opNor2, opOrN, opNorN:
		for o := w; o < n; o += w {
			for k := 0; k < w; k++ {
				dst[k] |= stage[o+k]
			}
		}
		if op == opNor2 || op == opNorN {
			for k := 0; k < w; k++ {
				dst[k] = ^dst[k]
			}
		}
	case opXor2, opXnor2, opXorN, opXnorN:
		for o := w; o < n; o += w {
			for k := 0; k < w; k++ {
				dst[k] ^= stage[o+k]
			}
		}
		if op == opXnor2 || op == opXnorN {
			for k := 0; k < w; k++ {
				dst[k] = ^dst[k]
			}
		}
	default:
		panic(fmt.Sprintf("logicsim: evalStaged on op %d", op))
	}
}
