package logicsim

import (
	"errors"
	"fmt"
)

// The wide lane layer generalizes the 64-bit machine word to an N-word
// lane block: 64*N independent bit-lanes ride one flat circuit walk.
// The fault simulator's pf256 engine puts the good machine plus 255
// faulty machines in the lanes of a 4-word block; the ATE's
// chipparallel256 lot engine puts the good machine plus 255 defective
// chips there. Lane blocks are stored stride-packed: a slot's block is
// the W contiguous words at [slot*W, slot*W+W), lane L living in word
// L/64 bit L%64 — so the whole value plane is one contiguous []uint64
// and the walk stays a linear sweep.

// MaxLaneWords bounds the lane-block width: up to 512 lanes per walk.
// Wider blocks stop paying — the value plane falls out of cache before
// the per-gate overhead amortizes any further.
const MaxLaneWords = 8

// ErrLaneWords marks a lane-block word count outside 1..MaxLaneWords.
// Every wide-layer entry point (simulators, forcing tables, block
// packing and conversion) wraps it, so callers can errors.Is a shape
// mistake regardless of which layer caught it.
var ErrLaneWords = errors.New("lane-block word count outside range")

// validLaneWords rejects widths outside 1..MaxLaneWords.
func validLaneWords(words int) error {
	if words < 1 || words > MaxLaneWords {
		return fmt.Errorf("logicsim: lane block of %d words outside 1..%d: %w", words, MaxLaneWords, ErrLaneWords)
	}
	return nil
}

// WidePatternBlock packs up to 64*Words patterns: lane p of input i's
// block is pattern p's value of input i — the N-word generalization of
// PatternBlock. Input i's block is Inputs[i*Words : (i+1)*Words].
type WidePatternBlock struct {
	Inputs []uint64 // stride-packed lane blocks, one per primary input
	Words  int      // words per lane block (1..MaxLaneWords)
	Count  int      // number of valid patterns (1..64*Words)
}

// PackWidePatterns packs up to 64*words patterns into a wide block. All
// patterns must have the same width (the circuit's input count).
func PackWidePatterns(patterns []Pattern, words int) (WidePatternBlock, error) {
	if err := validLaneWords(words); err != nil {
		return WidePatternBlock{}, err
	}
	if max := 64 * words; len(patterns) == 0 || len(patterns) > max {
		return WidePatternBlock{}, fmt.Errorf("logicsim: wide block needs 1..%d patterns, got %d", max, len(patterns))
	}
	width := len(patterns[0])
	inputs := make([]uint64, width*words)
	for p, pat := range patterns {
		if len(pat) != width {
			return WidePatternBlock{}, fmt.Errorf("logicsim: pattern %d width %d != %d", p, len(pat), width)
		}
		for i, v := range pat {
			if v {
				inputs[i*words+p>>6] |= 1 << uint(p&63)
			}
		}
	}
	return WidePatternBlock{Inputs: inputs, Words: words, Count: len(patterns)}, nil
}

// WidenBlock converts a packed 64-pattern block to a words-wide lane
// block: the block's patterns occupy lanes 0..Count-1 (word 0 of every
// input's lane block), the remaining lanes are zero. A word count
// outside 1..MaxLaneWords is rejected with ErrLaneWords, and a block
// whose shape cannot have come from PackPatterns (Count outside 1..64)
// is rejected before any allocation — the zero-value PatternBlock being
// the classic way to hit it.
func WidenBlock(b PatternBlock, words int) (WidePatternBlock, error) {
	if err := validLaneWords(words); err != nil {
		return WidePatternBlock{}, err
	}
	if b.Count < 1 || b.Count > 64 {
		return WidePatternBlock{}, fmt.Errorf("logicsim: block Count %d outside 1..64 (zero-value PatternBlock?)", b.Count)
	}
	inputs := make([]uint64, len(b.Inputs)*words)
	for i, w := range b.Inputs {
		inputs[i*words] = w
	}
	return WidePatternBlock{Inputs: inputs, Words: words, Count: b.Count}, nil
}

// MaskInto appends the valid-lane mask (Words words) to dst.
func (b WidePatternBlock) MaskInto(dst []uint64) []uint64 {
	dst = dst[:0]
	for k := 0; k < b.Words; k++ {
		lo := k * 64
		switch {
		case b.Count >= lo+64:
			dst = append(dst, ^uint64(0))
		case b.Count > lo:
			dst = append(dst, (uint64(1)<<uint(b.Count-lo))-1)
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// validate rejects a wide block whose shape cannot have come from
// PackWidePatterns, mirroring PatternBlock.validate.
func (b WidePatternBlock) validate(nIn int) error {
	if err := validLaneWords(b.Words); err != nil {
		return err
	}
	if len(b.Inputs) != nIn*b.Words {
		return fmt.Errorf("logicsim: wide block has %d words for %d inputs × %d words", len(b.Inputs), nIn, b.Words)
	}
	if max := 64 * b.Words; b.Count < 1 || b.Count > max {
		return fmt.Errorf("logicsim: wide block Count %d outside 1..%d (zero-value block?)", b.Count, max)
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
// overlapping lane keeps the last value, as the oracle's RunWithFaults
// does for a chip's ordered fault list, and Reset is O(1) via an epoch
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
func (lf *WideLaneForces) Reset() { lf.epoch++ }

// Add forces the fault onto one lane. On a lane already forced at the
// same site, the new stuck value wins.
func (lf *WideLaneForces) Add(f Injection, lane int) error {
	if f.Gate < 0 || f.Gate >= lf.f.Slots() {
		return fmt.Errorf("logicsim: fault site %d out of range", f.Gate)
	}
	if lane < 0 || lane >= lf.Lanes() {
		return fmt.Errorf("logicsim: lane %d outside 0..%d", lane, lf.Lanes()-1)
	}
	slot := lf.f.slotOf[f.Gate]
	if f.Pin >= 0 {
		if nf := int(lf.f.faninAt[slot+1] - lf.f.faninAt[slot]); f.Pin >= nf {
			return fmt.Errorf("logicsim: gate %d has no pin %d", f.Gate, f.Pin)
		}
	}
	lf.AddResolved(SlotInjection{Slot: slot, Pin: int32(f.Pin), Stuck: f.Stuck}, lane)
	return nil
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
// validation is repeated. Overlap semantics match Add: the new stuck
// value wins.
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
	return lf != nil && lf.mark[slot] == lf.epoch
}

// WideSim is the N-word walk state over a Flat: one stride-packed lane
// block per slot, reused across runs. Not safe for concurrent use;
// create one per goroutine over the shared Flat.
type WideSim struct {
	f     *Flat
	words int
	val   []uint64 // stride-packed value plane, slot s at [s*words, s*words+words)
	stage []uint64 // fanin staging scratch for pin-forced gates
}

// NewWideSim allocates wide walk state of 64*words lanes for the flat
// circuit.
func NewWideSim(f *Flat, words int) (*WideSim, error) {
	if err := validLaneWords(words); err != nil {
		return nil, err
	}
	return &WideSim{f: f, words: words, val: make([]uint64, f.Slots()*words)}, nil
}

// Flat returns the compiled form the simulator walks.
func (s *WideSim) Flat() *Flat { return s.f }

// Words returns the lane-block width in machine words.
func (s *WideSim) Words() int { return s.words }

// Lanes returns the number of bit-lanes per walk.
func (s *WideSim) Lanes() int { return 64 * s.words }

// ValueWords returns the lane block of a slot after the last run. The
// returned slice aliases the value plane; callers must not mutate it.
func (s *WideSim) ValueWords(slot int) []uint64 {
	return s.val[slot*s.words : (slot+1)*s.words]
}

// Broadcast spreads bit p of a 64-bit word across every lane of the
// slot's value — how engines seed frontier slots with good-machine
// values before a subset walk.
func (s *WideSim) Broadcast(slot int, word uint64, p int) {
	b := -(word >> uint(p) & 1)
	o := slot * s.words
	for k := 0; k < s.words; k++ {
		s.val[o+k] = b
	}
}

// RunInto simulates a wide pattern block (lanes carry patterns) and
// appends the stride-packed primary-output lane blocks to out, reusing
// its capacity: the N-word counterpart of Simulator.RunInto.
func (s *WideSim) RunInto(block WidePatternBlock, out []uint64) ([]uint64, error) {
	f := s.f
	if err := block.validate(f.numIn); err != nil {
		return nil, err
	}
	if block.Words != s.words {
		return nil, fmt.Errorf("logicsim: %d-word block through a %d-word simulator", block.Words, s.words)
	}
	copy(s.val[:f.numIn*s.words], block.Inputs)
	s.walkForced(nil)
	return s.appendOutputs(out), nil
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
	if err := block.validate(f.numIn); err != nil {
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

// EvalSlotsForced evaluates only the given slots, in order, with the
// forcing table applied — the subset walk behind the pf256 engine's
// union-cone passes. slots must be ascending (slot order is
// topological); values of fanins outside the subset are whatever the
// caller staged (typically good-machine Broadcasts). Input slots inside
// the subset are re-broadcast from the good simulator's value before
// stem forcing, so a forced primary input works like any other site.
func (s *WideSim) EvalSlotsForced(good *FlatSim, p int, slots []int32, lf *WideLaneForces) error {
	if good.f != s.f {
		return fmt.Errorf("logicsim: good-machine simulator walks a different flat circuit")
	}
	if lf != nil && (lf.f != s.f || lf.words != s.words) {
		return fmt.Errorf("logicsim: forcing table shape (%d words) does not match simulator", lf.words)
	}
	w := s.words
	for _, s32 := range slots {
		slot := int(s32)
		if s.f.op[slot] == opInput {
			b := -(good.val[slot] >> uint(p) & 1)
			o := slot * w
			if lf.forced(slot) {
				sb := slot * 2 * w
				for k := 0; k < w; k++ {
					s.val[o+k] = b&^lf.stem[sb+k] | lf.stem[sb+w+k]
				}
			} else {
				for k := 0; k < w; k++ {
					s.val[o+k] = b
				}
			}
			continue
		}
		s.evalForcedSlot(slot, lf)
	}
	return nil
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
// slots; lf == nil walks unforced. The width dispatch is hoisted out
// of the loop so the specialized widths pay one kernel call per slot
// instead of riding through evalForcedSlot's per-slot switch — at
// width 1, the steady state of the compacting lot engine, that inner
// dispatch was a second dynamic call on every gate.
//
//repolint:hotpath
func (s *WideSim) walkForced(lf *WideLaneForces) {
	f := s.f
	switch s.words {
	case 1:
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot1(slot, lf)
		}
	case 4:
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot4(slot, lf)
		}
	default:
		for slot := f.numIn; slot < len(f.op); slot++ {
			s.evalForcedSlot(slot, lf)
		}
	}
}

// evalForcedSlot evaluates one logic slot into the value plane,
// applying the slot's pin forces during evaluation and its stem force
// to the result. Width dispatch: the 4-word width the engines batch at
// gets the unrolled kernel in wide4.go, the 1-word width their dead-lane
// compaction collapses to gets the scalar kernel in wide1.go, and every
// other width (2, 3, 5..8) takes the generic stride loops below. An
// 8-word unroll does not earn its bytes: BenchmarkWideWidths shows
// per-lane cost improving only through W≈5 and regressing by W=8, where
// the stride-8 value plane spills the close caches and the walk goes
// memory-bound — the stride loop's bounds checks hide behind the
// misses, and the engines batch at 4 words anyway.
//
//repolint:hotpath
func (s *WideSim) evalForcedSlot(slot int, lf *WideLaneForces) {
	switch s.words {
	case 1:
		s.evalForcedSlot1(slot, lf)
		return
	case 4:
		s.evalForcedSlot4(slot, lf)
		return
	}
	w := s.words
	o := slot * w
	dst := s.val[o : o+w]
	if lf.forced(slot) {
		if pins := lf.pins[slot]; len(pins) > 0 {
			s.evalStaged(slot, dst, pins)
		} else {
			s.evalSlot(slot, dst)
		}
		sb := slot * 2 * w
		for k := 0; k < w; k++ {
			dst[k] = dst[k]&^lf.stem[sb+k] | lf.stem[sb+w+k]
		}
		return
	}
	s.evalSlot(slot, dst)
}

// evalSlot is the unforced wide gate evaluation: a single op switch,
// word loops over the stride-packed fanin blocks.
//
//repolint:hotpath
func (s *WideSim) evalSlot(slot int, dst []uint64) {
	f := s.f
	w := s.words
	val, fanin := s.val, f.fanin
	lo := f.faninAt[slot]
	switch f.op[slot] {
	case opBuf:
		a := int(fanin[lo]) * w
		copy(dst, val[a:a+w])
	case opNot:
		a := int(fanin[lo]) * w
		for k := 0; k < w; k++ {
			dst[k] = ^val[a+k]
		}
	case opAnd2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = val[a+k] & val[b+k]
		}
	case opNand2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = ^(val[a+k] & val[b+k])
		}
	case opOr2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = val[a+k] | val[b+k]
		}
	case opNor2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = ^(val[a+k] | val[b+k])
		}
	case opXor2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = val[a+k] ^ val[b+k]
		}
	case opXnor2:
		a, b := int(fanin[lo])*w, int(fanin[lo+1])*w
		for k := 0; k < w; k++ {
			dst[k] = ^(val[a+k] ^ val[b+k])
		}
	default:
		s.evalWideN(slot, dst)
	}
}

// evalWideN evaluates the wide (3+ fanin) op codes.
func (s *WideSim) evalWideN(slot int, dst []uint64) {
	f := s.f
	w := s.words
	val := s.val
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	op := f.op[slot]
	a := int(fanin[0]) * w
	copy(dst, val[a:a+w])
	switch op {
	case opAndN, opNandN:
		for _, fs := range fanin[1:] {
			b := int(fs) * w
			for k := 0; k < w; k++ {
				dst[k] &= val[b+k]
			}
		}
	case opOrN, opNorN:
		for _, fs := range fanin[1:] {
			b := int(fs) * w
			for k := 0; k < w; k++ {
				dst[k] |= val[b+k]
			}
		}
	case opXorN, opXnorN:
		for _, fs := range fanin[1:] {
			b := int(fs) * w
			for k := 0; k < w; k++ {
				dst[k] ^= val[b+k]
			}
		}
	default:
		panic(fmt.Sprintf("logicsim: evalWideN on op %d", op))
	}
	if op == opNandN || op == opNorN || op == opXnorN {
		for k := 0; k < w; k++ {
			dst[k] = ^dst[k]
		}
	}
}

// evalStaged evaluates a pin-forced slot: fanin lane blocks are staged,
// the pin masks applied, then the op evaluated over the staged blocks.
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
