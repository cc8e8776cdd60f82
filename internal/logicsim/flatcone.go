package logicsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/netlist"
)

// FlatCone is the output cone of a fault site in slot space: every slot
// the site can disturb, as a sorted list of slot indices. Because slot
// order is topological, the ascending list is itself a valid evaluation
// order and the site is always first (everything else is a strict
// successor, hence a higher slot). This is the flat counterpart of
// Cone: where Cone carries gate IDs that each walk must chase through
// netlist.Gate structs, a FlatCone is consumed directly by the flat
// walks — no per-gate lookups, no level sorts.
type FlatCone struct {
	// Slots lists the cone in ascending (= topological) slot order; the
	// site's slot is Slots[0].
	Slots []int32
	// Outputs lists the indices into Circuit.Outputs (not slots) of the
	// primary outputs reachable from the site, ascending.
	Outputs []int32
	// OutPos[j] is the position within Slots of the slot driving
	// Outputs[j], so diffing needs no per-output lookup.
	OutPos []int32
	// Prog is the cone compiled to a flat instruction stream, one record
	// per slot of Slots[1:]. A 1- or 2-input gate is a fixed four-word
	// record [op, dst, a, b] (1-input gates duplicate their operand);
	// a wider gate is [op | fanin-count<<8, dst, operands...]. dst and
	// the operands are slot indices. The walk decodes the stream
	// sequentially instead of chasing the op/faninAt/fanin arrays slot
	// by slot — three data-dependent loads per gate become one
	// prefetchable stream — and the fixed shape lets one length test
	// per record stand in for four bounds checks (see coneWalk).
	Prog []int32
	// Bound is the cone's boundary: the distinct out-of-cone slots the
	// program reads (the fault cannot disturb them), in first-reference
	// order. The walk copies their good values into its shadow plane up
	// front, which is what lets its body run entirely on the shadow with
	// no membership test per operand (see coneWalk).
	Bound []int32
}

// FlatConeSet holds the output cone of every slot of a flat circuit,
// compiled on demand: a cone is built on its first request (ConeOf /
// ConeOfPtr) and kept, so a job pays only for the fault sites it asks
// about — a sampled ATPG run touches a few hundred sites of an 8k-slot
// circuit, a full-universe job ends up compiling them all. Cone content
// is a pure function of the site, so the order of requests cannot
// change any result. The set is safe for concurrent use: compilation
// is serialized on the set's lock, and each compiled cone is published
// atomically, so a later request for it is lock-free and
// allocation-free. It is cached on the circuit beside the Flat and the
// ConeSet (one simCaches bundle, one invalidation rule).
type FlatConeSet struct {
	f *Flat
	// cones[slot] is the slot's compiled cone, nil until first request.
	// Each FlatCone owns one backing array holding its five lists, so
	// hot paths borrow a pointer (ConeOfPtr) and sessions need no
	// per-fault cone cache of their own.
	cones []atomic.Pointer[FlatCone]

	mu sync.Mutex // serializes compile; guards the scratch below
	// outOf maps a slot to its primary-output index, -1 when it drives
	// none. mark[slot] == site marks a slot already taken by the cone
	// being compiled: a member, then also an emitted boundary slot.
	// Stamping with the site needs no clearing between compiles, since
	// each site is compiled once.
	outOf, mark          []int32
	cone, outIdx, outPos []int32
	prog, bound          []int32
}

// NewFlatConeSet returns an empty cone set over the flat circuit; cones
// are compiled on first request.
func NewFlatConeSet(f *Flat) *FlatConeSet {
	n := f.Slots()
	cs := &FlatConeSet{
		f:     f,
		cones: make([]atomic.Pointer[FlatCone], n),
		outOf: make([]int32, n),
		mark:  make([]int32, n),
	}
	for i := range cs.outOf {
		cs.outOf[i], cs.mark[i] = -1, -1
	}
	for oi, os := range f.outSlot {
		cs.outOf[os] = int32(oi)
	}
	return cs
}

// compile builds the site's cone (or returns the one a concurrent
// caller built first) and publishes it: BFS over the fanout, the
// members gathered in ascending slot order (which is topological), the
// reachable-output list, then the instruction stream with the boundary
// collected on first reference.
func (cs *FlatConeSet) compile(site int) *FlatCone {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c := cs.cones[site].Load(); c != nil {
		return c
	}
	f := cs.f
	stamp := int32(site)
	cone := append(cs.cone[:0], stamp)
	cs.mark[site] = stamp
	last := stamp
	for i := 0; i < len(cone); i++ {
		for _, fo := range f.FanoutSlots(int(cone[i])) {
			if cs.mark[fo] != stamp {
				cs.mark[fo] = stamp
				cone = append(cone, fo)
				last = max(last, fo)
			}
		}
	}
	// Ascending slot order is topological, so collecting the marked
	// slots in slot order levelizes the cone without a sort; the site, a
	// strict predecessor of every other member, comes first. This must
	// run before the boundary pass below stamps out-of-cone slots.
	n := 1
	for s := stamp + 1; s <= last; s++ {
		if cs.mark[s] == stamp {
			cone[n] = s
			n++
		}
	}
	outIdx, outPos := cs.outIdx[:0], cs.outPos[:0]
	for pos, slot := range cone {
		if oi := cs.outOf[slot]; oi >= 0 {
			outIdx = append(outIdx, oi)
			outPos = append(outPos, int32(pos))
		}
	}
	// Keep Outputs ascending by output index (consumers rely on it to
	// find the first strobed output), carrying the positions along.
	sortOutPair(outIdx, outPos)
	// Compile the cone body to its instruction stream (see
	// FlatCone.Prog for the record shapes), collecting the boundary
	// (distinct out-of-cone fanins — every member is already marked) on
	// first reference. 1-input gates duplicate their operand so every
	// non-wide record is exactly four words.
	prog, bound := cs.prog[:0], cs.bound[:0]
	for _, slot := range cone[1:] {
		lo, hi := f.faninAt[slot], f.faninAt[slot+1]
		op := f.op[slot]
		if op <= opXnor2 {
			a := f.fanin[lo]
			b := a
			if hi-lo == 2 {
				b = f.fanin[lo+1]
			}
			prog = append(prog, int32(op), slot, a, b)
			if cs.mark[a] != stamp {
				cs.mark[a] = stamp
				bound = append(bound, a)
			}
			if cs.mark[b] != stamp {
				cs.mark[b] = stamp
				bound = append(bound, b)
			}
			continue
		}
		prog = append(prog, int32(op)|(hi-lo)<<8, slot)
		for _, fs := range f.fanin[lo:hi] {
			if cs.mark[fs] != stamp {
				cs.mark[fs] = stamp
				bound = append(bound, fs)
			}
			prog = append(prog, fs)
		}
	}
	cs.cone, cs.outIdx, cs.outPos, cs.prog, cs.bound = cone, outIdx, outPos, prog, bound
	// One exact-size backing array per cone, carved with capped slices.
	buf := make([]int32, 0, len(cone)+2*len(outIdx)+len(prog)+len(bound))
	take := func(src []int32) []int32 {
		lo := len(buf)
		buf = append(buf, src...)
		return buf[lo:len(buf):len(buf)]
	}
	c := &FlatCone{
		Slots:   take(cone),
		Outputs: take(outIdx),
		OutPos:  take(outPos),
		Prog:    take(prog),
		Bound:   take(bound),
	}
	cs.cones[site].Store(c)
	return c
}

// sortOutPair sorts the parallel (outIdx, outPos) tails by output index
// (insertion sort: the lists are tiny — a cone rarely reaches more than
// a handful of outputs — and almost sorted already).
func sortOutPair(idx, pos []int32) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
}

// FlatConeSetFor returns the circuit's flat cone set, creating it (and
// the Flat underneath, if needed) on first use and caching both on the
// circuit. No cone is compiled here; see FlatConeSet. Like every lazy
// circuit cache it is safe for concurrent callers but must not race
// with mutation.
func FlatConeSetFor(c *netlist.Circuit) (*FlatConeSet, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	sc := cachesFor(c)
	if sc.flatCones != nil {
		return sc.flatCones, nil
	}
	if sc.flat == nil {
		f, err := NewFlat(c)
		if err != nil {
			return nil, err
		}
		sc.flat = f
	}
	sc.flatCones = NewFlatConeSet(sc.flat)
	return sc.flatCones, nil
}

// Flat returns the compiled form the cones are expressed in.
func (cs *FlatConeSet) Flat() *Flat { return cs.f }

// ConeOf returns the output cone of the slot, compiling it on first
// request. Both stem faults and input-pin faults of a gate disturb the
// gate's own output first, so one cone serves every fault on the slot's
// gate. The returned slices are shared; callers must not mutate them.
func (cs *FlatConeSet) ConeOf(slot int) FlatCone {
	return *cs.ConeOfPtr(slot)
}

// ConeOfPtr is ConeOf for hot loops: it borrows the set's own FlatCone
// for the slot instead of copying five slice headers per lookup. Once
// the cone is compiled this is one atomic load — no lock, no
// allocation. The pointee is shared and immutable; callers must not
// mutate it.
//
//repolint:hotpath
func (cs *FlatConeSet) ConeOfPtr(slot int) *FlatCone {
	if c := cs.cones[slot].Load(); c != nil {
		return c
	}
	return cs.compile(slot)
}

// RunCone re-simulates a single stuck-at *stem* fault on top of the
// good-machine state left in the simulator by the immediately preceding
// RunInto: only the fault's cone slots are re-evaluated (into a shadow
// plane — the good machine is never touched), and only the reachable
// primary outputs are diffed. An inactive fault — the stuck value
// equals the good value on every pattern of the block — returns
// immediately without touching the cone.
//
// The returned word has bit p set iff pattern p of the block produces a
// different value on some reachable output; if outDiffs is non-nil it
// must have one slot per primary output, and the entries of every
// reachable output are overwritten with that output's diff word
// (unreachable outputs are left untouched — they cannot differ). After
// the call the simulator again holds the good-machine values, so cone
// runs for many faults share one good evaluation.
//
//repolint:hotpath
func (s *FlatSim) RunCone(slot int, stuck bool, cone *FlatCone, outDiffs []uint64) (uint64, error) {
	if err := s.checkCone(slot, cone); err != nil {
		return 0, err
	}
	var v uint64
	if stuck {
		v = ^uint64(0)
	}
	return s.coneWalk(v, cone, outDiffs), nil
}

// RunConeForced is RunCone for an *input-pin* fault: input pin `pin` of
// the slot's gate is forced to the stuck value during the site's
// evaluation only (the fanout-branch semantics), and the resulting site
// value propagates through the cone.
//
//repolint:hotpath
func (s *FlatSim) RunConeForced(slot, pin int, stuck bool, cone *FlatCone, outDiffs []uint64) (uint64, error) {
	if err := s.checkCone(slot, cone); err != nil {
		return 0, err
	}
	f := s.f
	if pin < 0 || int32(pin) >= f.faninAt[slot+1]-f.faninAt[slot] {
		return 0, errNoPin(slot, pin)
	}
	var stuckWord uint64
	if stuck {
		stuckWord = ^uint64(0)
	}
	return s.coneWalk(s.evalForcedPin(slot, pin, stuckWord), cone, outDiffs), nil
}

// RunFault is RunCone for a stuck-at fault on the gate's output (pin
// < 0) and RunConeForced for one on its input pin, over the gate's cone
// from the set, which it also returns: the cone's Outputs are the only
// ones the fault can flip.
//
//repolint:hotpath
func (s *FlatSim) RunFault(cones *FlatConeSet, gate, pin int, stuck bool, outDiffs []uint64) (uint64, *FlatCone, error) {
	slot := s.f.SlotOf(gate)
	cone := cones.ConeOfPtr(slot)
	if pin < 0 {
		diff, err := s.RunCone(slot, stuck, cone, outDiffs)
		return diff, cone, err
	}
	diff, err := s.RunConeForced(slot, pin, stuck, cone, outDiffs)
	return diff, cone, err
}

// checkCone validates the cone-walk preconditions shared by RunCone and
// RunConeForced.
//
//repolint:hotpath
func (s *FlatSim) checkCone(slot int, cone *FlatCone) error {
	if slot < 0 || slot >= len(s.f.op) {
		return errSlotRange(slot)
	}
	if len(cone.Slots) == 0 || cone.Slots[0] != int32(slot) {
		return errConeSite(slot)
	}
	if len(cone.Slots) > 1 && len(cone.Prog) == 0 {
		// A hand-assembled cone without its compiled program would walk
		// nothing and report every fault undetected.
		return errConeProg(slot)
	}
	if s.mask == 0 {
		// A real RunInto always leaves a non-zero mask; catching the
		// violated precondition beats silently reporting every fault
		// undetected.
		return errNoGoodRun()
	}
	return nil
}

// coneWalk propagates a forced site value through the cone and returns
// the diff word over the reachable outputs. v is the site's faulty
// value; cone.Slots[0] is the site. A fault the block never activates
// (faulty site value equals the good one on every valid lane) exits
// before touching the cone.
//
// The faulty values live entirely in a slot-indexed shadow plane: the
// prologue copies the cone's boundary values in, the body then reads
// and writes nothing but the shadow, decoding the compiled instruction
// stream in one linear pass — op and fanin slots arrive as one
// sequential read (hardware-prefetched) instead of three data-dependent
// loads through op/faninAt/fanin per gate, with the common 1- and
// 2-input gates evaluated inline. The good machine in s.val is never
// mutated, so there is no save/restore traffic, and no clearing between
// walks either: topological order means every in-cone slot is written
// (site in the prologue, the rest as the body reaches them) before
// anything reads it, and every out-of-cone read is covered by the
// boundary copy. Evaluating the whole cone unconditionally beats
// divergence-suppressed variants here — with activation early-exit
// culling the all-clean walks, the surviving walks diverge enough that
// per-gate dirty tracking costs more than it skips.
//
// The body consumes the stream through a shrinking slice window whose
// `len(p) > 3` loop condition proves every access of a four-word record
// in bounds: the only bounds checks left per gate are the data-indexed
// shadow accesses, which measurably matters at this loop's intensity.
//
//repolint:hotpath
func (s *FlatSim) coneWalk(v uint64, cone *FlatCone, outDiffs []uint64) uint64 {
	val := s.val
	if outDiffs != nil {
		for _, oi := range cone.Outputs {
			outDiffs[oi] = 0
		}
	}
	slots := cone.Slots
	site := slots[0]
	if (v^val[site])&s.mask == 0 {
		return 0 // fault not activated by any pattern of the block
	}
	if len(s.shadow) < len(val) {
		s.shadow = make([]uint64, len(val))
	}
	shadow := s.shadow
	shadow[site] = v
	for _, b := range cone.Bound {
		shadow[b] = val[b]
	}
	for p := cone.Prog; len(p) > 3; {
		h := p[0]
		var nv uint64
		switch uint8(h) {
		case opBuf:
			nv = shadow[p[2]]
		case opNot:
			nv = ^shadow[p[2]]
		case opAnd2:
			nv = shadow[p[2]] & shadow[p[3]]
		case opNand2:
			nv = ^(shadow[p[2]] & shadow[p[3]])
		case opOr2:
			nv = shadow[p[2]] | shadow[p[3]]
		case opNor2:
			nv = ^(shadow[p[2]] | shadow[p[3]])
		case opXor2:
			nv = shadow[p[2]] ^ shadow[p[3]]
		case opXnor2:
			nv = ^(shadow[p[2]] ^ shadow[p[3]])
		default:
			nf := int(h >> 8)
			// The shadow is indexed by slot exactly like the value
			// plane, so the shared N-ary evaluator applies unchanged.
			shadow[p[1]] = evalFlatN(uint8(h), p[2:2+nf], shadow)
			p = p[2+nf:]
			continue
		}
		shadow[p[1]] = nv
		p = p[4:]
	}
	var diff uint64
	for j, oi := range cone.Outputs {
		os := slots[cone.OutPos[j]]
		d := (shadow[os] ^ val[os]) & s.mask
		diff |= d
		if outDiffs != nil {
			outDiffs[oi] = d
		}
	}
	return diff
}

// evalForcedPin evaluates one slot with a single fanin word replaced by
// the forced word — the site evaluation of an input-pin fault. No
// staging buffer: each op family folds its fanin inline, substituting
// at the forced pin.
//
//repolint:hotpath
func (s *FlatSim) evalForcedPin(slot, pin int, forced uint64) uint64 {
	f := s.f
	val := s.val
	fanin := f.fanin[f.faninAt[slot]:f.faninAt[slot+1]]
	pick := forced
	if pin != 0 {
		pick = val[fanin[0]]
	}
	op := f.op[slot]
	switch op {
	case opBuf:
		return pick
	case opNot:
		return ^pick
	}
	v := pick
	switch op {
	case opAnd2, opNand2, opAndN, opNandN:
		for i := 1; i < len(fanin); i++ {
			w := val[fanin[i]]
			if i == pin {
				w = forced
			}
			v &= w
		}
		if op == opNand2 || op == opNandN {
			v = ^v
		}
	case opOr2, opNor2, opOrN, opNorN:
		for i := 1; i < len(fanin); i++ {
			w := val[fanin[i]]
			if i == pin {
				w = forced
			}
			v |= w
		}
		if op == opNor2 || op == opNorN {
			v = ^v
		}
	case opXor2, opXnor2, opXorN, opXnorN:
		for i := 1; i < len(fanin); i++ {
			w := val[fanin[i]]
			if i == pin {
				w = forced
			}
			v ^= w
		}
		if op == opXnor2 || op == opXnorN {
			v = ^v
		}
	}
	return v
}

// Cold-path error constructors for the annotated cone walks: the
// formatting machinery stays out of the hot functions.

func errSlotRange(slot int) error {
	return fmt.Errorf("logicsim: fault slot %d out of range", slot)
}

func errConeSite(slot int) error {
	return fmt.Errorf("logicsim: cone does not start at fault slot %d", slot)
}

func errConeProg(slot int) error {
	return fmt.Errorf("logicsim: cone of slot %d carries no compiled program (not built by ConeOf?)", slot)
}

func errNoGoodRun() error {
	return fmt.Errorf("logicsim: cone walk requires a preceding RunInto")
}

func errNoPin(slot, pin int) error {
	return fmt.Errorf("logicsim: slot %d has no pin %d", slot, pin)
}
