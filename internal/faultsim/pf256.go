package faultsim

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/logicsim"
)

// pf256Words is the lane-block width of the wide fault-parallel engine:
// 4 machine words = 256 lanes = the good machine plus up to 255 faulty
// machines per group.
const pf256Words = 4

// runFaultParallel256 is the wide fault-parallel (pf256) engine: the
// good machine (lane 0) plus up to 255 faulty machines ride the lanes
// of a [4]uint64 lane block, one fault per lane, and each pattern is
// one forced flat walk over the union of the group's slot cones
// (logicsim.WideSim.EvalSlotsForced).
//
// Because Flat slots are a topological order, the union cone needs only
// a plain integer sort of slot indices — no level lookups — and the
// same sorted-by-slot grouping keeps each group's union cone local.
func runFaultParallel256(s *session) error {
	blocks, err := s.packBlocks(false)
	if err != nil {
		return err
	}
	flat, err := s.flatCircuit()
	if err != nil {
		return err
	}
	cones, err := s.flatConeSet()
	if err != nil {
		return err
	}
	good := logicsim.NewFlatSim(flat)
	ws, err := logicsim.NewWideSim(flat, pf256Words)
	if err != nil {
		return err
	}
	lf, err := logicsim.NewWideLaneForces(flat, pf256Words)
	if err != nil {
		return err
	}
	nSlots := flat.Slots()
	st := &pf256State{
		ws:        ws,
		lf:        lf,
		inCone:    make([]int32, nSlots),
		frontMark: make([]int32, nSlots),
		outMark:   make([]int32, len(s.c.Outputs)),
		goodOut:   make([]uint64, 0, len(s.c.Outputs)),
	}
	lanesPerGroup := ws.Lanes() - 1 // lane 0 is the good machine
	// Lane assignment by cone locality: slot order is topological, so
	// grouping the faults by site slot keeps each group's union cone
	// small. Relative slot order never changes, so one sort up front serves every block;
	// per block the order is merely filtered down to the live faults.
	order := make([]int, len(s.faults))
	for fi := range order {
		order[fi] = fi
	}
	sort.SliceStable(order, func(a, b int) bool {
		return flat.SlotOf(s.faults[order[a]].Gate) < flat.SlotOf(s.faults[order[b]].Gate)
	})
	live := make([]int, 0, len(order))
	for bi := range blocks {
		b := &blocks[bi]
		live = live[:0]
		for _, fi := range order {
			if s.alive(fi) {
				live = append(live, fi)
			}
		}
		if len(live) == 0 {
			break
		}
		// Good machine for this block; frontier broadcasts read it via
		// Value. goodOut only recycles the output buffer.
		if st.goodOut, err = good.RunInto(b.pat, st.goodOut); err != nil {
			return err
		}
		for lo := 0; lo < len(live); lo += lanesPerGroup {
			hi := lo + lanesPerGroup
			if hi > len(live) {
				hi = len(live)
			}
			if err := s.pf256Group(good, flat, cones, b, live[lo:hi], st); err != nil {
				return err
			}
		}
	}
	return nil
}

// pf256State is the engine's per-run scratch, allocated once and reused
// across groups and blocks; group membership uses epoch marks
// (slot == gid).
type pf256State struct {
	ws *logicsim.WideSim
	lf *logicsim.WideLaneForces

	gid       int32
	inCone    []int32 // per slot: member of the current group's union cone
	frontMark []int32 // per slot: already collected into the frontier
	outMark   []int32 // per output index: already collected into outs

	union    []int32
	outs     []int
	frontier []int32
	goodOut  []uint64
}

// pf256Group simulates one group of up to 255 live faults against one
// block, lane i+1 carrying group[i].
func (s *session) pf256Group(good *logicsim.FlatSim, flat *logicsim.Flat, cones *logicsim.FlatConeSet, b *block, group []int, st *pf256State) error {
	st.gid++
	gid := st.gid
	st.lf.Reset()
	union, outs := st.union[:0], st.outs[:0]
	for i, fi := range group {
		f := s.faults[fi]
		if err := st.lf.Add(logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}, i+1); err != nil {
			return err
		}
		// Slot cones are already slot lists — the union build borrows
		// them straight from the set, with no FlatCone copy.
		cone := cones.ConeOfPtr(flat.SlotOf(f.Gate))
		for _, slot := range cone.Slots {
			if st.inCone[slot] != gid {
				st.inCone[slot] = gid
				union = append(union, slot)
			}
		}
		for _, oi := range cone.Outputs {
			if st.outMark[oi] != gid {
				st.outMark[oi] = gid
				outs = append(outs, int(oi))
			}
		}
	}
	// Ascending slot order is topological: a plain integer sort puts
	// the union cone in evaluation order.
	slices.Sort(union)
	slices.Sort(outs)
	// Frontier: slots feeding the union cone from outside it; all their
	// lanes carry the good value.
	frontier := st.frontier[:0]
	for _, slot := range union {
		for _, fin := range flat.FaninSlots(int(slot)) {
			if st.inCone[fin] != gid && st.frontMark[fin] != gid {
				st.frontMark[fin] = gid
				frontier = append(frontier, fin)
			}
		}
	}
	// laneMask covers fault lanes 1..len(group); done accumulates lanes
	// whose fault has been detected, per word.
	var laneMask, done [pf256Words]uint64
	nLanes := len(group) + 1
	for k := 0; k < pf256Words; k++ {
		lo := k * 64
		switch {
		case nLanes >= lo+64:
			laneMask[k] = ^uint64(0)
		case nLanes > lo:
			laneMask[k] = (uint64(1) << uint(nLanes-lo)) - 1
		}
	}
	laneMask[0] &^= 1 // lane 0 is the good machine
	ws := st.ws
	for p := 0; p < b.pat.Count; p++ {
		if done == laneMask {
			break
		}
		for _, slot := range frontier {
			ws.Broadcast(int(slot), good.Value(int(slot)), p)
		}
		if err := ws.EvalSlotsForced(good, p, union, st.lf); err != nil {
			return err
		}
		for _, oi := range outs {
			slot := flat.OutputSlot(oi)
			v := ws.ValueWords(slot)
			gb := -(good.Value(slot) >> uint(p) & 1)
			for k := 0; k < pf256Words; k++ {
				d := (v[k] ^ gb) & laneMask[k] &^ done[k]
				for d != 0 {
					bit := bits.TrailingZeros64(d)
					d &^= uint64(1) << uint(bit)
					done[k] |= uint64(1) << uint(bit)
					s.detect(group[k*64+bit-1], b.base+p)
				}
			}
		}
	}
	// Hand the (possibly grown) scratch slices back for the next group.
	st.union, st.outs, st.frontier = union, outs, frontier
	return nil
}
