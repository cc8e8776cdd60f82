package logicsim

import (
	"sync"

	"repro/internal/netlist"
)

// FlatCone is the output cone of a fault site in slot space: every slot
// the site can disturb, as a sorted list of slot indices, and the
// primary outputs among them. Because slot order is topological, the
// ascending list is itself a valid evaluation order and the site is
// always first (everything else is a strict successor, hence a higher
// slot).
type FlatCone struct {
	// Slots lists the cone in ascending (= topological) slot order; the
	// site's slot is Slots[0].
	Slots []int32
	// Outputs lists the indices into Circuit.Outputs (not slots) of the
	// primary outputs reachable from the site, ascending.
	Outputs []int32
}

// FlatConeSet holds the output cone of every slot of a flat circuit,
// built on its first request (ConeOf) and kept. No simulation path
// reads it: fault simulation, strobe refinement, diagnosis and the lot
// engine all walk the divergent region of a fault (WideSim.RunChipBlock)
// instead of its cone. It remains as the structural counterpart of
// ConeSet the tests compare, and because the perfbench trace still
// calls FlatConeSetFor; both retire with that trace (ROADMAP item 1b).
// It is cached on the circuit beside the Flat and the ConeSet (one
// simCaches bundle, one invalidation rule) and safe for concurrent use.
type FlatConeSet struct {
	f *Flat

	mu sync.Mutex // guards everything below
	// cones[slot] is the slot's cone, nil until first request.
	cones []*FlatCone
	// mark[slot] == site marks a slot already in the cone being built;
	// stamping with the site needs no clearing between builds, since
	// each site is built once.
	mark []int32
}

// NewFlatConeSet returns an empty cone set over the flat circuit; cones
// are built on first request.
func NewFlatConeSet(f *Flat) *FlatConeSet {
	n := f.Slots()
	cs := &FlatConeSet{f: f, cones: make([]*FlatCone, n), mark: make([]int32, n)}
	for i := range cs.mark {
		cs.mark[i] = -1
	}
	return cs
}

// FlatConeSetFor returns the circuit's flat cone set, creating it (and
// the Flat underneath, if needed) on first use and caching both on the
// circuit. No cone is built here; see FlatConeSet. Like every lazy
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

// ConeOf returns the output cone of the slot, building it on first
// request: a BFS over the fanout, the members gathered in ascending
// slot order (which is topological), then the outputs among them, in
// output order. Both stem faults and input-pin faults of a gate disturb
// the gate's own output first, so one cone serves every fault on the
// slot's gate. The returned slices are shared; callers must not mutate
// them.
func (cs *FlatConeSet) ConeOf(site int) FlatCone {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c := cs.cones[site]; c != nil {
		return *c
	}
	f := cs.f
	stamp := int32(site)
	cone := []int32{stamp}
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
	// Collecting the marked slots in slot order levelizes the cone
	// without a sort; the site, a strict predecessor of every other
	// member, comes first.
	n := 1
	for s := stamp + 1; s <= last; s++ {
		if cs.mark[s] == stamp {
			cone[n] = s
			n++
		}
	}
	var outs []int32
	for oi, os := range f.outSlot {
		if cs.mark[os] == stamp {
			outs = append(outs, int32(oi))
		}
	}
	c := &FlatCone{Slots: cone, Outputs: outs}
	cs.cones[site] = c
	return *c
}
