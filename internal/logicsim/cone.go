package logicsim

import (
	"sort"

	"repro/internal/netlist"
)

// Cone is the output cone of a fault site: every gate whose value the
// site can influence, and every primary output the site can reach. A
// single stuck-at fault anywhere on a gate (stem or input pin) can only
// disturb this set, so a fault simulator that has the good-machine
// values in hand needs to re-evaluate the cone and diff the reachable
// outputs — nothing else.
type Cone struct {
	// Gates lists the cone in topological evaluation order. The site
	// itself is always first (everything else is a strict successor).
	Gates []int
	// Outputs lists the indices into Circuit.Outputs (not gate IDs) of
	// the primary outputs reachable from the site, ascending.
	Outputs []int
	// OutPos[j] is the position within Gates of the gate driving
	// Outputs[j], so diffing needs no per-gate output lookup.
	OutPos []int
}

// ConeSet precomputes the output cone of every gate of a circuit, in
// gate-ID space. No simulation path reads it: fault simulation walks
// the divergent region of a fault (WideSim.RunChipBlock), not its cone.
// It remains as the independent structural reference the flat cones
// are tested against, and because the perfbench trace still times its
// construction. The set is
// immutable after construction and safe for concurrent readers. Memory
// is O(sum of cone sizes).
type ConeSet struct {
	cones []Cone
}

// NewConeSet levelizes the circuit and builds all cones.
func NewConeSet(c *netlist.Circuit) (*ConeSet, error) {
	order, err := c.Order()
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(c.Gates))
	for i, id := range order {
		pos[id] = i
	}
	outIdx := make([]int, len(c.Gates))
	for i := range outIdx {
		outIdx[i] = -1
	}
	for oi, o := range c.Outputs {
		outIdx[o] = oi
	}
	cs := &ConeSet{cones: make([]Cone, len(c.Gates))}
	mark := make([]int, len(c.Gates))
	for i := range mark {
		mark[i] = -1
	}
	queue := make([]int, 0, len(c.Gates))
	for site := range c.Gates {
		queue = queue[:0]
		queue = append(queue, site)
		mark[site] = site
		// Collect topological positions, sort those as plain ints, and
		// map back through order — cheaper than a comparison sort with
		// an indirect less function.
		positions := []int{pos[site]}
		for len(queue) > 0 {
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, fo := range c.Gates[id].Fanout {
				if mark[fo] != site {
					mark[fo] = site
					positions = append(positions, pos[fo])
					queue = append(queue, fo)
				}
			}
		}
		sort.Ints(positions)
		gates := make([]int, len(positions))
		var outs, outPos []int
		for i, p := range positions {
			g := order[p]
			gates[i] = g
			if outIdx[g] >= 0 {
				outs = append(outs, outIdx[g])
				outPos = append(outPos, i)
			}
		}
		// Keep Outputs ascending (consumers rely on it to find the
		// first strobed output), carrying the positions along.
		sort.Sort(&outPair{outs, outPos})
		cs.cones[site] = Cone{Gates: gates, Outputs: outs, OutPos: outPos}
	}
	return cs, nil
}

// outPair sorts the parallel (Outputs, OutPos) slices by output index.
type outPair struct{ outs, pos []int }

func (p *outPair) Len() int           { return len(p.outs) }
func (p *outPair) Less(a, b int) bool { return p.outs[a] < p.outs[b] }
func (p *outPair) Swap(a, b int) {
	p.outs[a], p.outs[b] = p.outs[b], p.outs[a]
	p.pos[a], p.pos[b] = p.pos[b], p.pos[a]
}

// ConeSetFor returns the circuit's cone set, building it on first use
// and caching it on the circuit (the cache is dropped automatically on
// mutation). Its one caller is the perfbench trace, which times the
// build as its own stage. Safe for concurrent callers on a levelized
// circuit (see cacheMu), but must not race with mutation.
func ConeSetFor(c *netlist.Circuit) (*ConeSet, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	sc := cachesFor(c)
	if sc.cones != nil {
		return sc.cones, nil
	}
	cs, err := NewConeSet(c)
	if err != nil {
		return nil, err
	}
	sc.cones = cs
	return cs, nil
}

// Cone returns the output cone of the gate. Both stem faults and
// input-pin faults of a gate disturb the gate's own output first, so
// the same cone serves every fault on the gate.
func (cs *ConeSet) Cone(gate int) Cone { return cs.cones[gate] }

// Size reports the total number of (gate, cone) memberships, a measure
// of how much work cone-restricted simulation saves versus full-circuit
// passes (full = gates × gates).
func (cs *ConeSet) Size() int {
	n := 0
	for _, cone := range cs.cones {
		n += len(cone.Gates)
	}
	return n
}
