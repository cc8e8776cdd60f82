// Package diagnose implements fault-dictionary diagnosis, the LAMP-era
// companion workflow to fault simulation: pre-compute every fault's
// full tester response (which outputs fail on which patterns), then
// locate a failing chip's defect by matching its observed syndrome
// against the dictionary. The paper's experiment records only the
// first failing pattern; the dictionary shows how much more the same
// tester run can reveal. Both the dictionary's single faults and an
// observed chip's faults are simulated on the lot engine's
// pattern-parallel divergence walk (logicsim.WideSim.RunChipBlock) over
// the good machine's planes, built once per dictionary.
package diagnose

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Syndrome is a chip's observed failure signature: for each pattern,
// a bitmask of failing outputs (bit o set = output o mismatched).
// A passing pattern has mask 0.
type Syndrome []uint64

// Fails reports whether any pattern failed.
func (s Syndrome) Fails() bool {
	for _, m := range s {
		if m != 0 {
			return true
		}
	}
	return false
}

// FirstFail returns the first failing pattern index, or -1.
func (s Syndrome) FirstFail() int {
	for i, m := range s {
		if m != 0 {
			return i
		}
	}
	return -1
}

// distance returns the Hamming-like distance between syndromes: the
// number of (pattern, output) cells where they disagree.
func distance(a, b Syndrome) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	for i := n; i < len(a); i++ {
		d += bits.OnesCount64(a[i])
	}
	for i := n; i < len(b); i++ {
		d += bits.OnesCount64(b[i])
	}
	return d
}

// Dictionary holds the precomputed response of every modelled fault.
type Dictionary struct {
	flat      *logicsim.Flat
	npat      int
	blocks    []logicsim.PatternBlock // the patterns, packed once
	planes    *logicsim.GoodPlanes    // the good machine over blocks
	faults    []fault.Fault
	syndromes []Syndrome
}

// Build fault-simulates every fault against the ordered pattern set
// and stores full response signatures. Each fault costs one
// pattern-parallel divergence walk per 64-pattern block
// (logicsim.WideSim.RunChipBlock, the lot engine's chip walk with the
// fault as a one-fault chip) over the good machine's planes, which the
// dictionary keeps for ObserveChip; its per-output diff words are
// exactly the syndrome bits. It is run once per test program release.
func Build(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) (*Dictionary, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("diagnose: no patterns")
	}
	if len(c.Outputs) > 64 {
		return nil, fmt.Errorf("diagnose: more than 64 outputs (%d) does not fit the syndrome mask", len(c.Outputs))
	}
	for i, f := range faults {
		if f.Gate < 0 || f.Gate >= len(c.Gates) {
			return nil, fmt.Errorf("diagnose: fault %d site %d out of range", i, f.Gate)
		}
	}
	flat, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	inj := make([]logicsim.SlotInjection, len(faults))
	for i, f := range faults {
		if inj[i], err = flat.ResolveInjection(logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck}); err != nil {
			return nil, err
		}
	}
	blocks, err := logicsim.PackBlocks(patterns)
	if err != nil {
		return nil, err
	}
	planes, err := logicsim.NewGoodPlanes(flat, blocks)
	if err != nil {
		return nil, err
	}
	sim, err := logicsim.NewWideSim(flat, 1)
	if err != nil {
		return nil, err
	}
	d := &Dictionary{flat: flat, npat: len(patterns), blocks: blocks, planes: planes, faults: faults,
		syndromes: make([]Syndrome, len(faults))}
	for i := range d.syndromes {
		d.syndromes[i] = make(Syndrome, len(patterns))
	}
	var out []uint64
	for bi, block := range blocks {
		good, mask := planes.Block(bi), block.Mask()
		for fi := range faults {
			if out, err = sim.RunChipBlock(good, mask, inj[fi:fi+1], out); err != nil {
				return nil, err
			}
			for o, diff := range out {
				setBits(d.syndromes[fi][bi*64:], diff, o)
			}
		}
	}
	return d, nil
}

// setBits marks output o failing on every pattern whose bit is set in
// diff, syn[p] being the mask of pattern p of the block.
func setBits(syn Syndrome, diff uint64, o int) {
	for diff != 0 {
		syn[bits.TrailingZeros64(diff)] |= 1 << uint(o)
		diff &= diff - 1
	}
}

// ObserveChip runs the tester on a chip carrying the given faults
// simultaneously and returns its syndrome — the input a real ATE's
// datalog would provide. It is the lot engine's pattern-parallel chip
// walk (logicsim.WideSim.RunChipBlock): one walk per 64-pattern block,
// whose per-output difference words from the good machine, masked to
// the block's patterns, are exactly the syndrome bits. A site listed twice keeps its last stuck value.
func (d *Dictionary) ObserveChip(inj []logicsim.Injection) (Syndrome, error) {
	faults, err := d.flat.ResolveInjections(inj)
	if err != nil {
		return nil, err
	}
	sim, err := logicsim.NewWideSim(d.flat, 1)
	if err != nil {
		return nil, err
	}
	syn := make(Syndrome, d.npat)
	var out []uint64
	for bi, block := range d.blocks {
		if out, err = sim.RunChipBlock(d.planes.Block(bi), block.Mask(), faults, out); err != nil {
			return nil, err
		}
		for o, diff := range out {
			setBits(syn[bi*64:], diff, o)
		}
	}
	return syn, nil
}

// Candidate is one diagnosis result.
type Candidate struct {
	Fault    fault.Fault
	Distance int // syndrome distance; 0 = exact match
}

// Diagnose ranks the modelled faults by syndrome distance to the
// observation and returns the best `limit` candidates (all exact
// matches are always included).
func (d *Dictionary) Diagnose(observed Syndrome, limit int) []Candidate {
	cands := make([]Candidate, len(d.faults))
	for i := range d.faults {
		cands[i] = Candidate{Fault: d.faults[i], Distance: distance(observed, d.syndromes[i])}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Distance != cands[b].Distance {
			return cands[a].Distance < cands[b].Distance
		}
		// Deterministic tie-break.
		fa, fb := cands[a].Fault, cands[b].Fault
		if fa.Gate != fb.Gate {
			return fa.Gate < fb.Gate
		}
		if fa.Pin != fb.Pin {
			return fa.Pin < fb.Pin
		}
		return !fa.Stuck && fb.Stuck
	})
	if limit <= 0 || limit > len(cands) {
		limit = len(cands)
	}
	// Extend past the limit to keep all exact matches.
	for limit < len(cands) && cands[limit].Distance == 0 {
		limit++
	}
	return cands[:limit]
}

// Resolution reports how well the dictionary separates faults: the
// number of syndrome-equivalence classes and the largest class size.
// Faults in one class are indistinguishable by this pattern set.
func (d *Dictionary) Resolution() (classes, largest int) {
	byKey := make(map[string][]int)
	for i, syn := range d.syndromes {
		key := syndromeKey(syn)
		byKey[key] = append(byKey[key], i)
	}
	for _, members := range byKey {
		if len(members) > largest {
			largest = len(members)
		}
	}
	return len(byKey), largest
}

// syndromeKey builds a compact string key for grouping.
func syndromeKey(s Syndrome) string {
	b := make([]byte, 0, len(s)*8)
	for _, w := range s {
		for k := 0; k < 8; k++ {
			b = append(b, byte(w>>uint(8*k)))
		}
	}
	return string(b)
}
