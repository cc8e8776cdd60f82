package faultsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Grader is one incremental fault-simulation session over a fixed fault
// list, and the package's only run loop: Run and RunOpts are a Grader
// and one Add. Each Add grades the next patterns of an ordered program
// against the faults still undetected, numbering them after the
// patterns already added, so a program graded in pieces gets exactly
// the first detects of one run over the whole program. Options.Workers
// splits the fault list into that many contiguous shards, each on its
// own goroutine with its own FlatSim; results do not depend on the
// shard count. A Grader is not safe for concurrent use, nor for use
// after a failed Add.
type Grader struct {
	faults []fault.Fault
	cones  *logicsim.FlatConeSet
	sims   []*logicsim.FlatSim // one per shard, kept across Adds
	first  []int
	added  int // patterns added so far
}

// NewGrader validates the fault list and options once and opens a
// session with no patterns added, over the circuit's cached slot cones.
func NewGrader(c *netlist.Circuit, faults []fault.Fault, opt Options) (*Grader, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("faultsim: shard count must be >= 0, got %d", opt.Workers)
	}
	if err := validateFaults(c, faults); err != nil {
		return nil, err
	}
	cones, err := logicsim.FlatConeSetFor(c)
	if err != nil {
		return nil, err
	}
	g := &Grader{faults: faults, cones: cones, first: make([]int, len(faults))}
	for fi := range g.first {
		g.first[fi] = NotDetected
	}
	for range max(1, min(opt.Workers, len(faults))) {
		g.sims = append(g.sims, logicsim.NewFlatSim(cones.Flat()))
	}
	return g, nil
}

// Add grades the patterns as the next ones of the program and returns
// the indices, ascending, of the faults they newly detect. Adding no
// patterns detects nothing.
func (g *Grader) Add(patterns []logicsim.Pattern) ([]int, error) {
	blocks, err := logicsim.PackBlocks(patterns)
	if err != nil {
		return nil, err
	}
	if err := g.grade(blocks); err != nil {
		return nil, err
	}
	var newly []int
	for fi, d := range g.first {
		if d >= g.added {
			newly = append(newly, fi)
		}
	}
	g.added += len(patterns)
	return newly, nil
}

// Result returns the pattern-level outcome of everything added so far.
func (g *Grader) Result() Result {
	return Result{FirstDetect: slices.Clone(g.first), Patterns: g.added}
}

// grade simulates the faults against the blocks, one shard per FlatSim.
// One shard runs inline and starts no goroutine.
func (g *Grader) grade(blocks []logicsim.PatternBlock) error {
	if len(g.sims) == 1 {
		return g.gradeShard(g.sims[0], blocks, 0, len(g.faults))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(g.sims))
	chunk := (len(g.faults) + len(g.sims) - 1) / len(g.sims)
	for w, sim := range g.sims {
		lo := w * chunk
		hi := min(lo+chunk, len(g.faults))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = g.gradeShard(sim, blocks, lo, hi)
		}()
	}
	wg.Wait()
	// The lowest failing shard's error, so the report does not depend
	// on goroutine timing.
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// gradeShard is the one block×fault loop: it simulates faults [lo, hi)
// against every block in pattern order, each faulty pass restricted to
// the fault's slot cone on top of the block's good-machine values. Each
// fault index belongs to one shard, so every first-detect slot has one
// writer and dropping needs no locks. The good machine runs at most once
// per block, only while a fault of the shard is alive.
//
//repolint:hotpath
func (g *Grader) gradeShard(sim *logicsim.FlatSim, blocks []logicsim.PatternBlock, lo, hi int) error {
	var (
		good []uint64
		diff uint64
		err  error
	)
	for bi := range blocks {
		live := false
		for fi := lo; fi < hi; fi++ {
			if g.first[fi] != NotDetected {
				continue
			}
			if !live {
				// The cone walks leave the good machine untouched, so
				// one evaluation serves every surviving fault.
				if good, err = sim.RunInto(blocks[bi], good); err != nil {
					return err
				}
				live = true
			}
			f := g.faults[fi]
			if diff, _, err = sim.RunFault(g.cones, f.Gate, f.Pin, f.Stuck, nil); err != nil {
				return err
			}
			if diff != 0 {
				g.first[fi] = g.added + bi*64 + bits.TrailingZeros64(diff)
			}
		}
		if !live {
			break // nothing left in the shard; skip the dead tail
		}
	}
	return nil
}
