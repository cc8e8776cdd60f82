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
// splits the fault list into that many contiguous shards, each walked
// on its own goroutine with its own WideSim; results do not depend on
// the shard count. A Grader is not safe for concurrent use, nor for use
// after a failed Add.
type Grader struct {
	faults []fault.Fault
	inj    []logicsim.SlotInjection // faults resolved to slot space
	good   *logicsim.FlatSim        // the good machine, one block at a time
	outs   []uint64                 // good's output words, unused
	shards []*shard                 // kept across Adds
	first  []int
	added  int // patterns added so far
}

// shard is one contiguous range of the fault list and its walk state.
type shard struct {
	lo, hi int
	left   int // faults of the range still undetected
	sim    *logicsim.WideSim
	out    []uint64
}

// NewGrader validates the fault list and options once and opens a
// session with no patterns added, over the circuit's cached flat form.
func NewGrader(c *netlist.Circuit, faults []fault.Fault, opt Options) (*Grader, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("faultsim: shard count must be >= 0, got %d", opt.Workers)
	}
	if err := validateFaults(c, faults); err != nil {
		return nil, err
	}
	flat, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	inj, err := resolve(flat, faults)
	if err != nil {
		return nil, err
	}
	g := &Grader{faults: faults, inj: inj, good: logicsim.NewFlatSim(flat), first: make([]int, len(faults))}
	for fi := range g.first {
		g.first[fi] = NotDetected
	}
	n := max(1, min(opt.Workers, len(faults)))
	chunk := (len(faults) + n - 1) / n
	for lo := 0; lo < len(faults); lo += chunk {
		sim, err := logicsim.NewWideSim(flat, 1)
		if err != nil {
			return nil, err
		}
		hi := min(lo+chunk, len(faults))
		g.shards = append(g.shards, &shard{lo: lo, hi: hi, left: hi - lo, sim: sim})
	}
	return g, nil
}

// resolve maps a validated fault list to slot space.
func resolve(flat *logicsim.Flat, faults []fault.Fault) ([]logicsim.SlotInjection, error) {
	inj := make([]logicsim.SlotInjection, len(faults))
	for i, f := range faults {
		si, err := flat.ResolveInjection(logicsim.Injection{Gate: f.Gate, Pin: f.Pin, Stuck: f.Stuck})
		if err != nil {
			return nil, err
		}
		inj[i] = si
	}
	return inj, nil
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

// grade simulates the faults against the blocks in pattern order. Each
// block's good machine runs once, on the calling goroutine, into the
// one value plane every shard then reads: no plane outlives its block.
// It stops at the first block that finds no fault left. One shard with
// work runs inline and starts no goroutine.
func (g *Grader) grade(blocks []logicsim.PatternBlock) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.shards))
	for bi, block := range blocks {
		busy := 0
		for _, sh := range g.shards {
			if sh.left > 0 {
				busy++
			}
		}
		if busy == 0 {
			break
		}
		var err error
		if g.outs, err = g.good.RunInto(block, g.outs); err != nil {
			return err
		}
		good, mask, base := g.good.Plane(), block.Mask(), g.added+bi*64
		for w, sh := range g.shards {
			switch {
			case sh.left == 0:
			case busy == 1:
				errs[w] = g.gradeShard(sh, good, mask, base)
			default:
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[w] = g.gradeShard(sh, good, mask, base)
				}()
			}
		}
		wg.Wait()
		// The lowest failing shard's error, so the report does not
		// depend on goroutine timing.
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
	}
	return nil
}

// gradeShard is the one fault loop: it walks each still-undetected
// fault of the shard alone over the block's good plane, following only
// the block's valid patterns (mask), so the walk evaluates just the
// slots where the faulty machine departs from the good one. base is the
// program index of the block's first pattern. Each fault index belongs
// to one shard, so every first-detect slot has one writer and dropping
// needs no locks.
//
//repolint:hotpath
func (g *Grader) gradeShard(sh *shard, good []uint64, mask uint64, base int) error {
	var err error
	for fi := sh.lo; fi < sh.hi; fi++ {
		if g.first[fi] != NotDetected {
			continue
		}
		if sh.out, err = sh.sim.RunChipBlock(good, mask, g.inj[fi:fi+1], sh.out); err != nil {
			return err
		}
		var diff uint64
		for _, d := range sh.out {
			diff |= d
		}
		if diff != 0 {
			g.first[fi] = base + bits.TrailingZeros64(diff)
			sh.left--
		}
	}
	return nil
}
