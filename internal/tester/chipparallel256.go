package tester

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/defect"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
)

// The chipparallel256 lot engine transposes the ATE's word layout:
// where the per-chip test oracle packs 64 patterns into a word and
// walks the circuit once per (chip, block), chipparallel256 packs the good
// machine (lane 0) plus up to 255 defective chips into the bit-lanes of
// a multi-word lane block and evaluates the whole batch once per
// pattern. Each chip's faults are forced onto its lane through a shared
// logicsim.WideLaneForces table — v = (v &^ care) | force per fault
// site.
//
// A batch takes one of two walks, picked by a density rule
// (chipParallel256State.sparse) that reads only the batch's force table
// and the circuit — a table is sparse when it forces fewer slots than a
// quarter of the circuit's logic slots:
//
//   - A dense batch — a fresh 255-chip batch at high n0 on a small
//     circuit diverges nearly everywhere — takes the linear forced walk
//     over every slot, one pattern per walk
//     (logicsim.WideSim.RunLaneForced).
//   - A sparse batch takes the chip walk
//     (logicsim.WideSim.RunChipBlock): each chip still alive is
//     finished alone, one walk per 64-pattern block, 64 patterns in the
//     lanes, from the block holding its next pattern to the end of the
//     program. It evaluates only the slots where the chip departs from
//     the good machine, reading every other slot from the good
//     machine's value planes (logicsim.GoodPlanes), which the ATE's
//     Program built once for every ATE of the test program — the
//     planes' own layout. A chip's sites are evaluated once per 64
//     patterns instead of once per pattern, so the long-surviving
//     chips of a deep circuit cost a fraction of a lane walk. None of
//     the batch goes on to the next round.
//
// The rule runs at every table build: a fresh batch's first build, and
// every rebuild of a dense batch after a prune or a compaction (below).
// A dense batch whose rebuilt table is sparse hands its survivors to
// the chip walk from the next pattern on. Both walks compute the same
// machines, so the choice never touches results.
//
// First-fail extraction is exact at strobe granularity: at pattern p
// the lane block of each primary output is diffed against the
// broadcast of lane 0 (the good machine computed in the same walk),
// outputs in strobe order, so the first differing (pattern, output)
// pair per lane is the same strobe the per-chip oracle reports. A lane is
// dropped the moment its chip fails. The chip walk reads the same
// strobe off its output difference words: the lowest failing pattern
// of the block, then the lowest output failing under it.
//
// Scheduling is what makes the lanes earn their keep:
//
//   - Patterns are processed in growing chunks (8, 16, 32, then 64), and
//     after each chunk the survivors of *all* batches are re-packed into
//     fresh full batches for the next chunk. Most defective chips fail
//     within the first few patterns, so without re-packing a batch
//     would idle its dead lanes while its slowest chip (or an escape)
//     walks the rest of the program.
//   - Within a round, surviving chips are ordered by their lowest
//     fault-universe index: chips with overlapping fault sites fail at
//     correlated times, so neighbours tend to die in the same chunk and
//     lanes stay packed.
//   - Once three quarters of a batch's lanes have died, its force table
//     is rebuilt over the survivors, so the walk cost tracks the
//     survivor count.
//   - Dead-lane *compaction*: the wide layer has two widths, 1 and 4
//     words. A batch that fits in 64 lanes runs at one word from the
//     start; a larger one starts at four and, once its survivors fit in
//     64 lanes, re-packs them into the low lanes of a 1-word block and
//     continues there. Shallow circuits kill most of a batch in the
//     first few patterns, so the steady state collapses to the 1-word
//     scalar kernel (logicsim wide1.go) while the opening patterns still
//     retire 255 chips per walk.
//
// The ordering affects only scheduling, never results: first fails are
// bit-identical to the per-chip oracle.
//
// Chips never batched: a fault-free chip passes, and a one-fault chip of
// a lot over the first-detect table's universe (ATE.UseFirstDetects)
// takes its fault's strobe first detect, since it is exactly the
// single-fault machine the table was simulated on.

const (
	// pp256Words is the lane block a full batch starts at (before
	// compaction narrows it to one word): 4 words = 256 lanes.
	pp256Words = logicsim.MaxLaneWords
	// pp256Lanes is the number of chip lanes per batch (lane 0 is the
	// good machine).
	pp256Lanes = 64*pp256Words - 1
	// ppChunkStart/ppChunkMax bound the growing pattern-chunk schedule:
	// small early chunks keep dead-lane waste low while the lot is
	// failing fast, and the cap keeps late rounds from re-packing
	// needlessly once only stragglers remain.
	ppChunkStart = 8
	ppChunkMax   = 64
)

// ppItem is one defective chip awaiting testing: its lot index and its
// batching key (lowest fault-universe index).
type ppItem struct {
	chip, key int
}

// ppSort is the reusable scratch of sortWork.
type ppSort struct {
	count []int32
	tmp   []ppItem
}

// sortWork orders the lot's defective chips by batching key, chip index
// breaking ties — the deterministic schedule. Keys are fault-universe
// indexes, so instead of a comparison sort this is one stable counting
// pass over nKeys buckets: count the keys, prefix-sum the counts into
// bucket offsets, and place the items in their incoming (chip) order.
// On shallow circuits chips die within the first few patterns and
// scheduling overhead competes with simulation itself — a comparison
// sort here was a fifth of lot wall time.
func (ps *ppSort) sortWork(work []ppItem, nKeys int) {
	if cap(ps.count) < nKeys+1 {
		ps.count = make([]int32, nKeys+1)
	}
	count := ps.count[:nKeys+1]
	clear(count)
	for _, it := range work {
		count[it.key]++
	}
	var sum int32
	for k := range count {
		sum, count[k] = sum+count[k], sum
	}
	ps.tmp = append(ps.tmp[:0], work...)
	for _, it := range ps.tmp {
		work[count[it.key]] = it
		count[it.key]++
	}
}

// ErrBatchLanes marks a chip batch whose lanes do not fit the
// lane-block width the engine is about to walk — the guard that keeps a
// re-packed (compacted) batch from silently indexing lanes past the
// narrower forcing table.
var ErrBatchLanes = errors.New("tester: batch lanes exceed lane-block width")

// chipParallel256State is the engine's per-ATE scratch, allocated once
// and reused across lots. Walk state and forcing tables are per width
// (index 0: 1 word, index 1: 4 words), each built lazily on its own: a
// batch that takes the chip walk needs the forcing table of its width,
// for the density rule, but only the 1-word walk state.
type chipParallel256State struct {
	flat   *logicsim.Flat
	sims   [2]*logicsim.WideSim
	forces [2]*logicsim.WideLaneForces

	out        []uint64
	work, next []ppItem
	sort       ppSort
	// Per-lot CSR of resolved chip faults: chip c's injections live at
	// faults[faultAt[c]:faultAt[c+1]]. Table builds re-walk these lists
	// on every rebuild and prune, and the lot's per-chip []int slices
	// point all over the heap — flattening them once per lot turns each
	// rebuild into streaming reads of a contiguous array, with the
	// universe indirection already resolved away.
	faultAt []int32
	faults  []logicsim.SlotInjection

	// planes is the good machine's value plane of every pattern block,
	// shared read-only with every ATE of the Program: the chip walk
	// reads every slot the chip does not disturb out of it instead of
	// simulating it.
	planes *logicsim.GoodPlanes
	// denseWalks counts the lane-parallel pattern walks of dense
	// batches, chipWalks the pattern-parallel block walks of chips
	// finished alone (see sparse), tableChips the chips resolved from
	// the first-detect table instead; tests read them.
	denseWalks, chipWalks, tableChips int
}

// sparse is the density rule of the file comment, applied at every
// table build: true when the table forces fewer slots than a quarter of
// the circuit's logic slots, which sends the batch's live chips to the
// chip walk.
func (st *chipParallel256State) sparse(lf *logicsim.WideLaneForces) bool {
	return lf.ForcedSlots()*4 < st.flat.Slots()-st.flat.NumInputs()
}

// widthIndex maps a lane-block width to its slot in sims and forces.
func widthIndex(words int) int {
	if words > 1 {
		return 1
	}
	return 0
}

// forcesAt returns the forcing table of the given width, building it on
// first use.
func (st *chipParallel256State) forcesAt(words int) (*logicsim.WideLaneForces, error) {
	i := widthIndex(words)
	if st.forces[i] == nil {
		forces, err := logicsim.NewWideLaneForces(st.flat, words)
		if err != nil {
			return nil, err
		}
		st.forces[i] = forces
	}
	return st.forces[i], nil
}

// simAt returns the walk state of the given width, building it on first
// use.
func (st *chipParallel256State) simAt(words int) (*logicsim.WideSim, error) {
	i := widthIndex(words)
	if st.sims[i] == nil {
		sim, err := logicsim.NewWideSim(st.flat, words)
		if err != nil {
			return nil, err
		}
		st.sims[i] = sim
	}
	return st.sims[i], nil
}

// chipParallel256FirstFail computes the per-chip first-fail record of
// the lot as strobe steps, bit-identical to the per-chip oracle's
// (serialFirstFail, in the tests).
func (a *ATE) chipParallel256FirstFail(lot defect.Lot) ([]int, error) {
	st := a.pp256
	// The universe is resolved to slot space once per ATE (resolvedFor);
	// each chip's fault list is flattened through it into the per-lot
	// CSR: the batch builds below re-add the same faults on every
	// rebuild, and the flattened resolved form makes each of those adds
	// a validation-free AddResolved fed by sequential reads (see
	// chipParallel256State).
	universe, err := a.resolvedFor(lot.Universe)
	if err != nil {
		return nil, err
	}
	// A one-fault chip over the table's universe is the single-fault
	// machine: its first fail is the table entry, and it never enters
	// the batches.
	first := a.firstDetectsFor(lot.Universe)
	ff := make([]int, len(lot.Chips))
	work := st.work[:0]
	st.faultAt = append(st.faultAt[:0], 0)
	st.faults = st.faults[:0]
	for i, chip := range lot.Chips {
		ff[i] = NeverFails
		key := len(universe)
		for _, fi := range chip.Faults {
			if fi < 0 || fi >= len(universe) {
				return nil, fmt.Errorf("tester: chip fault index %d out of universe", fi)
			}
			if fi < key {
				key = fi
			}
			st.faults = append(st.faults, universe[fi])
		}
		st.faultAt = append(st.faultAt, int32(len(st.faults)))
		switch {
		case first != nil && len(chip.Faults) == 1:
			if s := first[chip.Faults[0]]; s != faultsim.NotDetected {
				ff[i] = s
			}
			st.tableChips++
		case chip.Defective():
			work = append(work, ppItem{chip: i, key: key})
		}
	}
	st.sort.sortWork(work, len(universe))
	spare := st.next[:0]
	base, chunk := 0, ppChunkStart
	for len(work) > 0 && base < len(a.prog.patterns) {
		end := base + chunk
		if end > len(a.prog.patterns) {
			end = len(a.prog.patterns)
		}
		next := spare[:0]
		for lo := 0; lo < len(work); lo += pp256Lanes {
			hi := lo + pp256Lanes
			if hi > len(work) {
				hi = len(work)
			}
			var err error
			next, err = a.pp256Batch(work[lo:hi], base, end, ff, next)
			if err != nil {
				return nil, err
			}
		}
		work, spare = next, work
		base = end
		if chunk < ppChunkMax {
			chunk *= 2
		}
	}
	st.work, st.next = work, spare
	return ff, nil
}

// laneWordsFor returns the lane-block width for the good machine plus n
// chip lanes: 1 word when they fit in 64 lanes, else the 4-word block.
func laneWordsFor(n int) int {
	if n < 64 {
		return 1
	}
	return pp256Words
}

// pp256Build (re)fills a forcing table with the pre-resolved faults of
// the batch lanes still alive, validating that every lane fits the table's width:
// after a compaction the table is narrower than the one the batch
// started on, and a lane index surviving from the wide assignment must
// never reach it (ErrBatchLanes names that invariant instead of an
// opaque lane-range error deep in logicsim). The walk cost then tracks
// the survivor count, whether the rebuild came from the 3/4-dead
// pruning threshold or from a re-pack.
func (a *ATE) pp256Build(batch []ppItem, lf *logicsim.WideLaneForces, alive []uint64) error {
	if len(batch)+1 > lf.Lanes() {
		return errBatchLanes(len(batch), lf.Words())
	}
	st := a.pp256
	lf.Reset()
	for i := range batch {
		lane := i + 1
		if alive[lane>>6]>>uint(lane&63)&1 == 0 {
			continue
		}
		c := batch[i].chip
		for _, sf := range st.faults[st.faultAt[c]:st.faultAt[c+1]] {
			lf.AddResolved(sf, lane)
		}
	}
	return nil
}

// errBatchLanes builds the lane-overflow error outside the batch loop.
func errBatchLanes(chips, words int) error {
	return fmt.Errorf("tester: %d chip lanes into a %d-word block: %w", chips, words, ErrBatchLanes)
}

// pp256Batch walks patterns [base, end) for one batch of up to 255
// chips, recording first fails and appending the survivors to next. A
// batch whose table is sparse, at its first build or at a rebuild,
// finishes its live chips on the chip walk instead and appends none.
// The batch slice is compacted in place as lanes die (its tail entries
// are dead storage afterwards; the caller's work buffer is rebuilt from
// next each chunk, so nothing reads them).
//
//repolint:hotpath
func (a *ATE) pp256Batch(batch []ppItem,
	base, end int, ff []int, next []ppItem) ([]ppItem, error) {
	st := a.pp256
	words := laneWordsFor(len(batch))
	lf, err := st.forcesAt(words)
	if err != nil {
		return nil, err
	}
	// alive covers chip lanes 1..len(batch); aliveArr keeps it off the
	// heap across the width changes.
	var aliveArr [logicsim.MaxLaneWords]uint64
	alive := aliveArr[:words]
	setAlive := func(nLanes int) {
		for k := 0; k < len(alive); k++ {
			lo := k * 64
			switch {
			case nLanes >= lo+64:
				alive[k] = ^uint64(0)
			case nLanes > lo:
				alive[k] = (uint64(1) << uint(nLanes-lo)) - 1
			default:
				alive[k] = 0
			}
		}
		alive[0] &^= 1 // lane 0 is the good machine
	}
	setAlive(len(batch) + 1)
	if err := a.pp256Build(batch, lf, alive); err != nil {
		return nil, err
	}
	if st.sparse(lf) {
		return next, a.pp256Chips(batch, base, ff)
	}
	sim, err := st.simAt(words)
	if err != nil {
		return nil, err
	}
	built := len(batch)
	liveCount := func() int {
		n := 0
		for k := 0; k < len(alive); k++ {
			n += bits.OnesCount64(alive[k])
		}
		return n
	}
	nOut := len(a.prog.c.Outputs)
	out := st.out
	for p := base; p < end; p++ {
		if out, err = sim.RunLaneForced(a.prog.blocks[p/64], p%64, lf, out); err != nil {
			return nil, err
		}
		st.denseWalks++
		for o := 0; o < nOut; o++ {
			ob := out[o*words : (o+1)*words]
			gb := -(ob[0] & 1) // broadcast the good machine (lane 0)
			anyDiff := false
			for k := 0; k < words; k++ {
				if (ob[k]^gb)&alive[k] != 0 {
					anyDiff = true
					break
				}
			}
			if !anyDiff {
				continue
			}
			for k := 0; k < words; k++ {
				d := (ob[k] ^ gb) & alive[k]
				for d != 0 {
					bit := bits.TrailingZeros64(d)
					d &^= uint64(1) << uint(bit)
					alive[k] &^= uint64(1) << uint(bit)
					ff[batch[k*64+bit-1].chip] = p*nOut + o
				}
			}
		}
		n := liveCount()
		if n == 0 || p+1 >= end {
			break
		}
		if w2 := laneWordsFor(n); w2 < words {
			// The survivors fit in one word: re-pack them into the low
			// lanes of a 1-word block. Survivor order is preserved, so
			// the lowest-fault-index ordering the scheduler relies on
			// is untouched.
			batch = survivors(batch, alive)
			words = w2
			if lf, err = st.forcesAt(words); err != nil {
				return nil, err
			}
			if sim, err = st.simAt(words); err != nil {
				return nil, err
			}
			alive = aliveArr[:words]
			setAlive(len(batch) + 1)
		} else if n*4 > built {
			continue // under 3/4 dead: keep the table
		}
		// Compacted, or 3/4 dead: rebuild the force table over the
		// survivors so the walk stops paying for dead lanes' faults.
		if err := a.pp256Build(batch, lf, alive); err != nil {
			return nil, err
		}
		built = n
		if st.sparse(lf) {
			// The survivors finish alone on the chip walk, from the
			// next pattern to the end of the program.
			st.out = out
			return next, a.pp256Chips(survivors(batch, alive), p+1, ff)
		}
	}
	st.out = out
	return append(next, survivors(batch, alive)...), nil
}

// survivors moves the chips of the batch's live lanes (lane i+1 carries
// batch[i]) to the front of batch, in order, and returns them.
func survivors(batch []ppItem, alive []uint64) []ppItem {
	n := 0
	for lane := 1; lane <= len(batch); lane++ {
		if alive[lane>>6]>>uint(lane&63)&1 == 1 {
			batch[n] = batch[lane-1]
			n++
		}
	}
	return batch[:n]
}

// pp256Chips finishes each chip of a sparse batch alone: one
// pattern-parallel walk (logicsim.WideSim.RunChipBlock) per 64-pattern
// block, from the block holding base to the end of the program, until
// the chip fails. The walk follows only the patterns from base (the
// chip survived those before it) to the end of the program, so every
// bit it reports is a real failing strobe pattern. The first fail is
// the lowest failing pattern of the block and, within it, the lowest
// output failing there.
//
//repolint:hotpath
func (a *ATE) pp256Chips(batch []ppItem, base int, ff []int) error {
	st := a.pp256
	sim, err := st.simAt(1)
	if err != nil {
		return err
	}
	total := st.planes.Patterns()
	nOut := len(a.prog.c.Outputs)
	last := (total - 1) >> 6
	out := st.out
	for _, it := range batch {
		faults := st.faults[st.faultAt[it.chip]:st.faultAt[it.chip+1]]
		for b := base >> 6; b <= last; b++ {
			mask := ^uint64(0)
			if b == base>>6 {
				mask <<= uint(base & 63)
			}
			if b == last && total&63 != 0 {
				mask &= uint64(1)<<uint(total&63) - 1
			}
			var fails uint64
			if out, fails, err = sim.RunChipBlock(st.planes.Block(b), mask, faults, out); err != nil {
				return err
			}
			st.chipWalks++
			if fails == 0 {
				continue
			}
			p := bits.TrailingZeros64(fails)
			o := 0
			for out[o]>>uint(p)&1 == 0 {
				o++
			}
			ff[it.chip] = (b<<6+p)*nOut + o
			break
		}
	}
	st.out = out
	return nil
}
