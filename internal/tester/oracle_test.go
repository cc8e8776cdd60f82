package tester

import (
	"fmt"
	"math/bits"
	"reflect"

	"repro/internal/defect"
	"repro/internal/logicsim"
	"repro/internal/logicsim/ref"
	"repro/internal/netlist"
)

// oracle is the per-chip reference the equivalence tests pin
// chipparallel256 to: one chip at a time through the pointer-walking
// ref.Simulator, which shares no simulation code with the flat
// core, diffed against the good machine's outputs of every 64-pattern
// block.
type oracle struct {
	a     *ATE           // the ATE under test: its program's pattern blocks
	sim   *ref.Simulator // pointer-walking simulator
	good  [][]uint64     // good-machine outputs per block
	tcOut []uint64       // TestChip/TestChipSteps output scratch
}

// newOracle builds an ATE over the patterns plus its oracle,
// pre-simulating the good machine of every block.
func newOracle(c *netlist.Circuit, patterns []logicsim.Pattern) (*oracle, error) {
	a, err := New(c, patterns)
	if err != nil {
		return nil, err
	}
	sim, err := ref.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	good := make([][]uint64, len(a.prog.blocks))
	for bi, block := range a.prog.blocks {
		out, err := sim.Run(block)
		if err != nil {
			return nil, err
		}
		good[bi] = append([]uint64(nil), out...)
	}
	return &oracle{a: a, sim: sim, good: good}, nil
}

// TestChip returns the index of the first pattern the chip fails, or
// NeverFails. The chip's faults are injected simultaneously (a multi-
// fault machine), which is what physical testing actually observes.
func (o *oracle) TestChip(chip defect.Chip, universe []logicsim.Injection) (int, error) {
	if !chip.Defective() {
		return NeverFails, nil
	}
	inj, err := o.injections(chip, universe)
	if err != nil {
		return 0, err
	}
	for bi, block := range o.a.prog.blocks {
		bad, err := o.sim.RunWithFaultsInto(block, inj, o.tcOut)
		if err != nil {
			return 0, err
		}
		o.tcOut = bad
		var diff uint64
		for out := range bad {
			diff |= (bad[out] ^ o.good[bi][out]) & block.Mask()
		}
		if diff != 0 {
			return bi*64 + bits.TrailingZeros64(diff), nil
		}
	}
	return NeverFails, nil
}

// TestChipSteps returns the first failing *strobe* (pattern × output)
// step index, or NeverFails: step = pattern*numOutputs + outputIndex,
// the Sentry's bookkeeping in Table 1.
func (o *oracle) TestChipSteps(chip defect.Chip, universe []logicsim.Injection) (int, error) {
	if !chip.Defective() {
		return NeverFails, nil
	}
	inj, err := o.injections(chip, universe)
	if err != nil {
		return 0, err
	}
	nOut := len(o.a.prog.c.Outputs)
	for bi, block := range o.a.prog.blocks {
		bad, err := o.sim.RunWithFaultsInto(block, inj, o.tcOut)
		if err != nil {
			return 0, err
		}
		o.tcOut = bad
		best := -1
		for out := range bad {
			diff := (bad[out] ^ o.good[bi][out]) & block.Mask()
			if diff == 0 {
				continue
			}
			step := (bi*64+bits.TrailingZeros64(diff))*nOut + out
			if best < 0 || step < best {
				best = step
			}
		}
		if best >= 0 {
			return best, nil
		}
	}
	return NeverFails, nil
}

// injections maps a chip's fault indices into injectable faults.
func (o *oracle) injections(chip defect.Chip, universe []logicsim.Injection) ([]logicsim.Injection, error) {
	inj := make([]logicsim.Injection, len(chip.Faults))
	for i, fi := range chip.Faults {
		if fi < 0 || fi >= len(universe) {
			return nil, fmt.Errorf("tester: chip fault index %d out of universe", fi)
		}
		inj[i] = universe[fi]
	}
	return inj, nil
}

// serialFirstFail is the lot's per-chip first-fail record, one chip at
// a time through TestChip/TestChipSteps.
func (o *oracle) serialFirstFail(lot defect.Lot, universe []logicsim.Injection, steps bool) ([]int, error) {
	test := o.TestChip
	if steps {
		test = o.TestChipSteps
	}
	ff := make([]int, len(lot.Chips))
	for i, chip := range lot.Chips {
		f, err := test(chip, universe)
		if err != nil {
			return nil, err
		}
		ff[i] = f
	}
	return ff, nil
}

// testLot is ATE.TestLotSteps on the oracle, or its pattern-granular
// counterpart when steps is false.
func (o *oracle) testLot(lot defect.Lot, steps bool) (LotResult, error) {
	ff, err := o.serialFirstFail(lot, injections(lot.Universe), steps)
	if err != nil {
		return LotResult{}, err
	}
	return foldLot(lot, ff), nil
}

// agrees returns an error unless got, an ATE's TestLotSteps record of
// the lot, equals the oracle's strobe-granular record and every first
// failing strobe lies in the pattern the oracle's pattern-granular walk
// reports for that chip.
func (o *oracle) agrees(lot defect.Lot, got LotResult) error {
	want, err := o.testLot(lot, true)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("chipparallel256 disagrees with the oracle\noracle: %+v\nchipparallel256: %+v", want, got)
	}
	byPattern, err := o.testLot(lot, false)
	if err != nil {
		return err
	}
	nOut := len(o.a.prog.c.Outputs)
	for i, ff := range got.FirstFail {
		p := ff
		if ff != NeverFails {
			p = ff / nOut
		}
		if p != byPattern.FirstFail[i] {
			return fmt.Errorf("chip %d: first failing strobe %d, oracle's first failing pattern %d", i, ff, byPattern.FirstFail[i])
		}
	}
	return nil
}
