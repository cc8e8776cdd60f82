package logicsim_test

import (
	"fmt"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// ExamplePackPatterns shows the 64-way bit-parallel packing: each
// primary input becomes one machine word whose bit p carries pattern
// p's value, so one pass through the circuit simulates all packed
// patterns at once.
func ExamplePackPatterns() {
	patterns := []logicsim.Pattern{
		{false, false}, // pattern 0: a=0 b=0
		{true, false},  // pattern 1: a=1 b=0
		{true, true},   // pattern 2: a=1 b=1
	}
	block, err := logicsim.PackPatterns(patterns)
	if err != nil {
		panic(err)
	}
	fmt.Printf("input a word: %03b\n", block.Inputs[0])
	fmt.Printf("input b word: %03b\n", block.Inputs[1])
	fmt.Printf("valid-pattern mask: %03b\n", block.Mask())

	c := netlist.New("and2")
	mustAdd := func(name string, t netlist.GateType, fanin ...string) {
		if _, err := c.AddGate(name, t, fanin...); err != nil {
			panic(err)
		}
	}
	mustAdd("a", netlist.Input)
	mustAdd("b", netlist.Input)
	mustAdd("y", netlist.And, "a", "b")
	if err := c.MarkOutput("y"); err != nil {
		panic(err)
	}
	f, err := logicsim.FlatFor(c)
	if err != nil {
		panic(err)
	}
	out, err := logicsim.NewFlatSim(f).RunInto(block, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("output y word: %03b\n", out[0]&block.Mask())
	// Output:
	// input a word: 110
	// input b word: 100
	// valid-pattern mask: 111
	// output y word: 100
}
