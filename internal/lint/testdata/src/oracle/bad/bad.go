// Package bad is the oracle fixture: a non-test file importing the
// reference simulator, which must be reported.
package bad

import (
	"repro/internal/logicsim"
	"repro/internal/logicsim/ref" // want oracle
	"repro/internal/netlist"
)

func observe(c *netlist.Circuit, block logicsim.PatternBlock) ([]uint64, error) {
	sim, err := ref.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	return sim.Run(block)
}
