// Package good is the clean oracle fixture: production code simulating
// on the flat core.
package good

import (
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func observe(c *netlist.Circuit, block logicsim.PatternBlock) ([]uint64, error) {
	f, err := logicsim.FlatFor(c)
	if err != nil {
		return nil, err
	}
	return logicsim.NewFlatSim(f).RunInto(block, nil)
}
