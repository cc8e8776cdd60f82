package tester

// TableChips and LaneWalks expose the lot engine's path counters to the
// external (tester_test) cross-stack tests: the chips an ATE resolved
// from its first-detect table, and the walks its lane engine ran —
// lane-parallel pattern walks and pattern-parallel chip walks alike.
func TableChips(a *ATE) int { return a.pp256.tableChips }

func LaneWalks(a *ATE) int { return a.pp256.denseWalks + a.pp256.chipWalks }
