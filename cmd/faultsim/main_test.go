package main

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/faultsim"
)

// TestRunRejectsPatternCount: -patterns outside [1, SizeCap] fails
// naming the flag, before any circuit is built or pattern allocated.
func TestRunRejectsPatternCount(t *testing.T) {
	for _, n := range []int{-1, 0, experiment.SizeCap + 1} {
		err := run("c17", n, 1, faultsim.Options{}, false)
		if err == nil || !strings.Contains(err.Error(), "-patterns") {
			t.Errorf("-patterns %d: error %v, want one naming -patterns", n, err)
		}
	}
}

// TestRunRejectsWorkerCount: -workers outside [0, WorkerCap] fails
// naming the flag, before any circuit is built or shard started.
func TestRunRejectsWorkerCount(t *testing.T) {
	for _, n := range []int{-1, experiment.WorkerCap + 1} {
		err := run("c17", 64, 1, faultsim.Options{Workers: n}, false)
		if err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %d: error %v, want one naming -workers", n, err)
		}
	}
}
