package main

import (
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestRunRejectsRandomCount: -random outside [0, SizeCap] fails naming
// the flag, before any circuit is built or pattern allocated.
func TestRunRejectsRandomCount(t *testing.T) {
	for _, n := range []int{-1, experiment.SizeCap + 1} {
		err := run("c17", n, 1, false)
		if err == nil || !strings.Contains(err.Error(), "-random") {
			t.Errorf("-random %d: error %v, want one naming -random", n, err)
		}
	}
}
