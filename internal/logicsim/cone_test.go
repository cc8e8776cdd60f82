package logicsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

func randomBlock(t *testing.T, c *netlist.Circuit, count int, seed int64) logicsim.PatternBlock {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	patterns := make([]logicsim.Pattern, count)
	for i := range patterns {
		p := make(logicsim.Pattern, len(c.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		patterns[i] = p
	}
	block, err := logicsim.PackPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func TestConeSetStructure(t *testing.T) {
	c := netlist.C17()
	cs, err := logicsim.NewConeSet(c)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := c.Order()
	pos := make([]int, len(c.Gates))
	for i, id := range order {
		pos[id] = i
	}
	for site := range c.Gates {
		cone := cs.Cone(site)
		if len(cone.Gates) == 0 || cone.Gates[0] != site {
			t.Fatalf("cone of %d does not start at the site: %v", site, cone.Gates)
		}
		for i := 1; i < len(cone.Gates); i++ {
			if pos[cone.Gates[i-1]] >= pos[cone.Gates[i]] {
				t.Fatalf("cone of %d not topologically ordered: %v", site, cone.Gates)
			}
		}
		// Every cone member must be reachable: it is either the site or
		// has a fanin inside the cone.
		in := make(map[int]bool, len(cone.Gates))
		for _, g := range cone.Gates {
			in[g] = true
		}
		for _, g := range cone.Gates[1:] {
			reachable := false
			for _, f := range c.Gates[g].Fanin {
				if in[f] {
					reachable = true
					break
				}
			}
			if !reachable {
				t.Fatalf("cone of %d contains unreachable gate %d", site, g)
			}
		}
		// Outputs agree with cone membership.
		for _, oi := range cone.Outputs {
			if !in[c.Outputs[oi]] {
				t.Fatalf("cone of %d lists output %d outside the cone", site, oi)
			}
		}
		for oi, o := range c.Outputs {
			if in[o] {
				found := false
				for _, x := range cone.Outputs {
					if x == oi {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("cone of %d misses reachable output %d", site, oi)
				}
			}
		}
	}
	// A primary output's own cone is just itself (no fanout beyond).
	if cs.Size() < len(c.Gates) {
		t.Fatal("cone set smaller than the gate count")
	}
}
