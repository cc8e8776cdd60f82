package netlist

import (
	"fmt"
	"math/rand"
)

// LSIChip synthesizes an ISCAS'85-class pseudo-random netlist of
// roughly n gates (n >= 100; the interesting range is 1k–10k, the
// scale of c1355..c7552). The shape follows the published benchmarks
// rather than a uniform random graph: NAND-heavy gate mix, fanin 2–4,
// input and output counts near c7552's gate ratios (one input per ~36
// gates, one output per ~33), locality-biased fanin selection for
// depth with occasional long-range edges for reconvergent fanout, and
// a final collector sweep that folds would-be dead logic into XOR
// observation trees so no gate is left without a path to an output.
//
// It is not ISCAS-like in redundancy. Gate types are drawn
// independently of their fanins, so signal probabilities drift toward
// constant 0 or 1 and most stuck-at faults cannot be detected by any
// pattern: on the 16-input members only about 40% of the collapsed
// faults are detectable (43% on lsi300, 39% on lsi576, exhaustively),
// and 16384 random patterns reach only about half coverage on lsi1k,
// lsi4k and lsi7552, where the ISCAS'85 circuits are redundant in a
// few percent of their faults. A workload built on it cannot reach the
// paper's 80–95% coverage range.
//
// The construction is deterministic in n alone: lsi<N> names one
// reproducible workload, like rand<seed>.
func LSIChip(n int) (*Circuit, error) {
	if n < 100 {
		return nil, fmt.Errorf("netlist: lsi size must be >= 100 gates, got %d", n)
	}
	inputs := n / 36
	if inputs < 16 {
		inputs = 16
	}
	outputs := n / 33
	if outputs < 8 {
		outputs = 8
	}
	rng := rand.New(rand.NewSource(0x7552 + int64(n)*0x9E3779B9))
	g := &gensym{c: NewSized(fmt.Sprintf("lsi%d", n), n+inputs+outputs)}
	pool := make([]string, 0, n+inputs)
	for i := 0; i < inputs; i++ {
		pool = append(pool, g.add(fmt.Sprintf("pi%d", i), Input))
	}
	// Gate mix roughly matching the ISCAS'85 family: NAND/NOR dominate,
	// with AND/OR/NOT support and a sprinkle of XOR.
	types := []GateType{Nand, Nand, Nand, Nand, Nor, Nor, And, And, Or, Not, Not, Xor}
	// Locality window: most fanins come from the most recent signals
	// (building depth, like a column of a datapath), the rest reach
	// back anywhere (creating the reconvergent long-range structure
	// random-pattern-resistant faults hide in).
	window := 2 * inputs
	pick := func() string {
		if len(pool) > window && rng.Float64() < 0.75 {
			return pool[len(pool)-window+rng.Intn(window)]
		}
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < n; i++ {
		t := types[rng.Intn(len(types))]
		var name string
		if t == Not {
			name = g.add(fmt.Sprintf("n%d", i), t, pick())
		} else {
			fanin := 2 + rng.Intn(3) // 2..4, like the benchmarks
			args := make([]string, 0, fanin)
			seen := map[string]bool{}
			for len(args) < fanin {
				a := pick()
				if seen[a] {
					// Duplicate pins are legal but pointless; retry a
					// few times, then settle for what we have.
					if len(args) >= 2 {
						break
					}
					continue
				}
				seen[a] = true
				args = append(args, a)
			}
			name = g.add(fmt.Sprintf("n%d", i), t, args...)
		}
		pool = append(pool, name)
	}
	if g.err != nil {
		return nil, g.err
	}
	// Collector sweep: fold unconsumed signals into XOR trees until the
	// dangling count fits the output budget. Unconsumed primary inputs
	// go first — they must be consumed, never marked as outputs.
	var dangling []string
	for _, gt := range g.c.Gates {
		if gt.Type == Input && len(gt.Fanout) == 0 {
			dangling = append(dangling, gt.Name)
		}
	}
	inputDanglers := len(dangling)
	for _, gt := range g.c.Gates {
		if gt.Type != Input && len(gt.Fanout) == 0 {
			dangling = append(dangling, gt.Name)
		}
	}
	ci := 0
	for len(dangling) > outputs || inputDanglers > 0 {
		k := 4
		if k > len(dangling) {
			k = len(dangling)
		}
		args := dangling[:k]
		if k < 2 {
			// A lone dangler (only possible via leftover inputs) gets a
			// partner from the pool.
			args = append(args, pool[rng.Intn(len(pool))])
		}
		name := g.add(fmt.Sprintf("obs%d", ci), Xor, args...)
		ci++
		if inputDanglers > k {
			inputDanglers -= k
		} else {
			inputDanglers = 0
		}
		dangling = append(dangling[k:], name)
	}
	for _, name := range dangling {
		g.output(name)
	}
	return g.finish()
}
