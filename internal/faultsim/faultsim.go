// Package faultsim measures which single-stuck-at faults a test-pattern
// sequence detects. Two engines share one result contract (identical
// FirstDetect, bit for bit), one set of plumbing — block packing,
// fault dropping, first-detect bookkeeping — and one block×fault loop
// on the flat core (logicsim.Flat); they differ only in how each
// faulty pass is simulated:
//
//   - PPSFP: parallel-pattern single-fault propagation with fault
//     dropping, restricted to each fault's slot cone (logicsim.FlatSim
//     over a FlatConeSet) — the workhorse used by the experiments;
//   - Serial: one fault at a time, full-circuit re-simulation as a
//     scalar flat walk, no fault dropping — the classic baseline and
//     the full-circuit reference PPSFP is cross-checked against.
//
// Options.Workers shards the fault list across goroutines for either
// engine; the default runs one shard inline.
//
// The paper's experiment needs the cumulative coverage curve of an
// ordered pattern set — CoverageCurve produces exactly the "fault
// coverage vs. pattern number" table that §5 feeds to the tester.
package faultsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// NotDetected marks a fault no pattern detects.
const NotDetected = -1

// Result reports a fault-simulation run over an ordered pattern set.
type Result struct {
	// FirstDetect[i] is the index of the first pattern detecting fault
	// i of the simulated list, or NotDetected.
	FirstDetect []int
	// Patterns is the number of patterns simulated.
	Patterns int
}

// DetectedBy returns how many faults the first k+1 patterns detect.
func (r Result) DetectedBy(k int) int {
	n := 0
	for _, d := range r.FirstDetect {
		if d != NotDetected && d <= k {
			n++
		}
	}
	return n
}

// Coverage returns the final fault coverage (fraction detected).
func (r Result) Coverage() float64 {
	if len(r.FirstDetect) == 0 {
		return 0
	}
	return float64(r.DetectedBy(r.Patterns-1)) / float64(len(r.FirstDetect))
}

// Engine selects the fault-simulation algorithm.
type Engine int

// Available engines. PPSFP is the zero value on purpose: an
// unconfigured Engine field selects the workhorse. The values are
// stable, because a sweep's JSON report records the Engine number: a
// retired engine leaves its value unused (2, 3, 4 and 5 are).
const (
	PPSFP  Engine = 0
	Serial Engine = 1
)

// strategy is one entry of the engine registry: the CLI-stable name
// plus how the shared shard loop simulates each faulty pass.
type strategy struct {
	name string
	// ppsfp selects cone-restricted passes with fault dropping; without
	// it every fault meets every block on a full-circuit walk.
	ppsfp bool
}

// registry maps each Engine to its strategy. Every engine runs the same
// shard loop over the same session.
var registry = map[Engine]strategy{
	PPSFP:  {"ppsfp", true},
	Serial: {"serial", false},
}

// String names the engine.
func (e Engine) String() string {
	if st, ok := registry[e]; ok {
		return st.name
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps an engine name (as printed by String and accepted by
// the CLIs) back to the Engine.
func ParseEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if registry[e].name == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("faultsim: unknown engine %q (registered: %s)", name, EngineNames())
}

// Engines lists every registered engine in a stable order (ascending
// Engine value). It is derived from the registry, so a new registry
// entry is automatically visible to ParseEngine, the CLIs, and the
// cross-engine tests.
func Engines() []Engine {
	out := make([]Engine, 0, len(registry))
	for e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EngineNames lists the registered engine names, comma-separated in
// Engines order, for error messages and CLI flag help.
func EngineNames() string {
	names := make([]string, 0, len(registry))
	for _, e := range Engines() {
		names = append(names, registry[e].name)
	}
	return strings.Join(names, ", ")
}

// Options tunes a run; the zero value selects the defaults.
type Options struct {
	// Workers is the number of fault-list shards, each simulated on
	// its own goroutine; 0 or 1 runs one shard inline. Results do not
	// depend on it.
	Workers int
}

// Run fault-simulates the ordered patterns against the fault list with
// default options and returns per-fault first-detection indices.
// Detected faults are dropped from further simulation where the engine
// supports it (standard fault dropping); the first-detect indices are
// unaffected by dropping.
func Run(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine) (Result, error) {
	return RunOpts(c, faults, patterns, engine, Options{})
}

// RunOpts is Run with explicit engine options.
func RunOpts(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern, engine Engine, opt Options) (Result, error) {
	if len(patterns) == 0 {
		return Result{}, fmt.Errorf("faultsim: no patterns")
	}
	st, ok := registry[engine]
	if !ok {
		return Result{}, fmt.Errorf("faultsim: unknown engine %v", engine)
	}
	if opt.Workers < 0 {
		return Result{}, fmt.Errorf("faultsim: shard count must be >= 0, got %d", opt.Workers)
	}
	s, err := newSession(c, faults, patterns)
	if err != nil {
		return Result{}, err
	}
	if err := s.run(st.ppsfp, opt.Workers); err != nil {
		return Result{}, err
	}
	return Result{FirstDetect: s.first, Patterns: len(patterns)}, nil
}

// session carries the state every engine shares: the circuit, the fault
// list, the patterns, and the first-detect array the shards fill in.
type session struct {
	c        *netlist.Circuit
	faults   []fault.Fault
	patterns []logicsim.Pattern
	first    []int
}

// block is one packed slab of up to 64 patterns plus its good-machine
// primary-output words.
type block struct {
	pat  logicsim.PatternBlock
	base int // pattern index of bit 0
	good []uint64
}

func newSession(c *netlist.Circuit, faults []fault.Fault, patterns []logicsim.Pattern) (*session, error) {
	for i, f := range faults {
		if f.Gate < 0 || f.Gate >= len(c.Gates) {
			return nil, fmt.Errorf("faultsim: fault %d site %d out of range", i, f.Gate)
		}
		if f.Pin >= len(c.Gates[f.Gate].Fanin) {
			return nil, fmt.Errorf("faultsim: fault %d: gate %d has no pin %d", i, f.Gate, f.Pin)
		}
	}
	first := make([]int, len(faults))
	for i := range first {
		first[i] = NotDetected
	}
	return &session{c: c, faults: faults, patterns: patterns, first: first}, nil
}

// packBlocks packs the pattern sequence into 64-wide blocks. needGood
// additionally records each block's good-machine primary-output words
// on fsim — only the full-circuit diff path reads them; the cone
// passes diff against the simulator's saved values and would otherwise
// pay one wasted good simulation per block.
func (s *session) packBlocks(fsim *logicsim.FlatSim, needGood bool) ([]block, error) {
	var blocks []block
	for base := 0; base < len(s.patterns); base += 64 {
		pat, err := logicsim.PackPatterns(s.patterns[base:min(base+64, len(s.patterns))])
		if err != nil {
			return nil, err
		}
		b := block{pat: pat, base: base}
		if needGood {
			if b.good, err = fsim.RunInto(pat, nil); err != nil {
				return nil, err
			}
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// detect records that fault fi is detected by pattern p, keeping the
// earliest index. Not safe for concurrent use on the same fault index;
// a sharded run partitions the fault list so each index has one writer.
func (s *session) detect(fi, p int) {
	if s.first[fi] == NotDetected || p < s.first[fi] {
		s.first[fi] = p
	}
}

// alive reports whether fault fi is still undetected (the fault-
// dropping predicate).
func (s *session) alive(fi int) bool { return s.first[fi] == NotDetected }
