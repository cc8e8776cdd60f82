// Package circuits is the central workload registry: it resolves
// textual workload specs ("mul8", "rand7", "bench:c432.bench", a
// directory of .bench files) to validated netlist.Circuits, and caches
// the expensive once-per-circuit preparation (fault collapsing, the
// production test program, the strobe-granular coverage ramp) so that
// any number of lots, replicates, or worker goroutines share one
// artifact per circuit. Every cmd resolves circuit names through this
// package; none carries a private resolver.
//
// # Spec grammar
//
//	c17              ISCAS-85 c17 benchmark (6 NAND gates)
//	rca<N>           N-bit ripple-carry adder
//	mul<N>           N×N array multiplier (the paper-scale workload)
//	parity<N>        N-input XOR parity tree
//	dec<N>           N-to-2^N one-hot decoder with enable
//	mux<N>           2^N-to-1 multiplexer tree
//	cmp<N>           N-bit equality comparator
//	cla<N>           N-bit carry-lookahead adder
//	alu<N>           N-bit ALU slice
//	bshift<N>        2^N-bit barrel shifter
//	datapath<N>      N-bit composed datapath
//	rand<seed>       pseudo-random circuit (16 inputs, 400 gates,
//	                 12 outputs), reproducible from the seed
//	lsi<N>           ISCAS'85-class pseudo-random netlist of roughly N
//	                 gates (N >= 100; 1k–10k is the LSI range)
//	lsi1k, lsi4k     embedded .bench fixtures: frozen renderings of
//	                 lsi1000 / lsi4000, pinned byte-for-byte
//	bench:<path>     circuit in ISCAS .bench format; <path> may be a
//	                 file, a directory (expands to every *.bench file
//	                 inside, sorted), or a glob pattern
//	<path>.bench     shorthand for bench:<path>.bench
//
// Every sized family has a fixed cap on N (the max column of builtins,
// printed by List) that keeps each builtin under MaxGates: a larger N
// fails with ErrSpecTooLarge as soon as the spec is expanded, instead
// of exhausting memory when it is built. A .bench file above MaxGates
// fails with ErrSpecTooLarge while it is parsed, before it is validated
// or any simulator state is sized for it.
//
// A spec that names a file or builtin resolves to exactly one circuit;
// a directory or glob spec expands to one circuit per matching .bench
// file. Expand normalizes every spec to such unit specs, which are the
// cache keys of Prepare.
package circuits

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/netlist"
)

// ErrSpecTooLarge reports a builtin spec whose N exceeds its family's
// size cap, or a .bench file with more than MaxGates gates.
var ErrSpecTooLarge = errors.New("circuits: spec exceeds its family's size cap")

// MaxGates is the gate ceiling of every circuit the registry resolves:
// the builtin caps keep each family under it, and a .bench file above
// it is rejected. Per-worker simulator state scales with it — the lot
// engine's good planes hold a word per gate per 64-pattern block.
const MaxGates = 100000

// builtin is one parameterized generator family of the registry.
type builtin struct {
	prefix string
	doc    string
	// max caps N. The sized families' caps keep every builtin under
	// MaxGates; rand's N is a seed, not a size, so it is uncapped.
	max   int
	build func(n int) (*netlist.Circuit, error)
}

// builtins lists every generator family, in the order List prints them.
func builtins() []builtin {
	return []builtin{
		{"rca", "N-bit ripple-carry adder", 8192, netlist.RippleAdder},
		{"mul", "N×N array multiplier (quadratic gate count, LSI-scale)", 128, netlist.ArrayMultiplier},
		{"parity", "N-input XOR parity tree (random-pattern friendly)", 32768, netlist.ParityTree},
		{"dec", "N-to-2^N decoder with enable (random-pattern resistant)", 12, netlist.Decoder},
		{"mux", "2^N-to-1 multiplexer tree", 10, netlist.MuxTree},
		{"cmp", "N-bit equality comparator", 16384, netlist.Comparator},
		{"cla", "N-bit carry-lookahead adder (wide-fanin reconvergent carries)", 16, netlist.CarryLookaheadAdder},
		{"alu", "N-bit ALU slice: AND/OR/XOR/ADD selected by two op bits", 4096, netlist.ALUSlice},
		{"bshift", "2^N-bit logical barrel shifter with N mux stages", 6, netlist.BarrelShifter},
		{"datapath", "N-bit datapath: multiplier and adder feeding an ALU, parity-observed", 8, netlist.Datapath},
		{"rand", "pseudo-random circuit, 16 inputs × 400 gates × 12 outputs, seeded by N", math.MaxInt,
			func(n int) (*netlist.Circuit, error) {
				return netlist.RandomCircuit(fmt.Sprintf("rand%d", n), 16, 400, 12, int64(n))
			}},
		{"lsi", "ISCAS'85-class pseudo-random netlist of ~N gates (1k–10k is the LSI range), N >= 100", 50000,
			netlist.LSIChip},
	}
}

// matchBuiltin finds the generator family whose grammar the spec
// matches and checks N against the family's cap; ok is false when no
// family matches.
func matchBuiltin(spec string) (b builtin, n int, ok bool, err error) {
	for _, b := range builtins() {
		if scan(spec, b.prefix+"%d", &n) {
			if n > b.max {
				return b, n, true, fmt.Errorf("%w: %s (%s<N> takes N <= %d)", ErrSpecTooLarge, spec, b.prefix, b.max)
			}
			return b, n, true, nil
		}
	}
	return builtin{}, 0, false, nil
}

// Resolve maps one unit spec to a validated circuit. Directory and glob
// specs (which may name several circuits) are rejected here; use Expand
// first to normalize them to unit specs.
func Resolve(spec string) (*netlist.Circuit, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("circuits: empty spec")
	}
	if path, ok := benchPath(spec); ok {
		return resolveBenchFile(path)
	}
	if spec == "c17" {
		return netlist.C17(), nil
	}
	if c, ok, err := resolveFixture(spec); ok {
		return c, err
	}
	if b, n, ok, err := matchBuiltin(spec); ok {
		if err != nil {
			return nil, err
		}
		c, err := b.build(n)
		if err != nil {
			return nil, fmt.Errorf("circuits: %s: %w", spec, err)
		}
		return c, nil
	}
	return nil, fmt.Errorf("circuits: unknown spec %q (run with -list-circuits for the grammar)", spec)
}

// Expand normalizes one spec to unit specs: builtins map to themselves,
// bench directories and globs fan out to one "bench:<file>" spec per
// matching .bench file (sorted). A bench spec matching nothing is an
// error, not a silent skip.
func Expand(spec string) ([]string, error) {
	spec = strings.TrimSpace(spec)
	path, ok := benchPath(spec)
	if !ok {
		// Builtin: check the grammar so a typo fails at expansion time.
		// Syntactic only — no synthesis happens until the spec is
		// actually prepared, so expanding (and validating) a large grid
		// costs nothing.
		if err := checkBuiltin(spec); err != nil {
			return nil, err
		}
		return []string{spec}, nil
	}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		path = filepath.Join(path, "*.bench")
	}
	if !strings.ContainsAny(path, "*?[") {
		return []string{"bench:" + path}, nil
	}
	matches, err := filepath.Glob(path)
	if err != nil {
		return nil, fmt.Errorf("circuits: bad glob %q: %w", path, err)
	}
	var units []string
	for _, m := range matches {
		if strings.HasSuffix(m, ".bench") {
			units = append(units, "bench:"+m)
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("circuits: spec %q matches no .bench files", spec)
	}
	sort.Strings(units)
	return units, nil
}

// ExpandAll expands a spec list into a deduplicated, order-preserving
// unit-spec list.
func ExpandAll(specs []string) ([]string, error) {
	var units []string
	seen := make(map[string]bool)
	for _, spec := range specs {
		u, err := Expand(spec)
		if err != nil {
			return nil, err
		}
		for _, unit := range u {
			if !seen[unit] {
				seen[unit] = true
				units = append(units, unit)
			}
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("circuits: no specs given")
	}
	return units, nil
}

// ResolveAll is ExpandAll followed by Resolve on every unit spec.
func ResolveAll(specs []string) ([]*netlist.Circuit, error) {
	units, err := ExpandAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([]*netlist.Circuit, len(units))
	for i, u := range units {
		if out[i], err = Resolve(u); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkBuiltin verifies a non-bench spec against the grammar and the
// family's size cap without synthesizing anything. Other parameter
// errors (a width below what the generator accepts) still surface at
// Resolve time.
func checkBuiltin(spec string) error {
	if spec == "c17" || isFixture(spec) {
		return nil
	}
	if _, _, ok, err := matchBuiltin(spec); ok {
		return err
	}
	return fmt.Errorf("circuits: unknown spec %q (run with -list-circuits for the grammar)", spec)
}

// benchPath reports whether the spec names a .bench source and returns
// the path part: either the explicit "bench:<path>" form or a bare path
// ending in ".bench".
func benchPath(spec string) (string, bool) {
	if rest, ok := strings.CutPrefix(spec, "bench:"); ok {
		return rest, true
	}
	if strings.HasSuffix(spec, ".bench") {
		return spec, true
	}
	return "", false
}

// resolveBenchFile parses one .bench file, which ParseBenchMax also
// validates; a file past MaxGates gates fails with ErrSpecTooLarge as
// soon as the parse reaches its first gate beyond the ceiling.
func resolveBenchFile(path string) (*netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("circuits: %w", err)
	}
	defer f.Close()
	c, err := netlist.ParseBenchMax(path, f, MaxGates)
	if errors.Is(err, netlist.ErrTooManyGates) {
		return nil, fmt.Errorf("%w: %s: %w", ErrSpecTooLarge, path, err)
	}
	if err != nil {
		return nil, fmt.Errorf("circuits: %s: %w", path, err)
	}
	return c, nil
}

// List renders the spec grammar with one example per family, for the
// cmds' -list-circuits flag.
func List() string {
	var sb strings.Builder
	sb.WriteString("workload specs (comma-separable where a flag takes a list):\n")
	sb.WriteString("  c17            ISCAS-85 c17 benchmark (6 NAND gates)\n")
	for _, b := range builtins() {
		fmt.Fprintf(&sb, "  %-14s %s", b.prefix+"<N>", b.doc)
		if b.max < math.MaxInt {
			fmt.Fprintf(&sb, ", N <= %d", b.max)
		}
		sb.WriteString("\n")
	}
	for _, f := range fixtureList() {
		fmt.Fprintf(&sb, "  %-14s %s\n", f.spec, f.doc)
	}
	sb.WriteString("  bench:<path>   ISCAS .bench netlist; a directory or glob expands\n")
	sb.WriteString("                 to every matching *.bench file\n")
	sb.WriteString("  <path>.bench   shorthand for bench:<path>.bench\n")
	sb.WriteString("examples: mul8  cmp16  rand7  bench:c432.bench  bench:circuits/\n")
	return sb.String()
}

func scan(s, format string, n *int) bool {
	matched, err := fmt.Sscanf(s, format, n)
	if err != nil || matched != 1 {
		return false
	}
	// Reject trailing junk Sscanf tolerates ("mul8x" must not parse as
	// mul8): the round-trip must reproduce the spec exactly.
	return fmt.Sprintf(format, *n) == s
}
