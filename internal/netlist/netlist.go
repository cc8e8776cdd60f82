// Package netlist represents gate-level combinational circuits: the
// substrate on which fault lists are built, tests are generated, and
// fault coverage is measured. Circuits can be parsed from the ISCAS
// ".bench" format, written back out, synthesized by the generators in
// this package, levelized for simulation, and validated.
package netlist

import (
	"fmt"
	"sort"
)

// GateType enumerates the supported combinational primitives.
type GateType int

// Gate types. Input marks a primary input; the remaining types are
// logic primitives with one or more fanins.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
)

var gateTypeNames = map[GateType]string{
	Input: "INPUT",
	Buf:   "BUF",
	Not:   "NOT",
	And:   "AND",
	Nand:  "NAND",
	Or:    "OR",
	Nor:   "NOR",
	Xor:   "XOR",
	Xnor:  "XNOR",
}

// String returns the bench-format keyword for the gate type.
func (t GateType) String() string {
	if s, ok := gateTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// ParseGateType converts a bench keyword (upper case) to a GateType.
func ParseGateType(s string) (GateType, error) {
	for t, name := range gateTypeNames {
		if name == s {
			return t, nil
		}
	}
	// Common bench aliases.
	switch s {
	case "BUFF":
		return Buf, nil
	case "INV":
		return Not, nil
	}
	return 0, fmt.Errorf("netlist: unknown gate type %q", s)
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input:
		return 0
	case Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (0 = unlimited).
func (t GateType) MaxFanin() int {
	switch t {
	case Input:
		return 0
	case Buf, Not:
		return 1
	default:
		return 0
	}
}

// Gate is one node of the circuit graph. Gates are identified by dense
// integer IDs (their index in Circuit.Gates); names are preserved for
// I/O and diagnostics.
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int // gate IDs driving this gate, in pin order
	Fanout []int // gate IDs driven by this gate
}

// Circuit is a combinational gate-level netlist.
type Circuit struct {
	Name    string
	Gates   []Gate
	Inputs  []int // gate IDs of primary inputs, in declaration order
	Outputs []int // gate IDs of primary outputs, in declaration order

	byName map[string]int
	level  []int // per-gate level (inputs at 0); nil until Levelize
	order  []int // topological evaluation order; nil until Levelize

	// simCache is an opaque slot for simulator-derived precomputation
	// over the current structure (e.g. fault-site output cones). Like
	// the levelization caches above it is dropped on every mutation, so
	// holders can trust whatever they stored still describes the
	// circuit. Not synchronized: build caches before sharing a circuit
	// across goroutines.
	simCache any
}

// SimCache returns the opaque simulator cache slot (nil after any
// mutation).
func (c *Circuit) SimCache() any { return c.simCache }

// SetSimCache stores simulator-derived precomputation; it is discarded
// automatically when the circuit is mutated.
func (c *Circuit) SetSimCache(v any) { c.simCache = v }

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// NewSized is New with a capacity hint for the expected gate count, so
// bulk builders (ParseBench, the LSI-scale generators) pay one
// allocation for the gate table and name index instead of O(log n)
// growth-and-rehash cycles.
func NewSized(name string, gates int) *Circuit {
	if gates < 0 {
		gates = 0
	}
	return &Circuit{
		Name:   name,
		Gates:  make([]Gate, 0, gates),
		byName: make(map[string]int, gates),
	}
}

// AddGate appends a gate with the given name, type, and fanin names.
// Fanin gates must already exist. It returns the new gate's ID.
func (c *Circuit) AddGate(name string, t GateType, fanin ...string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("netlist: empty gate name")
	}
	if _, dup := c.byName[name]; dup {
		return 0, fmt.Errorf("netlist: duplicate gate name %q", name)
	}
	if min := t.MinFanin(); len(fanin) < min {
		return 0, fmt.Errorf("netlist: gate %q type %v needs at least %d fanins, got %d", name, t, min, len(fanin))
	}
	if max := t.MaxFanin(); max > 0 && len(fanin) > max {
		return 0, fmt.Errorf("netlist: gate %q type %v allows at most %d fanins, got %d", name, t, max, len(fanin))
	}
	ids := make([]int, len(fanin))
	for i, fn := range fanin {
		id, ok := c.byName[fn]
		if !ok {
			return 0, fmt.Errorf("netlist: gate %q references undefined fanin %q", name, fn)
		}
		ids[i] = id
	}
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{ID: id, Name: name, Type: t, Fanin: ids})
	c.byName[name] = id
	for _, fid := range ids {
		c.Gates[fid].Fanout = append(c.Gates[fid].Fanout, id)
	}
	if t == Input {
		c.Inputs = append(c.Inputs, id)
	}
	c.invalidate()
	return id, nil
}

// MarkOutput declares the named gate a primary output.
func (c *Circuit) MarkOutput(name string) error {
	id, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("netlist: output %q is not a defined gate", name)
	}
	for _, o := range c.Outputs {
		if o == id {
			return fmt.Errorf("netlist: gate %q already marked as output", name)
		}
	}
	c.Outputs = append(c.Outputs, id)
	// Levelization ignores outputs, but simulator caches (e.g. cone
	// reachable-output sets) do not — drop them too.
	c.invalidate()
	return nil
}

// GateByName returns the gate ID for name.
func (c *Circuit) GateByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// invalidate drops cached levelization and simulator caches after a
// mutation.
func (c *Circuit) invalidate() {
	c.level = nil
	c.order = nil
	c.simCache = nil
}

// Levelize computes gate levels (longest distance from any primary
// input) and a topological evaluation order. It fails on combinational
// loops. Calling it repeatedly is cheap once computed.
func (c *Circuit) Levelize() error {
	if c.order != nil {
		return nil
	}
	n := len(c.Gates)
	indeg := make([]int, n)
	for i := range c.Gates {
		indeg[i] = len(c.Gates[i].Fanin)
	}
	level := make([]int, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, out := range c.Gates[id].Fanout {
			if l := level[id] + 1; l > level[out] {
				level[out] = l
			}
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("netlist: circuit %q contains a combinational loop (%d of %d gates orderable)",
			c.Name, len(order), n)
	}
	c.level = level
	c.order = order
	return nil
}

// Order returns the topological evaluation order, levelizing on demand.
func (c *Circuit) Order() ([]int, error) {
	if err := c.Levelize(); err != nil {
		return nil, err
	}
	return c.order, nil
}

// Depth returns the maximum gate level (critical path length in gates).
func (c *Circuit) Depth() (int, error) {
	if err := c.Levelize(); err != nil {
		return 0, err
	}
	max := 0
	for _, l := range c.level {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// Validate checks structural sanity: every non-input gate has fanin,
// outputs are defined, names are consistent, fanin/fanout agree, and
// the circuit is acyclic.
func (c *Circuit) Validate() error {
	if len(c.Inputs) == 0 {
		return fmt.Errorf("netlist: circuit %q has no primary inputs", c.Name)
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("netlist: circuit %q has no primary outputs", c.Name)
	}
	for i, g := range c.Gates {
		if g.ID != i {
			return fmt.Errorf("netlist: gate %q has ID %d at index %d", g.Name, g.ID, i)
		}
		if got, ok := c.byName[g.Name]; !ok || got != i {
			return fmt.Errorf("netlist: name index inconsistent for %q", g.Name)
		}
		if g.Type == Input && len(g.Fanin) != 0 {
			return fmt.Errorf("netlist: input %q has fanin", g.Name)
		}
		if g.Type != Input && len(g.Fanin) < g.Type.MinFanin() {
			return fmt.Errorf("netlist: gate %q has %d fanins, needs %d", g.Name, len(g.Fanin), g.Type.MinFanin())
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("netlist: gate %q fanin %d out of range", g.Name, f)
			}
			found := false
			for _, fo := range c.Gates[f].Fanout {
				if fo == i {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: fanout of %q missing back-edge to %q", c.Gates[f].Name, g.Name)
			}
		}
	}
	return c.Levelize()
}

// Stats summarizes a circuit for reports.
type Stats struct {
	Gates      int
	Inputs     int
	Outputs    int
	Depth      int
	FanoutStem int            // gates with fanout > 1 (checkpoint branches)
	ByType     map[string]int // gate count per type keyword
}

// Stats computes summary statistics.
func (c *Circuit) ComputeStats() (Stats, error) {
	depth, err := c.Depth()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Gates:   len(c.Gates),
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Depth:   depth,
		ByType:  make(map[string]int),
	}
	for _, g := range c.Gates {
		s.ByType[g.Type.String()]++
		if len(g.Fanout) > 1 {
			s.FanoutStem++
		}
	}
	return s, nil
}

// String renders the stats compactly with deterministic type order.
func (s Stats) String() string {
	types := make([]string, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	out := fmt.Sprintf("gates=%d inputs=%d outputs=%d depth=%d fanoutStems=%d",
		s.Gates, s.Inputs, s.Outputs, s.Depth, s.FanoutStem)
	for _, t := range types {
		out += fmt.Sprintf(" %s=%d", t, s.ByType[t])
	}
	return out
}
