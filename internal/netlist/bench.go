package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads a circuit in the ISCAS ".bench" format:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)
//
// Output declarations may precede the definition of the named gate, as
// they do in the published ISCAS benchmark files.
//
// The parser is sized for LSI-scale files: the whole source is read
// once, the gate table and name index are pre-sized from a line count,
// and per-line work allocates nothing beyond the gates themselves (no
// scanner buffers, no case-folded copies, no per-gate fanin slices),
// so a 10k-gate netlist loads in milliseconds.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return ParseBenchMax(name, r, 0)
}

// ErrTooManyGates reports a .bench source declaring more gates than the
// ceiling ParseBenchMax was given.
var ErrTooManyGates = errors.New("netlist: bench source exceeds the gate ceiling")

// ParseBenchMax is ParseBench with a gate ceiling: a source declaring
// more than maxGates gates (inputs included) fails with ErrTooManyGates
// at the first gate past it, before outputs are marked or the circuit
// is validated. maxGates <= 0 means no ceiling.
func ParseBenchMax(name string, r io.Reader, maxGates int) (*Circuit, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("netlist: reading bench: %w", err)
	}
	src := string(data)
	size := strings.Count(src, "\n") + 1
	if maxGates > 0 {
		size = min(size, maxGates+1)
	}
	c := NewSized(name, size)
	var outputs []string
	var args []string // reused across gate lines; AddGate copies out of it
	lineNo := 0
	for len(src) > 0 {
		lineNo++
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		// Strip inline comments before any parsing: "INPUT(G1) # pad 4"
		// declares G1, and the comment text must never leak into names.
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT("):
			arg, err := parseUnary(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
			}
			if _, err := c.AddGate(arg, Input); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
			}
		case hasPrefixFold(line, "OUTPUT("):
			arg, err := parseUnary(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			var lhs string
			var t GateType
			lhs, t, args, err = parseAssignment(line, args[:0])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
			}
			if _, err := c.AddGate(lhs, t, args...); err != nil {
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
			}
		}
		if maxGates > 0 && len(c.Gates) > maxGates {
			return nil, fmt.Errorf("netlist: line %d: %w of %d", lineNo, ErrTooManyGates, maxGates)
		}
	}
	for _, o := range outputs {
		if err := c.MarkOutput(o); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// hasPrefixFold reports whether s begins with the ASCII-uppercase
// prefix, ignoring the case of s — the allocation-free replacement for
// HasPrefix(ToUpper(s), prefix) on the two declaration keywords.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		ch := s[i]
		if ch >= 'a' && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != prefix[i] {
			return false
		}
	}
	return true
}

// parseUnary extracts X from "KEYWORD(X)". The first closing paren
// ends the declaration; anything after it is an error rather than
// silently becoming part of the name.
func parseUnary(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.IndexByte(line, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	if rest := strings.TrimSpace(line[close+1:]); rest != "" {
		return "", fmt.Errorf("trailing %q after declaration %q", rest, line[:close+1])
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if arg == "" {
		return "", fmt.Errorf("empty name in %q", line)
	}
	return arg, nil
}

// parseAssignment parses "G10 = NAND(G1, G3)". Fanin names are
// appended to args (pass a reused buffer truncated to zero; the
// returned slice aliases it).
func parseAssignment(line string, args []string) (lhs string, t GateType, _ []string, err error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return "", 0, nil, fmt.Errorf("malformed gate line %q", line)
	}
	lhs = strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close := strings.IndexByte(rhs, ')')
	if open < 0 || close < open {
		return "", 0, nil, fmt.Errorf("malformed gate expression %q", rhs)
	}
	if rest := strings.TrimSpace(rhs[close+1:]); rest != "" {
		return "", 0, nil, fmt.Errorf("trailing %q after gate expression %q", rest, rhs[:close+1])
	}
	t, err = ParseGateType(strings.ToUpper(strings.TrimSpace(rhs[:open])))
	if err != nil {
		return "", 0, nil, err
	}
	// Walk the comma-separated fanin list in place: a Split here is one
	// slice allocation per gate line, the parse loop's dominant churn.
	for rest, more := rhs[open+1:close], true; more; {
		var a string
		if i := strings.IndexByte(rest, ','); i >= 0 {
			a, rest = rest[:i], rest[i+1:]
		} else {
			a, more = rest, false
		}
		a = strings.TrimSpace(a)
		if a == "" {
			return "", 0, nil, fmt.Errorf("empty fanin in %q", rhs)
		}
		args = append(args, a)
	}
	return lhs, t, args, nil
}

// WriteBench writes the circuit in .bench format. Gates appear in
// topological order so the output re-parses without forward
// references.
func (c *Circuit) WriteBench(w io.Writer) error {
	order, err := c.Order()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", len(c.Inputs), len(c.Outputs), len(c.Gates))
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type == Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// RoundTrip serializes and re-parses the circuit; used by tests and as
// a structural canonicalizer.
func (c *Circuit) RoundTrip() (*Circuit, error) {
	var sb strings.Builder
	if err := c.WriteBench(&sb); err != nil {
		return nil, err
	}
	return ParseBench(c.Name, strings.NewReader(sb.String()))
}

// SortedNames returns all gate names sorted; a convenience for
// deterministic diagnostics.
func (c *Circuit) SortedNames() []string {
	names := make([]string, 0, len(c.Gates))
	for _, g := range c.Gates {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}
