package circuits

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netlist"
)

func TestResolveBuiltins(t *testing.T) {
	cases := []struct {
		spec   string
		name   string
		inputs int
	}{
		{"c17", "c17", 5},
		{"rca4", "rca4", 9},
		{"mul4", "mul4", 8},
		{"parity8", "parity8", 8},
		{"dec3", "dec3", 4},
		{"mux2", "mux2", 6},
		{"cmp8", "cmp8", 16},
		{"cla4", "cla4", 9},
		{"alu4", "alu4", 10},
		{"bshift2", "bshift2", 6},
		{"datapath4", "datapath4", 14},
		{"rand7", "rand7", 16},
	}
	for _, tc := range cases {
		c, err := Resolve(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if c.Name != tc.name {
			t.Errorf("%s: name %q", tc.spec, c.Name)
		}
		if len(c.Inputs) != tc.inputs {
			t.Errorf("%s: %d inputs, want %d", tc.spec, len(c.Inputs), tc.inputs)
		}
	}
}

func TestResolveRejectsJunk(t *testing.T) {
	for _, spec := range []string{"", "warp9", "mul", "mul8x", "mulx8", "c18", "rand", "bench:/no/such/file.bench"} {
		if _, err := Resolve(spec); err == nil {
			t.Errorf("Resolve(%q) accepted", spec)
		}
	}
	// A width the generator itself rejects surfaces its error.
	if _, err := Resolve("mul1"); err == nil {
		t.Error("mul1 accepted (generator requires width >= 2)")
	}
}

// TestResolveDeterministic is the cross-cmd regression for the resolver
// drift the per-cmd copies used to accumulate: every consumer now
// shares this registry, so one spec must always produce the same
// circuit, bit for bit in its .bench serialization.
func TestResolveDeterministic(t *testing.T) {
	for _, spec := range []string{"c17", "mul4", "cmp8", "rand42", "dec3"} {
		a, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		var wa, wb bytes.Buffer
		if err := a.WriteBench(&wa); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteBench(&wb); err != nil {
			t.Fatal(err)
		}
		if wa.String() != wb.String() {
			t.Errorf("%s: two resolutions differ", spec)
		}
	}
}

func TestResolveBenchFileAndGlobs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.bench", "a.bench"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(netlist.C17Bench), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Noise the directory expansion must ignore.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Explicit file, both spellings.
	path := filepath.Join(dir, "a.bench")
	for _, spec := range []string{"bench:" + path, path} {
		c, err := Resolve(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(c.Inputs) != 5 || len(c.Outputs) != 2 {
			t.Errorf("%s: got %d inputs, %d outputs", spec, len(c.Inputs), len(c.Outputs))
		}
	}

	// Directory and glob specs expand to sorted unit specs.
	for _, spec := range []string{"bench:" + dir, "bench:" + filepath.Join(dir, "*.bench")} {
		units, err := Expand(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want := []string{"bench:" + filepath.Join(dir, "a.bench"), "bench:" + filepath.Join(dir, "b.bench")}
		if len(units) != 2 || units[0] != want[0] || units[1] != want[1] {
			t.Errorf("%s: units %v, want %v", spec, units, want)
		}
	}

	// A glob matching nothing is an error, not a silent empty axis.
	if _, err := Expand("bench:" + filepath.Join(dir, "none*.bench")); err == nil {
		t.Error("empty glob accepted")
	}
	// Unit specs are rejected by Resolve when they still hold a glob.
	if _, err := Resolve("bench:" + filepath.Join(dir, "*.bench")); err == nil {
		t.Error("Resolve accepted a glob spec")
	}
}

// TestResolveBenchFileGateCap pins the .bench gate ceiling: a file of
// MaxGates+1 gates is rejected with ErrSpecTooLarge before validation
// (the file declares no outputs, which Validate would reject), while a
// file at the ceiling gets past the cap to Validate's own error.
func TestResolveBenchFileGateCap(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gates int) string {
		var sb strings.Builder
		sb.WriteString("INPUT(a)\nINPUT(b)\n")
		for i := 2; i < gates; i++ {
			fmt.Fprintf(&sb, "g%d = NAND(a, b)\n", i)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := Resolve(write("over.bench", MaxGates+1)); !errors.Is(err, ErrSpecTooLarge) {
		t.Errorf("%d-gate .bench file error %v, want ErrSpecTooLarge", MaxGates+1, err)
	}
	if _, err := Resolve(write("at.bench", MaxGates)); err == nil || errors.Is(err, ErrSpecTooLarge) {
		t.Errorf("%d-gate .bench file error %v, want Validate's missing-output error", MaxGates, err)
	}
}

func TestExpandAllDeduplicates(t *testing.T) {
	units, err := ExpandAll([]string{"mul4", "cmp8", "mul4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 || units[0] != "mul4" || units[1] != "cmp8" {
		t.Errorf("units %v", units)
	}
	if _, err := ExpandAll(nil); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := ExpandAll([]string{"warp9"}); err == nil {
		t.Error("unknown spec accepted at expansion")
	}
	cs, err := ResolveAll([]string{"mul4", "c17"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "mul4" || cs[1].Name != "c17" {
		t.Errorf("ResolveAll: %v", cs)
	}
}

func TestListCoversGrammar(t *testing.T) {
	l := List()
	for _, want := range []string{"c17", "rca<N>", "mul<N>", "parity<N>", "dec<N>", "mux<N>", "cmp<N>", "cla<N>", "alu<N>", "bshift<N>", "datapath<N>", "rand<N>", "bench:<path>", ".bench"} {
		if !strings.Contains(l, want) {
			t.Errorf("List() missing %q", want)
		}
	}
}

// The second half of the cross-cmd regression — no cmd may synthesize
// circuits directly from netlist generators — used to live here as
// TestNoPrivateResolverInCmds, a regexp scan over cmd/ sources with a
// hand-maintained generator list. It is now enforced type-based and
// repo-wide by the repolint registry analyzer (internal/lint), which
// bans any call outside this package to a package-level netlist
// function returning *netlist.Circuit, so the ban list cannot drift.

// TestBuiltinSizeCaps pins the per-family size caps: N at the cap
// builds (so a cap never promises a circuit its generator refuses),
// N one past it is refused by Expand and Resolve alike with the named
// error, before anything is synthesized.
func TestBuiltinSizeCaps(t *testing.T) {
	for _, b := range builtins() {
		if b.max == math.MaxInt {
			continue // rand: N is a seed
		}
		at := fmt.Sprintf("%s%d", b.prefix, b.max)
		if _, err := Expand(at); err != nil {
			t.Errorf("Expand(%s): %v", at, err)
		}
		if !testing.Short() {
			c, err := Resolve(at)
			if err != nil {
				t.Errorf("Resolve(%s): %v", at, err)
			} else if len(c.Gates) > MaxGates {
				t.Errorf("%s has %d gates, above MaxGates (%d)", at, len(c.Gates), MaxGates)
			}
		}
		over := fmt.Sprintf("%s%d", b.prefix, b.max+1)
		for _, spec := range []string{over, b.prefix + "400000000"} {
			if _, err := Expand(spec); !errors.Is(err, ErrSpecTooLarge) {
				t.Errorf("Expand(%s) error %v, want ErrSpecTooLarge", spec, err)
			}
			if _, err := Resolve(spec); !errors.Is(err, ErrSpecTooLarge) {
				t.Errorf("Resolve(%s) error %v, want ErrSpecTooLarge", spec, err)
			}
		}
	}
}
