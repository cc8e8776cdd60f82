package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	row, ok := parseLine("BenchmarkEngines/pf256/mul8-4 \t 30\t   1885999 ns/op\t 4064 gates\t 9216 faults\t 256 patterns\t         5.547 ns/fault-pattern")
	if !ok {
		t.Fatal("engines line rejected")
	}
	if row.Suite != "engines" || row.Engine != "pf256" || row.Circuit != "mul8" {
		t.Errorf("row = %+v", row)
	}
	if row.Iterations != 30 || row.NsPerOp != 1885999 || row.NsPerFaultPattern != 5.547 {
		t.Errorf("metrics = %+v", row)
	}
	if want := 1e9 / 5.547; row.FaultPatternsPerSec != want {
		t.Errorf("fault-patterns/s = %g, want %g", row.FaultPatternsPerSec, want)
	}
	if row.Gates != 4064 || row.Faults != 9216 || row.Patterns != 256 {
		t.Errorf("scale metadata = %+v", row)
	}

	// Engine names containing '-' must survive the -P trim.
	row, ok = parseLine("BenchmarkLotEngines/chip-parallel/cmp16-8 \t 5\t 517391 ns/op\t 3865855 chips/s")
	if !ok || row.Engine != "chip-parallel" || row.Circuit != "cmp16" {
		t.Errorf("lot row = %+v ok=%v", row, ok)
	}
	if row.Suite != "lot-engines" || row.ChipsPerSec != 3865855 {
		t.Errorf("lot metrics = %+v", row)
	}

	for _, line := range []string{
		"goos: linux",
		"=== reproduction headlines ===",
		"BenchmarkFig1-4 \t 1 \t 123 ns/op",                 // wrong suite
		"BenchmarkEngines/pf256/mul8-4 \t x \t 123 ns/op",   // bad iteration count
		"BenchmarkEngines/pf256/mul8-4 \t 30 \t junk ns/op", // bad value
		"PASS",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("line accepted: %q", line)
		}
	}
}

// benchOutput renders one side's raw `go test -bench` output: one run
// per entry of runs, each a line per row, as the alternating pairs of
// make bench-compare append them. A row's value is fault-patterns/s
// for the engines suite and chips/s for lot-engines.
func benchOutput(t *testing.T, runs ...map[string]float64) string {
	t.Helper()
	var b strings.Builder
	for _, run := range runs {
		b.WriteString("goos: linux\npkg: repro\n")
		for _, name := range slices.Sorted(maps.Keys(run)) {
			v := run[name]
			if strings.HasPrefix(name, "LotEngines") {
				fmt.Fprintf(&b, "Benchmark%s-2 \t 40\t 1000 ns/op\t %g chips/s\t 4064 gates\n", name, v)
			} else {
				fmt.Fprintf(&b, "Benchmark%s-2 \t 40\t 1000 ns/op\t 4064 gates\t %g ns/fault-pattern\n", name, 1e9/v)
			}
		}
		b.WriteString("PASS\n")
	}
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// with returns a copy of run with row set to v.
func with(run map[string]float64, row string, v float64) map[string]float64 {
	out := maps.Clone(run)
	out[row] = v
	return out
}

// repeat returns n copies of one run.
func repeat(n int, run map[string]float64) []map[string]float64 {
	out := make([]map[string]float64, n)
	for i := range out {
		out[i] = run
	}
	return out
}

// gate runs the paired comparison of base and head into a fresh
// artifact and returns the failing rows, the table and the artifact.
func gate(t *testing.T, base, head []map[string]float64) ([]string, string, Report) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "bench-current.json")
	var table bytes.Buffer
	failed, err := run(&table, out, benchOutput(t, base...), benchOutput(t, head...))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return failed, table.String(), r
}

// TestCompareBudget pins the paired gate: the 25% bound applies to the
// median of both suites, an outlier run moves no median, and rows on
// only one side never fail.
func TestCompareBudget(t *testing.T) {
	base := map[string]float64{"Engines/ppsfp/mul8": 1000, "Engines/grader/lsi1k": 500, "LotEngines/chipparallel256/cmp16": 4e6}

	// One slow run per side moves no median, even when the head's is
	// five times slower than the rest and the base's only a little: a
	// mean over these runs would read the head 40% slower.
	slower := func(frac float64) map[string]float64 {
		run := maps.Clone(base)
		for k := range run {
			run[k] *= frac
		}
		return run
	}
	failed, table, _ := gate(t, append(repeat(4, base), slower(0.8)), append([]map[string]float64{slower(0.2)}, repeat(4, base)...))
	if len(failed) != 0 {
		t.Errorf("an outlier run failed the gate: %v\n%s", failed, table)
	}

	for _, tc := range []struct {
		row  string
		frac float64
		fail bool
	}{
		{"Engines/ppsfp/mul8", 0.7, true},
		{"Engines/ppsfp/mul8", 0.8, false},
		{"LotEngines/chipparallel256/cmp16", 0.7, true},
		{"LotEngines/chipparallel256/cmp16", 0.8, false},
	} {
		head := with(base, tc.row, base[tc.row]*tc.frac)
		failed, table, _ := gate(t, repeat(3, base), repeat(3, head))
		if got := len(failed) == 1; got != tc.fail || len(failed) > 1 {
			t.Errorf("%s at %.0f%% of base: failed rows %v, want fail=%v\n%s", tc.row, tc.frac*100, failed, tc.fail, table)
		}
		if want := fmt.Sprintf("%+.1f%%", (tc.frac-1)*100); !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
		if tc.fail && (!strings.Contains(table, "over budget") || !strings.Contains(failed[0], tc.row[strings.Index(tc.row, "/")+1:])) {
			t.Errorf("failing row not named: %v\n%s", failed, table)
		}
	}

	// A row on only one side prints as new or gone, never fails.
	withRetired := with(base, "Engines/retired/mul8", 100)
	withFresh := with(base, "Engines/fresh/mul8", 1)
	failed, table, _ = gate(t, repeat(3, withRetired), repeat(3, withFresh))
	if len(failed) != 0 {
		t.Errorf("one-sided rows failed the gate: %v\n%s", failed, table)
	}
	for _, want := range []string{"retired", "gone", "fresh", "new"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestReportRoundTrip checks that the written artifact decodes as
// bench/v1 and holds the head's medians, not the base's and not any one
// run's.
func TestReportRoundTrip(t *testing.T) {
	base := map[string]float64{"Engines/ppsfp/mul8": 1e8, "LotEngines/chipparallel256/cmp16": 1e6}
	head := []map[string]float64{
		{"Engines/ppsfp/mul8": 2e8, "LotEngines/chipparallel256/cmp16": 3e6},
		{"Engines/ppsfp/mul8": 1e9, "LotEngines/chipparallel256/cmp16": 2e6},
		{"Engines/ppsfp/mul8": 1e7, "LotEngines/chipparallel256/cmp16": 9e6},
	}
	_, _, r := gate(t, repeat(3, base), head)
	if r.Schema != "bench/v1" {
		t.Errorf("schema %q, want bench/v1", r.Schema)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("artifact rows = %+v, want 2", r.Rows)
	}
	fps, chips := r.Rows[0], r.Rows[1]
	if fps.Suite != "engines" || fps.Engine != "ppsfp" || fps.Circuit != "mul8" || fps.Iterations != 40 || fps.Gates != 4064 {
		t.Errorf("engines row = %+v", fps)
	}
	if got := fps.FaultPatternsPerSec; got < 1.999e8 || got > 2.001e8 {
		t.Errorf("fault-patterns/s = %g, want the head median 2e8", got)
	}
	if chips.Suite != "lot-engines" || chips.ChipsPerSec != 3e6 {
		t.Errorf("lot-engines row = %+v, want the head median 3e6 chips/s", chips)
	}
}
