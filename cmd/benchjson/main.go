// Command benchjson converts `go test -bench` output on stdin into the
// JSON benchmark artifact CI archives (bench-current.json, written by
// `make bench-json`) and compares two artifacts. It understands the two
// engine-matrix suites:
//
//	BenchmarkEngines/<engine>/<circuit>-P     ... ns/op ... ns/fault-pattern
//	BenchmarkLotEngines/<engine>/<circuit>-P  ... ns/op ... chips/s
//
// and emits one row per benchmark line:
//
//	{
//	  "schema": "bench/v1",
//	  "rows": [
//	    {
//	      "suite": "engines",             // "engines" | "lot-engines"
//	      "engine": "ppsfp",              // registry name, e.g. serial, ppsfp, concurrent
//	      "circuit": "mul8",              // workload name
//	      "iterations": 30,               // benchmark iteration count
//	      "ns_per_op": 1885999,           // one op = one full run over the workload
//	      "ns_per_fault_pattern": 5.54,   // engines suite only
//	      "fault_patterns_per_sec": 1.8e8,// 1e9 / ns_per_fault_pattern
//	      "chips_per_sec": 1342801,       // lot-engines suite only
//	      "gates": 4064,                  // circuit scale at measurement
//	      "faults": 9216,                 // time, when the suite reports
//	      "patterns": 256                 // it (metadata, never compared)
//	    }, ...
//	  ]
//	}
//
// Rows keep input order (the registries' stable engine order). Usage:
//
//	go test -run '^$' -bench 'BenchmarkEngines|BenchmarkLotEngines' . | benchjson > bench-current.json
//	go test ... -bench ... | benchjson -out bench-current.json -baseline BENCH_PR9.json
//	benchjson -in bench-current.json -baseline BENCH_PR9.json -fail-over 25
//
// With -baseline, a per-row comparison table (throughput delta % per
// engine×circuit) is printed; -fail-over N exits non-zero when any
// `engines`-suite row's fault_patterns_per_sec regresses by more than
// N% against the baseline (other suites and smaller slips only warn —
// CI runners are noisy). -in reads a previously written artifact
// instead of parsing benchmark output on stdin.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/tablefmt"
)

// Row is one engine×circuit measurement. Zero-valued metrics are
// omitted: engines rows have no chips/s, lot-engines rows have no
// fault-pattern metrics.
type Row struct {
	Suite               string  `json:"suite"`
	Engine              string  `json:"engine"`
	Circuit             string  `json:"circuit"`
	Iterations          int     `json:"iterations"`
	NsPerOp             float64 `json:"ns_per_op"`
	NsPerFaultPattern   float64 `json:"ns_per_fault_pattern,omitempty"`
	FaultPatternsPerSec float64 `json:"fault_patterns_per_sec,omitempty"`
	ChipsPerSec         float64 `json:"chips_per_sec,omitempty"`
	// Circuit scale at measurement time: workload generators evolve
	// across PRs, and a throughput delta on a circuit that doubled in
	// size is not a regression. Zero when the suite predates the
	// metrics.
	Gates    int `json:"gates,omitempty"`
	Faults   int `json:"faults,omitempty"`
	Patterns int `json:"patterns,omitempty"`
}

// Report is the artifact's top level; Schema names the layout so later
// PRs can evolve it without breaking downstream readers.
type Report struct {
	Schema string `json:"schema"`
	Rows   []Row  `json:"rows"`
}

// suites maps the benchmark function prefix to the suite tag.
var suites = map[string]string{
	"BenchmarkEngines":    "engines",
	"BenchmarkLotEngines": "lot-engines",
}

func main() {
	var (
		inPath       = flag.String("in", "", "read a bench/v1 artifact instead of parsing benchmark output on stdin")
		outPath      = flag.String("out", "", "write the artifact to this file instead of stdout")
		baselinePath = flag.String("baseline", "", "bench/v1 artifact to compare against (prints a delta table)")
		failOver     = flag.Float64("fail-over", 0, "exit non-zero when an engines-suite fault_patterns_per_sec regression exceeds this percentage (0 = never fail)")
	)
	flag.Parse()
	report, err := currentReport(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	jsonOnStdout := false
	switch {
	case *outPath != "":
		if err := writeReport(*outPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	case *inPath == "":
		// Classic pipe mode: the artifact goes to stdout.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		jsonOnStdout = true
	}
	if *baselinePath == "" {
		return
	}
	baseline, err := readReport(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// The table shares stdout with nothing unless the artifact went
	// there; then it moves to stderr so `> BENCH.json` stays clean.
	dst := io.Writer(os.Stdout)
	if jsonOnStdout {
		dst = os.Stderr
	}
	worst, err := compare(dst, baseline, report, *failOver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *failOver > 0 && worst > *failOver {
		fmt.Fprintf(os.Stderr, "benchjson: engines-suite throughput regressed %.1f%% (> %.0f%% budget)\n", worst, *failOver)
		os.Exit(1)
	}
}

// currentReport builds the report under test: from a previously written
// artifact when inPath is set, else by parsing benchmark output on
// stdin.
func currentReport(inPath string) (Report, error) {
	if inPath != "" {
		return readReport(inPath)
	}
	report := Report{Schema: "bench/v1"}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if row, ok := parseLine(sc.Text()); ok {
			report.Rows = append(report.Rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	if len(report.Rows) == 0 {
		return Report{}, fmt.Errorf("no benchmark lines on stdin")
	}
	return report, nil
}

// readReport loads and validates a bench/v1 artifact.
func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "bench/v1" {
		return Report{}, fmt.Errorf("%s: schema %q, want bench/v1", path, r.Schema)
	}
	return r, nil
}

// writeReport writes the artifact to a file.
func writeReport(path string, r Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// throughput returns the suite's headline rate metric: the comparison
// always runs on throughput (higher = better), never on raw ns/op,
// whose per-op workload can legitimately change between PRs.
func throughput(r Row) (float64, string) {
	if r.Suite == "lot-engines" {
		return r.ChipsPerSec, "chips/s"
	}
	return r.FaultPatternsPerSec, "fault-patterns/s"
}

// compare prints the per-row delta table and returns the worst
// engines-suite throughput regression in percent (0 when nothing
// regressed). Rows present on only one side are listed but never fail
// the budget — engines come and go across PRs.
func compare(w io.Writer, baseline, current Report, budget float64) (float64, error) {
	type key struct{ suite, engine, circuit string }
	base := make(map[key]Row, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[key{r.Suite, r.Engine, r.Circuit}] = r
	}
	tb := tablefmt.New("suite", "engine", "circuit", "metric", "baseline", "current", "delta")
	worst := 0.0
	seen := make(map[key]bool, len(current.Rows))
	for _, r := range current.Rows {
		k := key{r.Suite, r.Engine, r.Circuit}
		seen[k] = true
		cur, unit := throughput(r)
		b, ok := base[k]
		if !ok {
			tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit, "-", fmt.Sprintf("%.4g", cur), "new")
			continue
		}
		was, _ := throughput(b)
		if was <= 0 || cur <= 0 {
			tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit, fmt.Sprintf("%.4g", was), fmt.Sprintf("%.4g", cur), "n/a")
			continue
		}
		delta := (cur - was) / was * 100
		mark := ""
		if r.Suite == "engines" && budget > 0 && -delta > budget {
			mark = "  << over budget"
			if -delta > worst {
				worst = -delta
			}
		}
		tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit,
			fmt.Sprintf("%.4g", was), fmt.Sprintf("%.4g", cur), fmt.Sprintf("%+.1f%%%s", delta, mark))
	}
	for _, r := range baseline.Rows {
		k := key{r.Suite, r.Engine, r.Circuit}
		if !seen[k] {
			was, unit := throughput(r)
			tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit, fmt.Sprintf("%.4g", was), "-", "gone")
		}
	}
	return worst, tb.Render(w)
}

// parseLine extracts a Row from one `go test -bench` result line, or
// reports false for headers, headlines, and unrelated benchmarks.
func parseLine(line string) (Row, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Row{}, false
	}
	// Name: BenchmarkEngines/<engine>/<circuit>-P. Engine names may
	// contain '-' (the retired ppsfp-full and chip-parallel rows of the
	// checked-in records do), so only the final -P is trimmed.
	parts := strings.Split(fields[0], "/")
	if len(parts) != 3 {
		return Row{}, false
	}
	suite, ok := suites[parts[0]]
	if !ok {
		return Row{}, false
	}
	circuit := parts[2]
	if i := strings.LastIndex(circuit, "-"); i > 0 {
		circuit = circuit[:i]
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Row{}, false
	}
	row := Row{Suite: suite, Engine: parts[1], Circuit: circuit, Iterations: iters}
	// Remaining fields are (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Row{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			row.NsPerOp = v
		case "ns/fault-pattern":
			row.NsPerFaultPattern = v
			if v > 0 {
				row.FaultPatternsPerSec = 1e9 / v
			}
		case "chips/s":
			row.ChipsPerSec = v
		case "gates":
			row.Gates = int(v)
		case "faults":
			row.Faults = int(v)
		case "patterns":
			row.Patterns = int(v)
		}
	}
	return row, true
}
