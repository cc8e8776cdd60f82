// Command benchjson is the kernel regression gate behind `make
// bench-compare`. It reads the raw `go test -bench` output of two
// builds, the base and the head, each the concatenation of several runs
// that alternated with the other side's on the same host. It pairs rows
// by name, compares each row's median throughput, and fails when any
// head row falls more than 25% below its base. It understands the two
// engine-matrix suites:
//
//	BenchmarkEngines/<row>/<circuit>-P     ... ns/op ... ns/fault-pattern
//	BenchmarkLotEngines/<row>/<circuit>-P  ... ns/op ... chips/s
//
// Usage:
//
//	benchjson [-out bench-current.json] base.txt head.txt
//
// A row on only one side prints as "new" or "gone" and never fails.
// The head medians are written to -out as one row per engine×circuit:
//
//	{
//	  "schema": "bench/v1",
//	  "rows": [
//	    {
//	      "suite": "engines",             // "engines" | "lot-engines"
//	      "engine": "ppsfp",              // benchmark row name, e.g. ppsfp, concurrent, grader
//	      "circuit": "mul8",              // workload name
//	      "iterations": 40,               // benchmark iteration count of one run
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
// Rows keep the order of their first appearance in the head output.
// The checked-in BENCH_PR*.json files use the same schema; they are
// history, and the gate reads none of them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/tablefmt"
)

// bound is the largest fraction by which a row's paired median
// throughput may fall below the base's before the gate fails.
const bound = 0.25

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
	outPath := flag.String("out", "bench-current.json", "write the head medians as a bench/v1 artifact to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-out file] base.txt head.txt")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	failed, err := run(os.Stdout, *outPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d rows more than %.0f%% below base: %s\n",
			len(failed), bound*100, strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// run reads both sides' benchmark output, writes the head medians to
// outPath, prints the paired table to w and returns the rows over the
// bound.
func run(w io.Writer, outPath, basePath, headPath string) ([]string, error) {
	var sides [2][]Row
	for i, path := range []string{basePath, headPath} {
		samples, err := readSamples(path)
		if err != nil {
			return nil, err
		}
		sides[i] = medians(samples)
	}
	data, err := json.MarshalIndent(Report{Schema: "bench/v1", Rows: sides[1]}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return compare(w, sides[0], sides[1])
}

// readSamples parses every engine-matrix line of one side's output.
func readSamples(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if row, ok := parseLine(sc.Text()); ok {
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return rows, nil
}

// key is a row's pairing key: its name.
type key struct{ suite, engine, circuit string }

func keyOf(r Row) key { return key{r.Suite, r.Engine, r.Circuit} }

// medians folds the samples of each row into one row holding the
// median of every timed metric, in order of first appearance. A single
// slow run, which a noisy host produces now and then, moves no median.
func medians(samples []Row) []Row {
	var order []key
	byKey := make(map[key][]Row)
	for _, r := range samples {
		k := keyOf(r)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	out := make([]Row, 0, len(order))
	for _, k := range order {
		rs := byKey[k]
		row := rs[0]
		row.NsPerOp = median(rs, func(r Row) float64 { return r.NsPerOp })
		row.NsPerFaultPattern = median(rs, func(r Row) float64 { return r.NsPerFaultPattern })
		row.FaultPatternsPerSec = 0
		if row.NsPerFaultPattern > 0 {
			row.FaultPatternsPerSec = 1e9 / row.NsPerFaultPattern
		}
		row.ChipsPerSec = median(rs, func(r Row) float64 { return r.ChipsPerSec })
		out = append(out, row)
	}
	return out
}

// median returns the median of one metric over the samples.
func median(rs []Row, metric func(Row) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = metric(r)
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
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

// compare prints the paired table of median throughputs and returns
// the rows, in either suite, whose head median is more than bound
// below the base's. Rows on only one side print as "new" or "gone" and
// never fail: benchmark rows come and go across PRs.
func compare(w io.Writer, base, head []Row) ([]string, error) {
	baseBy := make(map[key]Row, len(base))
	for _, r := range base {
		baseBy[keyOf(r)] = r
	}
	tb := tablefmt.New("suite", "engine", "circuit", "metric", "base", "head", "delta")
	var failed []string
	seen := make(map[key]bool, len(head))
	for _, r := range head {
		k := keyOf(r)
		seen[k] = true
		cur, unit := throughput(r)
		b, ok := baseBy[k]
		if !ok {
			tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit, "-", fmt.Sprintf("%.4g", cur), "new")
			continue
		}
		was, _ := throughput(b)
		delta := (cur - was) / was
		mark := ""
		if -delta > bound {
			mark = "  << over budget"
			failed = append(failed, fmt.Sprintf("%s %s/%s (%+.1f%%)", r.Suite, r.Engine, r.Circuit, delta*100))
		}
		tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit,
			fmt.Sprintf("%.4g", was), fmt.Sprintf("%.4g", cur), fmt.Sprintf("%+.1f%%%s", delta*100, mark))
	}
	for _, r := range base {
		if !seen[keyOf(r)] {
			was, unit := throughput(r)
			tb.AddRowf(r.Suite, r.Engine, r.Circuit, unit, fmt.Sprintf("%.4g", was), "-", "gone")
		}
	}
	return failed, tb.Render(w)
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
