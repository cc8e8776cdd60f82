package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesReport checks that the repository's
// BENCHMARK.json names exactly the workloads and metrics this harness
// runs and prints, with the same units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if !sameSet(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, have)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		t.Helper()
		var got []string
		for _, m := range listed {
			got = append(got, m.Name)
			if p, ok := printed[m.Name]; ok && p.Unit != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, harness prints %q", kind, m.Name, m.Unit, p.Unit)
			}
		}
		var want []string
		for k := range printed {
			want = append(want, k)
		}
		if !sameSet(got, want) {
			t.Errorf("%s metrics in BENCHMARK.json %v, harness prints %v", kind, got, want)
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndMetrics([]runResult{{SetupS: 1, HeapMB: 1, CampaignS: []float64{1}, Chips: 1}}))
	empty := traceResult{Sums: map[string]float64{}, Lots: map[string][]float64{}}
	check("per_layer", bench.PerLayer, layerMetrics(empty, 1, 1, 1, 1))
}

// TestPinnedDigestsNameWorkloads keeps the pinned table in step with
// the workload list.
func TestPinnedDigestsNameWorkloads(t *testing.T) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for name, seeds := range pins {
		if _, err := lookupWorkload(name); err != nil {
			t.Errorf("pinned digests for unknown workload %q", name)
		}
		for seed, d := range seeds {
			if len(d) != 16 {
				t.Errorf("%s seed %s: digest %q is not 16 hex digits", name, seed, d)
			}
		}
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
