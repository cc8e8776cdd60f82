package repro

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/tester"
)

// TestReadmeMatchesRegistries keeps README's engine documentation in
// step with the code: both engine tables list exactly the registered
// engines, the engine-count words (singular or plural) and the lane
// ceiling match, and every -engine/-lotengine example names a
// registered engine.
func TestReadmeMatchesRegistries(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(src)

	var engines, lotEngines []string
	for _, e := range faultsim.Engines() {
		engines = append(engines, e.String())
	}
	for _, e := range tester.LotEngines() {
		lotEngines = append(lotEngines, e.String())
	}
	if got := tableNames(t, readme, "| engine |"); !sameSet(got, engines) {
		t.Errorf("README fault-simulation engine table lists %v, registry has %v", got, engines)
	}
	if got := tableNames(t, readme, "| lot engine |"); !sameSet(got, lotEngines) {
		t.Errorf("README lot-engine table lists %v, registry has %v", got, lotEngines)
	}

	counts := []string{"zero", "one", "two", "three", "four", "five", "six"}
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`(\w+)-engine\s+fault simulator`),
		regexp.MustCompile(`registers\s+(\w+)\s+engines?\b`),
	} {
		ms := re.FindAllStringSubmatch(readme, -1)
		if len(ms) == 0 {
			t.Errorf("README has no %q phrase", re)
		}
		for _, m := range ms {
			if m[1] != counts[len(engines)] {
				t.Errorf("README says %q; the registry has %d engines", m[0], len(engines))
			}
		}
	}

	lanes := regexp.MustCompile(`up-to-(\d+)-lane`).FindAllStringSubmatch(readme, -1)
	if len(lanes) == 0 {
		t.Error("README states no up-to-N-lane ceiling")
	}
	for _, m := range lanes {
		if want := fmt.Sprint(64 * logicsim.MaxLaneWords); m[1] != want {
			t.Errorf("README says %q; MaxLaneWords allows %s lanes", m[0], want)
		}
	}

	for _, m := range regexp.MustCompile(`-(lot)?engine ([a-z0-9-]+)`).FindAllStringSubmatch(readme, -1) {
		if m[1] == "" {
			_, err = faultsim.ParseEngine(m[2])
		} else {
			_, err = tester.ParseLotEngine(m[2])
		}
		if err != nil {
			t.Errorf("README example %q: %v", m[0], err)
		}
	}
}

// tableNames returns the backquoted name in the first cell of each row
// of the markdown table whose header line starts with header.
func tableNames(t *testing.T, doc, header string) []string {
	t.Helper()
	start := strings.Index(doc, "\n"+header)
	if start < 0 {
		t.Fatalf("README has no table headed %q", header)
	}
	lines := strings.Split(doc[start+1:], "\n")
	cell := regexp.MustCompile("^\\| `([^`]+)`")
	var names []string
	for _, line := range lines[2:] { // skip the header and its rule
		if !strings.HasPrefix(line, "|") {
			break
		}
		m := cell.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("README %q row without a backquoted name: %q", header, line)
		}
		names = append(names, m[1])
	}
	return names
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
