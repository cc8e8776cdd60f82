package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches type-checked packages (including the stdlib)
// across fixture tests; fixtures are cheap once their imports are
// warm.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixturePass(t *testing.T, rel string) *Pass {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	return pkg.Pass(loader.Fset)
}

var wantRe = regexp.MustCompile(`// want ([a-z-]+)`)

// wantFindings scans the fixture package's files for trailing
// "// want <analyzer>" comments and returns the expected
// file:line:analyzer keys.
func wantFindings(t *testing.T, p *Pass) []string {
	t.Helper()
	var want []string
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				want = append(want, fmt.Sprintf("%s:%d:%s", name, line, m[1]))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		fh.Close()
	}
	sort.Strings(want)
	return want
}

// checkFixture runs the analyzer over the fixture dir and compares the
// findings against the // want comments (none means the analyzer must
// be silent).
func checkFixture(t *testing.T, analyzer, rel string) {
	t.Helper()
	a, ok := Lookup(analyzer)
	if !ok {
		t.Fatalf("no analyzer %q", analyzer)
	}
	p := fixturePass(t, rel)
	want := wantFindings(t, p)
	var got []string
	for _, f := range a.Run(p) {
		got = append(got, fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Analyzer))
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s over %s:\n got: %v\nwant: %v", analyzer, rel, got, want)
	}
}

func TestDeterminismFixtures(t *testing.T) {
	checkFixture(t, "determinism", "determinism/bad/internal/sweep")
	checkFixture(t, "determinism", "determinism/good/internal/sweep")
	checkFixture(t, "determinism", "determinism/unscoped")
}

func TestRegistryFixtures(t *testing.T) {
	checkFixture(t, "registry", "registry/bad")
	checkFixture(t, "registry", "registry/good")
	checkFixture(t, "registry", "registry/exempt/internal/circuits")
}

func TestInvalidationFixtures(t *testing.T) {
	checkFixture(t, "invalidation", "invalidation/bad/netlist")
	checkFixture(t, "invalidation", "invalidation/good/netlist")
}

func TestHotpathFixtures(t *testing.T) {
	checkFixture(t, "hotpath", "hotpath/bad")
	checkFixture(t, "hotpath", "hotpath/good")
}

func TestSentinelFixtures(t *testing.T) {
	checkFixture(t, "sentinel-errors", "sentinel/bad")
	checkFixture(t, "sentinel-errors", "sentinel/good")
}

func TestOracleFixtures(t *testing.T) {
	checkFixture(t, "oracle", "oracle/bad")
	checkFixture(t, "oracle", "oracle/good")
}

// TestAnalyzerTable pins the registry: stable names (they are CLI
// keys), docs, and Lookup round-trips.
func TestAnalyzerTable(t *testing.T) {
	wantNames := []string{"determinism", "registry", "invalidation", "hotpath", "sentinel-errors", "oracle"}
	all := All()
	if len(all) != len(wantNames) {
		t.Fatalf("%d analyzers, want %d", len(all), len(wantNames))
	}
	for i, a := range all {
		if a.Name != wantNames[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" {
			t.Errorf("%s: empty doc", a.Name)
		}
		if got, ok := Lookup(a.Name); !ok || got != a {
			t.Errorf("Lookup(%q) failed", a.Name)
		}
	}
	if _, ok := Lookup("no-such-analyzer"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

func TestFindingString(t *testing.T) {
	p := fixturePass(t, "sentinel/bad")
	fs := sentinelAnalyzer.Run(p)
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	s := fs[0].String()
	if !strings.Contains(s, "bad.go:") || !strings.Contains(s, ": sentinel-errors: ") {
		t.Errorf("finding format %q", s)
	}
}

// TestFormatVerbs pins the fmt.Errorf argument mapping the
// sentinel-errors analyzer relies on.
func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
		ok     bool
	}{
		{"plain", "", true},
		{"%d and %s", "ds", true},
		{"100%% %w", "w", true},
		{"%+v", "v", true},
		{"%-8.3f", "f", true},
		{"%*d", "*d", true},
		{"%.*f", "*f", true},
		{"%[1]d", "", false},
		{"trailing %", "", true},
	}
	for _, tc := range cases {
		verbs, ok := formatVerbs(tc.format)
		if ok != tc.ok || string(verbs) != tc.want {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", tc.format, string(verbs), ok, tc.want, tc.ok)
		}
	}
}
