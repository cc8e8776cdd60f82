package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func runMain(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = Main(args, &out, &errb)
	return code, out.String(), errb.String()
}

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestMainFindingsExitCode(t *testing.T) {
	code, out, errb := runMain(fixture("sentinel", "bad"))
	if code != ExitFindings {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, ExitFindings, errb)
	}
	if !strings.Contains(out, "sentinel-errors") || !strings.Contains(out, "bad.go:") {
		t.Errorf("output missing findings:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		// file:line: analyzer: message
		if parts := strings.SplitN(line, ": ", 3); len(parts) != 3 {
			t.Errorf("malformed finding line %q", line)
		}
	}
}

func TestMainCleanExitCode(t *testing.T) {
	code, out, errb := runMain(fixture("sentinel", "good"))
	if code != ExitClean || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want clean and silent", code, out, errb)
	}
}

func TestMainOnlySkip(t *testing.T) {
	// -only an unrelated analyzer: the sentinel violations are not
	// reported.
	code, out, _ := runMain("-only", "determinism", fixture("sentinel", "bad"))
	if code != ExitClean || out != "" {
		t.Errorf("-only determinism: exit %d, out %q", code, out)
	}
	// -skip the firing analyzer: same.
	code, out, _ = runMain("-skip", "sentinel-errors", fixture("sentinel", "bad"))
	if code != ExitClean || out != "" {
		t.Errorf("-skip sentinel-errors: exit %d, out %q", code, out)
	}
	// -only the firing analyzer still fires.
	code, _, _ = runMain("-only", "sentinel-errors", fixture("sentinel", "bad"))
	if code != ExitFindings {
		t.Errorf("-only sentinel-errors: exit %d, want %d", code, ExitFindings)
	}
}

func TestMainUsageErrors(t *testing.T) {
	if code, _, errb := runMain("-only", "no-such"); code != ExitUsage || !strings.Contains(errb, "unknown analyzer") {
		t.Errorf("unknown -only: exit %d, stderr %q", code, errb)
	}
	if code, _, _ := runMain("-skip", "determinism,registry,invalidation,hotpath,sentinel-errors,oracle"); code != ExitUsage {
		t.Errorf("skipping everything: exit %d, want %d", code, ExitUsage)
	}
	if code, _, _ := runMain("-bogus-flag"); code != ExitUsage {
		t.Errorf("bad flag: exit %d, want %d", code, ExitUsage)
	}
	if code, _, _ := runMain("no/such/dir"); code != ExitUsage {
		t.Errorf("missing target: exit %d, want %d", code, ExitUsage)
	}
}

func TestMainList(t *testing.T) {
	code, out, _ := runMain("-list")
	if code != ExitClean {
		t.Fatalf("-list exit %d", code)
	}
	for _, a := range All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list missing %s", a.Name)
		}
	}
}

// TestModuleClean runs the full repolint sweep over the real tree —
// the same gate make lint applies. Skipped in -short runs (it
// type-checks the module plus its stdlib closure from source).
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint sweep in -short mode")
	}
	code, out, errb := runMain()
	if code != ExitClean {
		t.Errorf("repolint over the module: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
}
