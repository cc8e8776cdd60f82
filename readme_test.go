package repro

import (
	"fmt"
	"os"
	"regexp"
	"testing"

	"repro/internal/logicsim"
)

// TestReadmeMatchesRegistries keeps README's engine documentation in
// step with the code: no example passes the retired -engine/-lotengine
// flags or the retired "engine"/"lot_engine" submit fields, and the
// stated lane ceiling matches the wide lane layer.
func TestReadmeMatchesRegistries(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(src)

	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`(^|[\s\x60(])-(lot)?engine\b`),
		regexp.MustCompile(`"(lot_)?engine"`),
	} {
		for _, m := range re.FindAllString(readme, -1) {
			t.Errorf("README names the retired engine selector %q", m)
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
}
