package circuits

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faultsim"
)

// TestPreparedStoreGolden pins the SHA-256 of the file Store.Save
// writes for two artifacts: the test program, tally, strobe first
// detects and coverage interval, byte for byte. The mul4 row is the
// sweep golden's preparation, the lsi1k row the lsi-smoke one (sampled
// universe, budgeted PODEM). Any change to fault collapsing, sampling,
// ATPG, fault simulation or the strobe refinement shows up here.
func TestPreparedStoreGolden(t *testing.T) {
	for _, tc := range []struct {
		spec string
		p    Params
		want string
	}{
		{"mul4", Params{RandomPatterns: 32, Seed: 7}, "caf0791ef84ebe524d989e25d462aa6e3e6aa24337e75342119f164ef530ca26"},
		{"lsi1k", Params{RandomPatterns: 48, SampleFaults: 150, BacktrackLimit: 50, Seed: 7}, "e35a9ce89d77a99e4b4204f9b1672b401999600ad7e6a49d46b63880b8e6bd02"},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			prep, err := PrepareSpec(tc.spec, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			store := testStore(t)
			if err := store.Save(prep); err != nil {
				t.Fatal(err)
			}
			fp, err := Fingerprint(prep.Circuit, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(store.Dir(), fp+".json"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s store file SHA-256 = %s, want %s", tc.spec, got, tc.want)
			}
		})
	}
}

// TestPrepareResultMatchesRunSteps: Prepare refines the first detects
// the ATPG drop loop graded instead of simulating the finished program
// again, and must land on exactly what one strobe-granular run over the
// program gives, at every sim worker count.
func TestPrepareResultMatchesRunSteps(t *testing.T) {
	for _, tc := range []struct {
		spec string
		p    Params
	}{
		{"mul8", Params{RandomPatterns: 32, Seed: 7}},
		{"cmp16", Params{RandomPatterns: 32, Seed: 7}},
		{"lsi1k", Params{RandomPatterns: 48, SampleFaults: 150, BacktrackLimit: 50, Seed: 7}},
	} {
		for _, workers := range []int{0, 2} {
			p := tc.p
			p.SimWorkers = workers
			prep, err := PrepareSpec(tc.spec, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := faultsim.RunStepsOpts(prep.Circuit, prep.Universe, prep.Patterns, p.Engine, faultsim.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if prep.Result.Patterns != want.Patterns || !slices.Equal(prep.Result.FirstDetect, want.FirstDetect) {
				t.Errorf("%s sim workers %d: Prepared.Result differs from RunStepsOpts over its program", tc.spec, workers)
			}
		}
	}
}
