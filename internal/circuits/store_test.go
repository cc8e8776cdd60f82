package circuits

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faultsim"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestStoreRoundTrip(t *testing.T) {
	store := testStore(t)
	p := Params{RandomPatterns: 32, Seed: 7}
	prep, err := PrepareSpec("mul4", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(prep); err != nil {
		t.Fatal(err)
	}
	c, err := Resolve("mul4")
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(c, p)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded circuit is re-parsed from canonical .bench bytes, so
	// gate IDs may renumber — everything index-based must still line up.
	if got.Circuit.Name != prep.Circuit.Name ||
		len(got.Circuit.Gates) != len(prep.Circuit.Gates) ||
		len(got.Circuit.Inputs) != len(prep.Circuit.Inputs) ||
		len(got.Circuit.Outputs) != len(prep.Circuit.Outputs) {
		t.Fatalf("circuit shape changed: %v vs %v", got.Stats, prep.Stats)
	}
	if !reflect.DeepEqual(got.Stats, prep.Stats) {
		t.Errorf("stats: got %v want %v", got.Stats, prep.Stats)
	}
	if !reflect.DeepEqual(got.Patterns, prep.Patterns) {
		t.Error("patterns differ after round trip")
	}
	if !reflect.DeepEqual(got.Result.FirstDetect, prep.Result.FirstDetect) {
		t.Error("first-detect steps differ after round trip")
	}
	if !reflect.DeepEqual(got.Curve, prep.Curve) {
		t.Error("coverage ramp differs after round trip")
	}
	if got.ATPG != prep.ATPG {
		t.Errorf("ATPG tally: got %+v want %+v", got.ATPG, prep.ATPG)
	}
	if got.FinalCoverage() != prep.FinalCoverage() {
		t.Errorf("final coverage: got %v want %v", got.FinalCoverage(), prep.FinalCoverage())
	}
	if got.UniverseSize != prep.UniverseSize || got.Sampled != prep.Sampled ||
		got.CoverageCILow != prep.CoverageCILow || got.CoverageCIHigh != prep.CoverageCIHigh {
		t.Errorf("universe metadata differs: %+v", got)
	}
	// Faults travel by gate name; remapped IDs must reference the same
	// named gates.
	if len(got.Universe) != len(prep.Universe) {
		t.Fatalf("universe size: got %d want %d", len(got.Universe), len(prep.Universe))
	}
	for i := range got.Universe {
		gn := got.Circuit.Gates[got.Universe[i].Gate].Name
		wn := prep.Circuit.Gates[prep.Universe[i].Gate].Name
		if gn != wn || got.Universe[i].Pin != prep.Universe[i].Pin ||
			got.Universe[i].Stuck != prep.Universe[i].Stuck {
			t.Fatalf("fault %d: got %s/%d/%v want %s/%d/%v", i,
				gn, got.Universe[i].Pin, got.Universe[i].Stuck,
				wn, prep.Universe[i].Pin, prep.Universe[i].Stuck)
		}
	}
	// The requested Params win (Engine/SimWorkers follow the caller).
	if got.Params != p {
		t.Errorf("params: got %+v want %+v", got.Params, p)
	}
}

func TestStoreMissAndKeying(t *testing.T) {
	store := testStore(t)
	c, err := Resolve("mul4")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{RandomPatterns: 16, Seed: 1}
	if _, err := store.Load(c, p); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("empty store: err = %v, want ErrStoreMiss", err)
	}
	prep, err := Prepare(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(prep); err != nil {
		t.Fatal(err)
	}
	// Any results-relevant knob moves the fingerprint: the artifact must
	// not serve a different preparation.
	for _, q := range []Params{
		{RandomPatterns: 16, Seed: 2},
		{RandomPatterns: 32, Seed: 1},
		{RandomPatterns: 16, Seed: 1, BacktrackLimit: 50},
		{RandomPatterns: 16, Seed: 1, SampleFaults: 10},
	} {
		if _, err := store.Load(c, q); !errors.Is(err, ErrStoreMiss) {
			t.Errorf("params %+v: err = %v, want ErrStoreMiss", q, err)
		}
	}
	// Engine and SimWorkers are excluded from the key on purpose: they
	// pick how the artifact is computed, never what it holds.
	if _, err := store.Load(c, Params{RandomPatterns: 16, Seed: 1, SimWorkers: 3}); err != nil {
		t.Errorf("shard-count change missed the store: %v", err)
	}
}

// TestInvalidParamsColdAndWarm checks that a store-backed cache rejects
// every Params value a cold build rejects, even when the store holds an
// artifact under the same fingerprint (Engine and SimWorkers are not in
// it).
func TestInvalidParamsColdAndWarm(t *testing.T) {
	good := Params{RandomPatterns: 16, Seed: 8}
	dir := t.TempDir()
	warmStore, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCacheWithStore(warmStore).Get("mul4", good); err != nil {
		t.Fatal(err)
	}
	c, err := Resolve("mul4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Params)
	}{
		{"negative sim workers", func(p *Params) { p.SimWorkers = -1 }},
		{"retired serial engine", func(p *Params) { p.Engine = faultsim.Engine(1) }},
		{"unregistered engine", func(p *Params) { p.Engine = faultsim.Engine(7) }},
		{"negative patterns", func(p *Params) { p.RandomPatterns = -1 }},
		{"negative backtrack limit", func(p *Params) { p.BacktrackLimit = -1 }},
		{"negative fault sample", func(p *Params) { p.SampleFaults = -1 }},
	} {
		bad := good
		tc.mutate(&bad)
		if _, err := NewCacheWithStore(testStore(t)).Get("mul4", bad); err == nil {
			t.Errorf("%s: cold cache accepted", tc.name)
		}
		warm := NewCacheWithStore(warmStore)
		if _, err := warm.Get("mul4", bad); err == nil {
			t.Errorf("%s: warm cache accepted", tc.name)
		}
		if warm.Loads() != 0 {
			t.Errorf("%s: warm cache served an artifact", tc.name)
		}
		if _, err := warmStore.Load(c, bad); err == nil {
			t.Errorf("%s: store load accepted", tc.name)
		}
	}
}

// TestStoreCorruption damages a stored artifact every way the envelope
// protects against and checks each surfaces as the right named error —
// and that the store-backed cache recovers with a clean rebuild that
// overwrites the damage.
func TestStoreCorruption(t *testing.T) {
	p := Params{RandomPatterns: 16, Seed: 3}
	c, err := Resolve("mul4")
	if err != nil {
		t.Fatal(err)
	}
	damage := []struct {
		name    string
		mangle  func(data []byte) []byte
		wantErr error
	}{
		{"truncated", func(data []byte) []byte { return data[:len(data)/2] }, campaign.ErrCorrupt},
		{"garbage", func(data []byte) []byte { return []byte("not json at all") }, campaign.ErrCorrupt},
		{"tampered-body", func(data []byte) []byte {
			// Flip one digit inside the body without breaking JSON:
			// the checksum must catch it. The envelope writer may or may
			// not re-indent the body, so try both spellings.
			s := strings.Replace(string(data), `"random_patterns":16`, `"random_patterns":61`, 1)
			if s == string(data) {
				s = strings.Replace(string(data), `"random_patterns": 16`, `"random_patterns": 61`, 1)
			}
			if s == string(data) {
				t.Fatal("tamper target not found")
			}
			return []byte(s)
		}, campaign.ErrCorrupt},
		// Re-sealed bodies carry a valid checksum, so only Load's own
		// checks can catch a stored fault naming a pin the gate lacks:
		// below -1 (the stem) or past its fanin.
		{"pin-below-stem", func(data []byte) []byte {
			return resealed(t, data, func(b *storedPrepared) { b.Universe[0].Pin = -2 })
		}, campaign.ErrCorrupt},
		{"pin-past-fanin", func(data []byte) []byte {
			return resealed(t, data, func(b *storedPrepared) { b.Universe[0].Pin = 99 })
		}, campaign.ErrCorrupt},
		{"wrong-schema", func(data []byte) []byte {
			s := strings.Replace(string(data), PreparedSchema, "circuits-prepared/v999", 1)
			if s == string(data) {
				t.Fatal("schema string not found")
			}
			return []byte(s)
		}, campaign.ErrSchema},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			store := testStore(t)
			prep, err := Prepare(c, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Save(prep); err != nil {
				t.Fatal(err)
			}
			fp, err := Fingerprint(c, p)
			if err != nil {
				t.Fatal(err)
			}
			path := store.path(fp)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, d.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Load(c, p); !errors.Is(err, d.wantErr) {
				t.Fatalf("Load after %s: err = %v, want %v", d.name, err, d.wantErr)
			}
			// The cache treats the damage as a miss: one clean rebuild,
			// and the overwritten artifact serves the next process.
			cache := NewCacheWithStore(store)
			if _, err := cache.Get("mul4", p); err != nil {
				t.Fatalf("rebuild after %s: %v", d.name, err)
			}
			if cache.Builds() != 1 || cache.Loads() != 0 {
				t.Fatalf("after %s: builds=%d loads=%d, want 1/0", d.name, cache.Builds(), cache.Loads())
			}
			if _, err := store.Load(c, p); err != nil {
				t.Fatalf("artifact not repaired after %s: %v", d.name, err)
			}
		})
	}
}

// resealed applies edit to a stored artifact's body and seals the
// result in a fresh envelope with a valid checksum.
func resealed(t *testing.T, data []byte, edit func(*storedPrepared)) []byte {
	t.Helper()
	var env struct {
		Body json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var body storedPrepared
	if err := json.Unmarshal(env.Body, &body); err != nil {
		t.Fatal(err)
	}
	edit(&body)
	path := filepath.Join(t.TempDir(), "resealed.json")
	if err := campaign.WriteEnvelope(path, PreparedSchema, body); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStoreParamsMismatchInsideEnvelope(t *testing.T) {
	// A checksum-valid artifact copied under the wrong fingerprint (or a
	// fingerprint collision in a hand-managed store) must fail the
	// stored-params check, not silently serve the wrong preparation.
	store := testStore(t)
	c, err := Resolve("mul4")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{RandomPatterns: 16, Seed: 4}
	prep, err := Prepare(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(prep); err != nil {
		t.Fatal(err)
	}
	p2 := Params{RandomPatterns: 16, Seed: 5}
	fp, err := Fingerprint(c, p)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(c, p2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.path(fp2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(c, p2); !errors.Is(err, campaign.ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

// TestStoreRejectsDifferentNetlist re-seals a mul4 artifact whose
// stored .bench carries one extra dangling gate: the checksum and the
// fingerprint both hold, so only Load's comparison of the stored
// netlist with the requested one can refuse to serve it.
func TestStoreRejectsDifferentNetlist(t *testing.T) {
	store := testStore(t)
	c, err := Resolve("mul4")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{RandomPatterns: 16, Seed: 4}
	prep, err := Prepare(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(prep); err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(c, p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	extra := fmt.Sprintf("zzextra = NOT(%s)\n", c.Gates[c.Inputs[0]].Name)
	data = resealed(t, data, func(b *storedPrepared) { b.Bench += extra })
	if err := os.WriteFile(store.path(fp), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if pr, err := store.Load(c, p); !errors.Is(err, campaign.ErrMismatch) {
		n := 0
		if pr != nil {
			n = len(pr.Circuit.Gates)
		}
		t.Fatalf("err = %v (a %d-gate circuit for the %d-gate request), want ErrMismatch", err, n, len(c.Gates))
	}
}

func TestCacheColdWarmStore(t *testing.T) {
	dir := t.TempDir()
	p := Params{RandomPatterns: 24, Seed: 9}

	store1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCacheWithStore(store1)
	first, err := cold.Get("mul4", p)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Builds() != 1 || cold.Loads() != 0 {
		t.Fatalf("cold: builds=%d loads=%d, want 1/0", cold.Builds(), cold.Loads())
	}

	// A second cache over the same directory models a second process:
	// zero rebuilds, identical artifact.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCacheWithStore(store2)
	second, err := warm.Get("mul4", p)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Builds() != 0 || warm.Loads() != 1 {
		t.Fatalf("warm: builds=%d loads=%d, want 0/1", warm.Builds(), warm.Loads())
	}
	if !reflect.DeepEqual(first.Result.FirstDetect, second.Result.FirstDetect) ||
		!reflect.DeepEqual(first.Patterns, second.Patterns) ||
		!reflect.DeepEqual(first.Curve, second.Curve) {
		t.Fatal("warm artifact differs from cold build")
	}
}

func TestSampleFaultsDeterministic(t *testing.T) {
	p := Params{RandomPatterns: 16, Seed: 11, SampleFaults: 20}
	a, err := PrepareSpec("mul4", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareSpec("mul4", p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Sampled || len(a.Universe) != 20 {
		t.Fatalf("sampled=%v universe=%d, want true/20", a.Sampled, len(a.Universe))
	}
	if a.UniverseSize <= len(a.Universe) {
		t.Fatalf("universe size %d not larger than sample %d", a.UniverseSize, len(a.Universe))
	}
	if !reflect.DeepEqual(a.Universe, b.Universe) {
		t.Error("same seed drew different samples")
	}
	// The sample is a subsequence of the full collapsed universe
	// (indices kept ascending), and a different seed draws differently.
	p2 := p
	p2.Seed = 12
	c2, err := PrepareSpec("mul4", p2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Universe, c2.Universe) {
		t.Error("different seeds drew identical samples")
	}
	// The CI brackets the sample's point estimate.
	if !(a.CoverageCILow <= a.FinalCoverage() && a.FinalCoverage() <= a.CoverageCIHigh) {
		t.Errorf("CI [%v, %v] does not bracket %v", a.CoverageCILow, a.CoverageCIHigh, a.FinalCoverage())
	}
	if a.CoverageCILow >= a.CoverageCIHigh {
		t.Errorf("sampled CI degenerate: [%v, %v]", a.CoverageCILow, a.CoverageCIHigh)
	}

	// A sample size covering the whole universe is a census: no
	// sampling, exact CI.
	p3 := Params{RandomPatterns: 16, Seed: 11, SampleFaults: 1 << 20}
	census, err := PrepareSpec("mul4", p3)
	if err != nil {
		t.Fatal(err)
	}
	if census.Sampled || census.CoverageCILow != census.CoverageCIHigh {
		t.Errorf("census: sampled=%v CI [%v, %v]", census.Sampled, census.CoverageCILow, census.CoverageCIHigh)
	}
}

// TestLSIScaleStore is the big-circuit smoke test (`make lsi-smoke`):
// an lsi1k fixture prepares end to end with a sampled universe and a
// budgeted ATPG, a second process reuses the on-disk artifact with zero
// rebuilds, and the tallies partition.
func TestLSIScaleStore(t *testing.T) {
	if testing.Short() {
		t.Skip("LSI-scale preparation skipped with -short")
	}
	dir := t.TempDir()
	p := Params{RandomPatterns: 48, Seed: 1981, SampleFaults: 150, BacktrackLimit: 50}

	store1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCacheWithStore(store1)
	first, err := cold.Get("lsi1k", p)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Builds() != 1 {
		t.Fatalf("cold builds = %d", cold.Builds())
	}
	if !first.Sampled || first.FaultCount() != 150 {
		t.Fatalf("sampled=%v faults=%d, want true/150", first.Sampled, first.FaultCount())
	}
	tally := first.ATPG
	if tally.Faults != 150 || tally.Detected+tally.Untestable+tally.Aborted != tally.Faults {
		t.Fatalf("tally does not partition: %+v", tally)
	}
	if first.FinalCoverage() <= 0 {
		t.Fatal("no coverage at all on lsi1k")
	}

	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCacheWithStore(store2)
	second, err := warm.Get("lsi1k", p)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Builds() != 0 || warm.Loads() != 1 {
		t.Fatalf("warm: builds=%d loads=%d, want 0/1", warm.Builds(), warm.Loads())
	}
	if !reflect.DeepEqual(first.Result.FirstDetect, second.Result.FirstDetect) ||
		first.ATPG != second.ATPG ||
		!reflect.DeepEqual(first.Curve, second.Curve) {
		t.Fatal("warm lsi1k artifact differs from cold build")
	}
}
