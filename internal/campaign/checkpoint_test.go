package campaign

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testCheckpoint(t testing.TB, layout Layout, cuts int, seed int64) *Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sums := make([]Summary, layout.Tasks())
	for i := range sums {
		sums[i] = randomSummary(rng, cuts)
	}
	st := serialStore(t, layout, cuts, sums[:layout.Tasks()-2]) // mid-cell watermark
	return &Checkpoint{
		Key:   Key{ConfigHash: "deadbeefcafe", Shard: FullShard},
		Cells: st.Snapshot(),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	layout := Layout{Cells: 3, Replicates: 4}
	const cuts = 2
	ck := testCheckpoint(t, layout, cuts, 23)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path, ck.Key, layout, cuts)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-exact: every Welford state and watermark survives the disk.
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("checkpoint drifted through write/load")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the checkpoint", len(entries))
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	layout := Layout{Cells: 2, Replicates: 3}
	const cuts = 2
	ck := testCheckpoint(t, layout, cuts, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, data []byte, wantErr error) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(p, ck.Key, layout, cuts)
		if err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
			return
		}
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		// The report must name the offending file, never a bare guess.
		if !strings.Contains(err.Error(), p) {
			t.Errorf("%s: error does not name the file path: %v", name, err)
		}
	}
	// Truncated at several depths.
	corrupt("truncated-half.ckpt", pristine[:len(pristine)/2], ErrCorrupt)
	corrupt("truncated-tail.ckpt", pristine[:len(pristine)-3], ErrCorrupt)
	corrupt("empty.ckpt", nil, ErrCorrupt)
	// Garbage.
	corrupt("garbage.ckpt", []byte("not even json {"), ErrCorrupt)
	// Valid JSON, flipped payload byte: the checksum must catch a
	// silent single-field edit.
	tampered := []byte(strings.Replace(string(pristine), `"done": `, `"done": 1`, 1))
	if string(tampered) == string(pristine) {
		t.Fatal("tamper failed to change the payload")
	}
	corrupt("tampered.ckpt", tampered, ErrCorrupt)
	// Wrong schema version.
	versioned := []byte(strings.Replace(string(pristine), CheckpointSchema, "campaign-checkpoint/v999", 1))
	corrupt("version.ckpt", versioned, ErrSchema)
	// Missing file: plain error naming the path, not a panic.
	if _, err := LoadCheckpoint(filepath.Join(dir, "nope.ckpt"), ck.Key, layout, cuts); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

func TestCheckpointKeyAndShapeMismatch(t *testing.T) {
	layout := Layout{Cells: 2, Replicates: 3}
	const cuts = 2
	ck := testCheckpoint(t, layout, cuts, 37)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	// A checkpoint written by a different grid config (different
	// fingerprint) must be rejected by name, never silently resumed.
	otherKey := Key{ConfigHash: "0ther", Shard: FullShard}
	if _, err := LoadCheckpoint(path, otherKey, layout, cuts); !errors.Is(err, ErrMismatch) {
		t.Errorf("foreign config hash: err = %v, want ErrMismatch", err)
	}
	// Same for a different shard of the same config...
	shardKey := ck.Key
	shardKey.Shard = Shard{Index: 1, Count: 2}
	if _, err := LoadCheckpoint(path, shardKey, layout, cuts); !errors.Is(err, ErrMismatch) {
		t.Errorf("foreign shard: err = %v, want ErrMismatch", err)
	}
	// ...and a different grid shape under the same (spoofed) key.
	if _, err := LoadCheckpoint(path, ck.Key, Layout{Cells: 5, Replicates: 3}, cuts); !errors.Is(err, ErrMismatch) {
		t.Errorf("foreign cell count: err = %v, want ErrMismatch", err)
	}
	if _, err := LoadCheckpoint(path, ck.Key, layout, cuts+1); !errors.Is(err, ErrMismatch) {
		t.Errorf("foreign cut count: err = %v, want ErrMismatch", err)
	}
}

func TestEnvelopeChecksumSurvivesReindent(t *testing.T) {
	// The checksum is over canonical (compacted) body bytes, so a file
	// that was pretty-printed by a well-meaning tool still verifies,
	// while any semantic edit fails.
	layout := Layout{Cells: 1, Replicates: 2}
	ck := testCheckpoint(t, layout, 1, 41)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(env, "", "      ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, indented, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, ck.Key, layout, 1); err != nil {
		t.Fatalf("reindented checkpoint rejected: %v", err)
	}
}

// TestCheckpointErrorChainsCause pins the wrap discipline: a corrupt
// snapshot reports ErrCorrupt for the caller's errors.Is dispatch AND
// keeps the underlying decode error in the chain (both via %w), so the
// original cause stays reachable for diagnosis instead of being
// flattened into the message string.
func TestCheckpointErrorChainsCause(t *testing.T) {
	layout := Layout{Cells: 2, Replicates: 3}
	ck := testCheckpoint(t, layout, 1, 5)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := os.WriteFile(path, []byte("not even json {"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path, ck.Key, layout, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt in chain", err)
	}
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Errorf("decode cause lost from the chain: %v", err)
	}
}
