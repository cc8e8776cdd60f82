package campaign

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSnapshot feeds arbitrary file bytes to the two snapshot
// decoders, LoadCheckpoint and LoadShard. Property: neither panics,
// and every error wraps ErrCorrupt, ErrSchema or ErrMismatch, so a
// caller can always tell a damaged or foreign file by name. The seeds
// are one real checkpoint and one real shard file.
func FuzzLoadSnapshot(f *testing.F) {
	layout := Layout{Cells: 2, Replicates: 3}
	const cuts = 2
	ck := testCheckpoint(f, layout, cuts, 41)
	rng := rand.New(rand.NewSource(43))
	sums := make([]Summary, layout.Tasks())
	for i := range sums {
		sums[i] = randomSummary(rng, cuts)
	}
	shard := buildShards(layout, ck.Key.ConfigHash, 2, sums)[1]

	dir := f.TempDir()
	ckPath := filepath.Join(dir, "seed.ckpt")
	if err := WriteCheckpoint(ckPath, ck); err != nil {
		f.Fatal(err)
	}
	shardPath := filepath.Join(dir, "seed.shard")
	if err := WriteShard(shardPath, shard); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{ckPath, shardPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	named := func(err error) bool {
		return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchema) || errors.Is(err, ErrMismatch)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "snapshot")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path, ck.Key, layout, cuts); err != nil && !named(err) {
			t.Errorf("LoadCheckpoint: unnamed error %v", err)
		}
		if _, err := LoadShard(path); err != nil && !named(err) {
			t.Errorf("LoadShard: unnamed error %v", err)
		}
	})
}
