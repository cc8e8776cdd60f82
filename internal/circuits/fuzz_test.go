package circuits

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/campaign"
)

// FuzzStoreLoad feeds arbitrary artifact bodies, sealed in a valid
// envelope under the requested fingerprint (so the checksum and schema
// checks pass), to Store.Load. Property: nothing panics, and every body
// is either rejected with campaign.ErrCorrupt, ErrSchema or ErrMismatch,
// or loads into a Prepared whose NewATE succeeds — a warm store never
// hands a campaign an artifact it cannot test lots with. The seeds are
// a real c17 artifact and re-sealed edits of it.
func FuzzStoreLoad(f *testing.F) {
	c, err := Resolve("c17")
	if err != nil {
		f.Fatal(err)
	}
	p := Params{RandomPatterns: 16, Seed: 3}
	prep, err := Prepare(c, p)
	if err != nil {
		f.Fatal(err)
	}
	store, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := store.Save(prep); err != nil {
		f.Fatal(err)
	}
	fp, err := Fingerprint(c, p)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := campaign.ReadEnvelope(store.path(fp), PreparedSchema)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(raw))
	for _, edit := range []func(*storedPrepared){
		func(b *storedPrepared) { b.Universe[0].Pin = -2 },
		func(b *storedPrepared) { b.Universe[0].Gate = "nowhere" },
		func(b *storedPrepared) { b.Patterns[0] = b.Patterns[0][1:] },
		func(b *storedPrepared) { b.Patterns[1] = "x" + b.Patterns[1][1:] },
		func(b *storedPrepared) { b.FirstDetect[0] = b.Steps },
		func(b *storedPrepared) { b.FirstDetect[0] = -2 },
		func(b *storedPrepared) { b.FirstDetect = b.FirstDetect[1:] },
		func(b *storedPrepared) { b.Steps++ },
		func(b *storedPrepared) { b.Seed++ },
		func(b *storedPrepared) { b.Bench = b.Bench[:len(b.Bench)/2] },
		func(b *storedPrepared) {
			b.Patterns, b.Steps = nil, 0
			for i := range b.FirstDetect {
				b.FirstDetect[i] = -1
			}
		},
	} {
		var body storedPrepared
		if err := json.Unmarshal(raw, &body); err != nil {
			f.Fatal(err)
		}
		edit(&body)
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	named := func(err error) bool {
		return errors.Is(err, campaign.ErrCorrupt) || errors.Is(err, campaign.ErrSchema) ||
			errors.Is(err, campaign.ErrMismatch)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !json.Valid(body) {
			return // an envelope holds a JSON body; the checksum covers the rest
		}
		if err := campaign.WriteEnvelope(store.path(fp), PreparedSchema, json.RawMessage(body)); err != nil {
			t.Fatal(err)
		}
		pr, err := store.Load(c, p)
		if err != nil {
			if !named(err) {
				t.Fatalf("Load: unnamed error %v", err)
			}
			return
		}
		if _, err := pr.NewATE(); err != nil {
			t.Fatalf("Load accepted an artifact NewATE rejects: %v", err)
		}
	})
}
