package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzSubmitRequest drives arbitrary submit bodies through the
// daemon's admission path short of starting a campaign: decode
// (unknown fields rejected), config, Validate and Fingerprint. Nothing
// may panic, and every body Validate accepts must hash to one stable
// fingerprint, also after a re-encode round trip of its request.
func FuzzSubmitRequest(f *testing.F) {
	f.Add(testBody())
	for _, tc := range errorPathBodies {
		f.Add([]byte(tc.body))
	}
	for _, spec := range []string{"c17", "rca8", "mul8", "parity16", "dec4", "mux3", "cmp16", "cla8",
		"alu8", "bshift3", "datapath4", "rand7", "lsi1k", "lsi4k", "lsi7552"} {
		f.Add([]byte(strings.Replace(`{`+submitGrid+`}`, `"mul4"`, `"`+spec+`"`, 1)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		// .bench specs read the file system; their admission is pinned
		// by the circuits tests, so the fuzzer leaves them alone.
		for _, spec := range req.Circuits {
			spec = strings.TrimSpace(spec)
			if strings.HasPrefix(spec, "bench:") || strings.HasSuffix(spec, ".bench") {
				return
			}
		}
		cfg := req.config(nil)
		if cfg.Validate() != nil {
			return
		}
		fp, err := cfg.Fingerprint()
		if err != nil || fp == "" {
			t.Fatalf("accepted body has no fingerprint (%q, %v): %s", fp, err, body)
		}
		if again, err := cfg.Fingerprint(); err != nil || again != fp {
			t.Fatalf("fingerprint unstable: %s then %s (%v)", fp, again, err)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode accepted request: %v", err)
		}
		back, err := decodeSubmit(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, wire)
		}
		if got, err := back.config(nil).Fingerprint(); err != nil || got != fp {
			t.Fatalf("round-trip fingerprint %s (%v), want %s", got, err, fp)
		}
	})
}
