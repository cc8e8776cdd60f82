package circuits

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atpg"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// PreparedSchema versions the on-disk Prepared artifact. A file whose
// schema string differs is rejected with campaign.ErrSchema — never
// silently misparsed.
const PreparedSchema = "circuits-prepared/v1"

// ErrStoreMiss is returned by Store.Load when no artifact exists for
// the fingerprint — the expected cold-store outcome, distinct from the
// corruption errors (campaign.ErrCorrupt, campaign.ErrSchema) that a
// damaged artifact raises.
var ErrStoreMiss = errors.New("prepared artifact not in store")

// Store persists Prepared artifacts on disk so that a second process
// (or a second run of the same process) skips the expensive
// preparation entirely. Files are content-addressed: the key is a
// SHA-256 fingerprint of the circuit's canonical .bench rendering plus
// every results-relevant Params field, so a changed netlist or changed
// test-program knobs can never resurrect a stale artifact. Each file
// is a checksummed, schema-versioned campaign envelope written
// atomically — truncation, bit rot, and hand edits surface as named
// errors, and the Cache falls back to a clean rebuild.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a Prepared store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("circuits: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("circuits: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Fingerprint computes the content address of a (circuit, Params)
// preparation: a SHA-256 over the schema string, the results-relevant
// Params fields, and the circuit's canonical .bench rendering. Engine
// and SimWorkers are deliberately excluded: they only pick how the
// artifact is computed, never what it holds, so a store populated with
// -simworkers 4 serves a -simworkers 1 run.
func Fingerprint(c *netlist.Circuit, p Params) (string, error) {
	fp, _, err := fingerprint(c, p)
	return fp, err
}

// fingerprint is Fingerprint also returning the canonical .bench
// rendering it hashes: Save stores that rendering, and Load compares
// the stored one with it.
func fingerprint(c *netlist.Circuit, p Params) (fp, bench string, err error) {
	var sb strings.Builder
	if err := c.WriteBench(&sb); err != nil {
		return "", "", fmt.Errorf("circuits: fingerprint: %w", err)
	}
	bench = sb.String()
	h := sha256.New()
	io.WriteString(h, PreparedSchema+"\n")
	fmt.Fprintf(h, "random_patterns=%d seed=%d backtrack_limit=%d sample_faults=%d\n",
		p.RandomPatterns, p.Seed, p.BacktrackLimit, p.SampleFaults)
	io.WriteString(h, bench)
	return hex.EncodeToString(h.Sum(nil)), bench, nil
}

func (s *Store) path(fingerprint string) string {
	return filepath.Join(s.dir, fingerprint+".json")
}

// storedFault addresses a fault by gate name rather than gate ID: the
// rendering does not carry IDs (a circuit parsed from it numbers its
// gates afresh), names survive the round trip.
type storedFault struct {
	Gate  string `json:"gate"`
	Pin   int    `json:"pin"`
	Stuck bool   `json:"stuck"`
}

// storedPrepared is the envelope body. Patterns are bit strings over
// the circuit's input declaration order and FirstDetect holds strobe
// step indices over the output declaration order — both orders are
// preserved by the canonical .bench rendering, so the artifact is
// valid against any circuit with that rendering. The ramp is not
// stored; it is losslessly rebuilt from FirstDetect.
type storedPrepared struct {
	Bench          string        `json:"bench"`
	RandomPatterns int           `json:"random_patterns"`
	Seed           int64         `json:"seed"`
	BacktrackLimit int           `json:"backtrack_limit"`
	SampleFaults   int           `json:"sample_faults"`
	UniverseSize   int           `json:"universe_size"`
	Sampled        bool          `json:"sampled"`
	Universe       []storedFault `json:"universe"`
	Patterns       []string      `json:"patterns"`
	ATPG           atpg.Tally    `json:"atpg"`
	FirstDetect    []int         `json:"first_detect"`
	Steps          int           `json:"steps"`
	CoverageCILow  float64       `json:"coverage_ci_lo"`
	CoverageCIHigh float64       `json:"coverage_ci_hi"`
}

// Save persists a Prepared artifact under its fingerprint, atomically.
func (s *Store) Save(pr *Prepared) error {
	fp, bench, err := fingerprint(pr.Circuit, pr.Params)
	if err != nil {
		return err
	}
	body := storedPrepared{
		Bench:          bench,
		RandomPatterns: pr.Params.RandomPatterns,
		Seed:           pr.Params.Seed,
		BacktrackLimit: pr.Params.BacktrackLimit,
		SampleFaults:   pr.Params.SampleFaults,
		UniverseSize:   pr.UniverseSize,
		Sampled:        pr.Sampled,
		Universe:       make([]storedFault, len(pr.Universe)),
		Patterns:       make([]string, len(pr.Patterns)),
		ATPG:           pr.ATPG,
		FirstDetect:    pr.Result.FirstDetect,
		Steps:          pr.Result.Patterns,
		CoverageCILow:  pr.CoverageCILow,
		CoverageCIHigh: pr.CoverageCIHigh,
	}
	for i, f := range pr.Universe {
		body.Universe[i] = storedFault{Gate: pr.Circuit.Gates[f.Gate].Name, Pin: f.Pin, Stuck: f.Stuck}
	}
	for i, pat := range pr.Patterns {
		bits := make([]byte, len(pat))
		for j, b := range pat {
			if b {
				bits[j] = '1'
			} else {
				bits[j] = '0'
			}
		}
		body.Patterns[i] = string(bits)
	}
	return campaign.WriteEnvelope(s.path(fp), PreparedSchema, body)
}

// Load retrieves the Prepared artifact for (c, p), rebuilding the
// in-memory form from the stored one over c itself: the stored
// canonical .bench bytes must equal c's rendering, so the artifact
// describes exactly c and nothing is re-parsed. Fault names are mapped
// to c's gate IDs, the stats come from c, and the sparse ramp is
// recomputed from the stored first-detect steps. A missing artifact is
// ErrStoreMiss; a damaged one surfaces campaign.ErrCorrupt,
// campaign.ErrSchema, or campaign.ErrMismatch via errors.Is. Params a
// cold Prepare would reject are rejected here too, before the store is
// read.
func (s *Store) Load(c *netlist.Circuit, p Params) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fp, bench, err := fingerprint(c, p)
	if err != nil {
		return nil, err
	}
	path := s.path(fp)
	raw, err := campaign.ReadEnvelope(path, PreparedSchema)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("circuits: %w: %s", ErrStoreMiss, path)
		}
		return nil, err
	}
	var body storedPrepared
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("circuits: store %s: %w: %w", path, campaign.ErrCorrupt, err)
	}
	if body.RandomPatterns != p.RandomPatterns || body.Seed != p.Seed ||
		body.BacktrackLimit != p.BacktrackLimit || body.SampleFaults != p.SampleFaults {
		return nil, fmt.Errorf("circuits: store %s: %w: stored params differ from requested",
			path, campaign.ErrMismatch)
	}
	if body.Bench != bench {
		// The fingerprint hashes the requested circuit's rendering, so a
		// different stored netlist can only come from a re-sealed body.
		return nil, fmt.Errorf("circuits: store %s: %w: stored circuit differs from requested",
			path, campaign.ErrMismatch)
	}
	stats, err := c.ComputeStats()
	if err != nil {
		return nil, err
	}
	universe := make([]fault.Fault, len(body.Universe))
	for i, sf := range body.Universe {
		id, ok := c.GateByName(sf.Gate)
		if !ok {
			return nil, fmt.Errorf("circuits: store %s: %w: fault names unknown gate %q",
				path, campaign.ErrCorrupt, sf.Gate)
		}
		if sf.Pin < -1 || sf.Pin >= len(c.Gates[id].Fanin) {
			return nil, fmt.Errorf("circuits: store %s: %w: fault pin %d out of range on %q",
				path, campaign.ErrCorrupt, sf.Pin, sf.Gate)
		}
		universe[i] = fault.Fault{Gate: id, Pin: sf.Pin, Stuck: sf.Stuck}
	}
	if len(body.Patterns) == 0 {
		// Prepare always emits the bring-up patterns, and an ATE needs
		// at least one pattern to test with.
		return nil, fmt.Errorf("circuits: store %s: %w: no patterns", path, campaign.ErrCorrupt)
	}
	patterns := make([]logicsim.Pattern, len(body.Patterns))
	for i, bits := range body.Patterns {
		if len(bits) != len(c.Inputs) {
			return nil, fmt.Errorf("circuits: store %s: %w: pattern %d has %d bits for %d inputs",
				path, campaign.ErrCorrupt, i, len(bits), len(c.Inputs))
		}
		pat := make(logicsim.Pattern, len(bits))
		for j := 0; j < len(bits); j++ {
			switch bits[j] {
			case '0':
			case '1':
				pat[j] = true
			default:
				return nil, fmt.Errorf("circuits: store %s: %w: pattern %d has non-binary byte",
					path, campaign.ErrCorrupt, i)
			}
		}
		patterns[i] = pat
	}
	if len(body.FirstDetect) != len(universe) {
		return nil, fmt.Errorf("circuits: store %s: %w: %d first-detect entries for %d faults",
			path, campaign.ErrCorrupt, len(body.FirstDetect), len(universe))
	}
	wantSteps := len(patterns) * len(c.Outputs)
	if body.Steps != wantSteps {
		return nil, fmt.Errorf("circuits: store %s: %w: %d steps for %d patterns × %d outputs",
			path, campaign.ErrCorrupt, body.Steps, len(patterns), len(c.Outputs))
	}
	for i, d := range body.FirstDetect {
		if d != faultsim.NotDetected && (d < 0 || d >= body.Steps) {
			return nil, fmt.Errorf("circuits: store %s: %w: first-detect %d of fault %d out of range",
				path, campaign.ErrCorrupt, d, i)
		}
	}
	res := faultsim.Result{FirstDetect: body.FirstDetect, Patterns: body.Steps}
	return &Prepared{
		Circuit:        c,
		Stats:          stats,
		Params:         p,
		UniverseSize:   body.UniverseSize,
		Sampled:        body.Sampled,
		Universe:       universe,
		Patterns:       patterns,
		ATPG:           body.ATPG,
		Curve:          faultsim.SparseRamp(res),
		Result:         res,
		CoverageCILow:  body.CoverageCILow,
		CoverageCIHigh: body.CoverageCIHigh,
	}, nil
}
