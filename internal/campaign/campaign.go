// Package campaign is the durability and distribution layer under the
// Monte-Carlo sweep: the job model (a campaign is a grid of cells, a
// cell is a batch of replicates, a replicate is one global task index),
// the CellID -> Welford result store that folds per-replicate summaries
// in replicate order (so aggregates are bit-identical no matter which
// worker, process, or resumed run produced them), and the on-disk
// snapshot formats — versioned, checksummed, written atomically — that
// let a killed campaign resume from its last checkpoint and let shards
// run in separate processes and merge into the same bytes as a serial
// run.
//
// The package is pure bookkeeping: it never runs a lot. internal/sweep
// executes tasks and feeds summaries in; cmd/sweep and cmd/sweepd wire
// the files and flags. Everything here depends only on the task-index
// arithmetic, which is why the splitmix64 global-task-index seeding
// upstream makes any partition of the grid reproducible.
package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// Layout is the shape of a campaign's task space: Cells grid cells,
// each owed Replicates independent replicate tasks. Global task index
// t maps to cell t/Replicates, replicate t%Replicates — cell-major, so
// a prefix of the task order is always a watermark per cell.
type Layout struct {
	Cells      int `json:"cells"`
	Replicates int `json:"replicates"`
}

// Validate rejects empty task spaces.
func (l Layout) Validate() error {
	if l.Cells < 1 {
		return fmt.Errorf("campaign: layout needs at least one cell, got %d", l.Cells)
	}
	if l.Replicates < 1 {
		return fmt.Errorf("campaign: layout needs at least one replicate per cell, got %d", l.Replicates)
	}
	return nil
}

// Tasks returns the total task count.
func (l Layout) Tasks() int { return l.Cells * l.Replicates }

// CellOf returns the cell index owning global task t.
func (l Layout) CellOf(t int) int { return t / l.Replicates }

// RepOf returns t's replicate index within its cell.
func (l Layout) RepOf(t int) int { return t % l.Replicates }

// Task returns the global task index of (cell, rep).
func (l Layout) Task(cell, rep int) int { return cell*l.Replicates + rep }

// Shard is one slice of a multi-process partition: shard Index of Count
// owns exactly the global task indices congruent to Index mod Count.
// The zero value is not valid; FullShard is the whole grid.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// FullShard is the unsharded campaign: shard 0 of 1 owns every task.
var FullShard = Shard{Index: 0, Count: 1}

// Validate rejects out-of-range shards.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("campaign: shard count must be >= 1, got %d", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("campaign: shard index must be in [0,%d), got %d", s.Count, s.Index)
	}
	return nil
}

// Owns reports whether global task t belongs to this shard.
func (s Shard) Owns(t int) bool { return t%s.Count == s.Index }

// Owned returns how many of a grid's tasks this shard owns: Index,
// Index+Count, ... below tasks. The k-th of them is Index + k*Count.
func (s Shard) Owned(tasks int) int { return (tasks - s.Index + s.Count - 1) / s.Count }

// String renders the flag form, "index/count".
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses the "i/n" flag form (0-based index, 0 <= i < n).
func ParseShard(s string) (Shard, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("campaign: shard %q is not of the form i/n", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return Shard{}, fmt.Errorf("campaign: bad shard index in %q", s)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return Shard{}, fmt.Errorf("campaign: bad shard count in %q", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Summary is the small per-replicate record the store folds: one
// passed/escape count pair per coverage cut plus the whole-program lot
// statistics. It is what shard files carry across process boundaries,
// so every field must survive JSON (no NaNs: a non-converged n0 fit is
// FitOK=false with FitN0 zero, never NaN).
type Summary struct {
	Passed      []int   `json:"passed"`
	Escapes     []int   `json:"escapes"`
	TestedYield float64 `json:"tested_yield"`
	LotYield    float64 `json:"lot_yield"`
	TrueN0      float64 `json:"true_n0"`
	FitOK       bool    `json:"fit_ok"`
	FitN0       float64 `json:"fit_n0"`
}

// validate checks the summary's shape against the campaign's cut count.
func (s Summary) validate(cuts int) error {
	if len(s.Passed) != cuts || len(s.Escapes) != cuts {
		return fmt.Errorf("campaign: summary has %d/%d cut counts, campaign has %d cuts",
			len(s.Passed), len(s.Escapes), cuts)
	}
	return nil
}

// TaskSummary is a Summary tagged with its global task index — the
// shard-file record.
type TaskSummary struct {
	Task int `json:"task"`
	Summary
}
