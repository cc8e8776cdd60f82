package campaign

import (
	"encoding/json"
	"fmt"
)

// ShardResult is one shard's contribution to a campaign: the raw
// per-replicate summaries of every task the shard owns, tagged with
// global task indices. Shards carry raw summaries rather than folded
// Welford state on purpose — bit-identical merging requires folding
// every replicate in global index order, which only the merger can do
// once all shards are present. The same format doubles as the shard's
// checkpoint: a partial file (Complete=false) resumes, a complete one
// merges.
type ShardResult struct {
	Key Key `json:"key"`
	// Tasks is the full grid's task count, a cheap geometry guard.
	Tasks int `json:"tasks"`
	// Complete reports whether every owned task's summary is present.
	Complete bool `json:"complete"`
	// Summaries holds the finished tasks in ascending task order.
	Summaries []TaskSummary `json:"summaries"`
}

// validate checks internal consistency: every summary owned by the
// shard, indices ascending and unique, Complete consistent with the
// owned count.
func (sr *ShardResult) validate() error {
	if err := sr.Key.Shard.Validate(); err != nil {
		return err
	}
	if sr.Tasks < 1 {
		return fmt.Errorf("campaign: shard file claims %d tasks", sr.Tasks)
	}
	prev := -1
	for _, ts := range sr.Summaries {
		if ts.Task < 0 || ts.Task >= sr.Tasks {
			return fmt.Errorf("campaign: shard summary task %d outside [0,%d)", ts.Task, sr.Tasks)
		}
		if !sr.Key.Shard.Owns(ts.Task) {
			return fmt.Errorf("campaign: shard %s does not own task %d", sr.Key.Shard, ts.Task)
		}
		if ts.Task <= prev {
			return fmt.Errorf("campaign: shard summaries not strictly ascending at task %d", ts.Task)
		}
		prev = ts.Task
	}
	owned := sr.Key.Shard.Owned(sr.Tasks)
	if sr.Complete && len(sr.Summaries) != owned {
		return fmt.Errorf("campaign: shard %s marked complete with %d of %d owned tasks",
			sr.Key.Shard, len(sr.Summaries), owned)
	}
	if len(sr.Summaries) > owned {
		return fmt.Errorf("campaign: shard %s has %d summaries but owns only %d tasks",
			sr.Key.Shard, len(sr.Summaries), owned)
	}
	return nil
}

// WriteShard atomically persists a shard result (partial or complete).
func WriteShard(path string, sr *ShardResult) error {
	if err := sr.validate(); err != nil {
		return err
	}
	return writeSnapshotFile(path, ShardSchema, sr)
}

// LoadShard reads, verifies, and consistency-checks a shard file. The
// caller matches the key itself (merge wants n files under one config
// hash; resume wants an exact key match) — use LoadShardFor when the
// expected key is known.
func LoadShard(path string) (*ShardResult, error) {
	body, err := readSnapshotFile(path, ShardSchema)
	if err != nil {
		return nil, err
	}
	var sr ShardResult
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("campaign: snapshot %s: %w: %w", path, ErrCorrupt, err)
	}
	if err := sr.validate(); err != nil {
		return nil, fmt.Errorf("campaign: snapshot %s: %w: %w", path, ErrCorrupt, err)
	}
	return &sr, nil
}

// LoadShardFor is LoadShard plus an exact key and geometry match — the
// resume path, where a shard file written by a different config, a
// different shard assignment, or a different grid is ErrMismatch.
func LoadShardFor(path string, key Key, layout Layout, cuts int) (*ShardResult, error) {
	sr, err := LoadShard(path)
	if err != nil {
		return nil, err
	}
	if sr.Key != key {
		return nil, fmt.Errorf("campaign: snapshot %s: %w: shard key %+v, campaign key %+v",
			path, ErrMismatch, sr.Key, key)
	}
	if sr.Tasks != layout.Tasks() {
		return nil, fmt.Errorf("campaign: snapshot %s: %w: shard grid has %d tasks, campaign has %d",
			path, ErrMismatch, sr.Tasks, layout.Tasks())
	}
	for _, ts := range sr.Summaries {
		if err := ts.validate(cuts); err != nil {
			return nil, fmt.Errorf("campaign: snapshot %s: %w: task %d: %w", path, ErrMismatch, ts.Task, err)
		}
	}
	return sr, nil
}

// MergeShards validates a shard set and folds every summary into a
// fresh store in global task order, which makes the merged aggregates
// bit-for-bit equal to a single serial run — including Welford CI
// bounds. Preconditions, each a named error:
//   - every shard carries the campaign's config hash (ErrMismatch),
//   - every shard agrees on the partition size and grid (ErrMismatch),
//   - no shard index appears twice (ErrShardOverlap),
//   - indices 0..n-1 are all present (ErrShardMissing),
//   - every shard is complete (ErrShardIncomplete).
func MergeShards(layout Layout, cuts int, configHash string, shards []*ShardResult) (*Store, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("campaign: %w: no shards to merge", ErrShardMissing)
	}
	n := shards[0].Key.Shard.Count
	seen := make(map[int]bool, n)
	for _, sr := range shards {
		if err := sr.validate(); err != nil {
			return nil, err
		}
		if sr.Key.ConfigHash != configHash {
			return nil, fmt.Errorf("campaign: %w: shard %s has config hash %.12s, campaign has %.12s",
				ErrMismatch, sr.Key.Shard, sr.Key.ConfigHash, configHash)
		}
		if sr.Key.Shard.Count != n {
			return nil, fmt.Errorf("campaign: %w: shard %s in a merge of 0..%d/%d",
				ErrMismatch, sr.Key.Shard, n-1, n)
		}
		if sr.Tasks != layout.Tasks() {
			return nil, fmt.Errorf("campaign: %w: shard %s grid has %d tasks, campaign has %d",
				ErrMismatch, sr.Key.Shard, sr.Tasks, layout.Tasks())
		}
		if seen[sr.Key.Shard.Index] {
			return nil, fmt.Errorf("campaign: %w: shard %s appears twice", ErrShardOverlap, sr.Key.Shard)
		}
		seen[sr.Key.Shard.Index] = true
		if !sr.Complete {
			return nil, fmt.Errorf("campaign: %w: shard %s has %d summaries",
				ErrShardIncomplete, sr.Key.Shard, len(sr.Summaries))
		}
	}
	if len(seen) != n {
		for i := 0; i < n; i++ {
			if !seen[i] {
				return nil, fmt.Errorf("campaign: %w: shard %d/%d not supplied", ErrShardMissing, i, n)
			}
		}
	}
	st, err := NewStore(layout, cuts)
	if err != nil {
		return nil, err
	}
	// The store buffers out-of-order arrivals and folds strictly in
	// replicate order, so feeding shard by shard is already exact.
	for _, sr := range shards {
		for _, ts := range sr.Summaries {
			if _, _, err := st.Add(ts.Task, ts.Summary); err != nil {
				return nil, err
			}
		}
	}
	if !st.Complete() {
		return nil, fmt.Errorf("campaign: %w: merged shards cover %d of %d tasks",
			ErrShardMissing, st.TasksFolded(), layout.Tasks())
	}
	return st, nil
}
