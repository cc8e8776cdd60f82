// The campaign job engine: the durable, shardable face of the sweep.
// RunWith adds checkpoint/resume on top of the classic Run, RunShard
// computes one slice of a multi-process partition, and MergeShards
// folds a complete shard set back into the exact bytes a serial run
// would have produced. All three feed the campaign.Store, which folds
// per-replicate summaries in replicate-index order — the invariant the
// splitmix64 global-task-index seeding makes sufficient for
// reproducibility under any scheduling, sharding, or crash pattern.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/tester"
)

// ErrPaused is returned by RunWith/RunShard when MaxNewTasks stopped
// the campaign early; the checkpoint holds everything completed so far.
var ErrPaused = errors.New("sweep: campaign paused (checkpoint written, resume to continue)")

// ErrInterrupted is returned when the Interrupt channel fired: in-flight
// replicates were drained, the checkpoint written, and the campaign can
// resume from it.
var ErrInterrupted = errors.New("sweep: campaign interrupted (checkpoint written, resume to continue)")

// RunOptions are the durability and distribution knobs of a campaign
// run. The zero value reproduces the classic run-to-completion Run.
type RunOptions struct {
	// Checkpoint, when non-empty, is the snapshot file the campaign
	// writes atomically (temp file + rename): after every completed
	// cell, every CheckpointEvery folded tasks if set, and on
	// pause/interrupt/completion. For RunShard it holds the partial
	// shard result and doubles as the shard's output file.
	Checkpoint string
	// Resume loads Checkpoint before running, if the file exists, and
	// skips every replicate below each cell's watermark. A checkpoint
	// written by a different grid config, shard, or schema version is
	// rejected with a named error — never silently resumed. A missing
	// file is a fresh start, so resume-or-start is one flag.
	Resume bool
	// CheckpointEvery additionally checkpoints each time this many new
	// tasks have folded (0: only at cell completions and run exits).
	CheckpointEvery int
	// MaxNewTasks, when positive, stops the campaign after at most this
	// many new tasks, writes the checkpoint, and returns ErrPaused —
	// the crash-injection hook the durability tests kill campaigns
	// with, at replicate granularity.
	MaxNewTasks int
	// Interrupt, when non-nil and closed, stops dispatching new tasks;
	// in-flight replicates drain, the checkpoint is written, and the
	// run returns ErrInterrupted. This is the graceful-shutdown path
	// cmd/sweepd wires to SIGTERM.
	Interrupt <-chan struct{}
	// OnCellUpdate, when set, is called every time a cell's folded
	// watermark advances, with a copy of the cell's new snapshot —
	// the incremental-results stream (CIs tighten as Done grows).
	// Calls are ordered per cell but concurrent across cells; keep it
	// fast.
	OnCellUpdate func(cell int, snap campaign.CellSnapshot)
	// OnProgress, when set, is called after every completed task with
	// the campaign-wide folded/total counts (RunShard reports collected
	// counts instead).
	OnProgress func(done, total int)
}

// fingerprint hashes every results-relevant config field plus the
// expanded unit list. Scheduling knobs (Workers, SimWorkers) are
// excluded, and so are Engine and LotEngine, which Validate pins to
// their one value.
func fingerprint(units []string, cfg Config) string {
	canon := struct {
		Units          []string
		Yields         []float64
		N0s            []float64
		LotSizes       []int
		Coverages      []float64
		Replicates     int
		RandomPatterns int
		Seed           int64
		Physical       bool
		BacktrackLimit int `json:",omitempty"`
		SampleFaults   int `json:",omitempty"`
	}{units, cfg.Yields, cfg.N0s, cfg.LotSizes, cfg.Coverages,
		cfg.Replicates, cfg.RandomPatterns, cfg.Seed, cfg.Physical,
		cfg.BacktrackLimit, cfg.SampleFaults}
	b, err := json.Marshal(canon)
	if err != nil {
		// Plain slices of numbers and strings cannot fail to marshal.
		panic(fmt.Sprintf("sweep: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Fingerprint returns the campaign's config hash — the identity key of
// its checkpoints and shard files.
func (s *Sweeper) Fingerprint() string { return s.fingerprint }

// Fingerprint expands and hashes a config without preparing circuits,
// for callers that need the identity before (or without) the ATPG cost.
func (c Config) Fingerprint() (string, error) {
	units, err := c.expandUnits()
	if err != nil {
		return "", err
	}
	return fingerprint(units, c), nil
}

// Layout returns the campaign's task geometry.
func (s *Sweeper) Layout() campaign.Layout {
	return campaign.Layout{Cells: len(s.cells), Replicates: s.cfg.Replicates}
}

// CellInfo names one grid cell for status reporting.
type CellInfo struct {
	Circuit string
	Yield   float64
	N0      float64
	Chips   int
}

// Cells lists the grid cells in task order.
func (s *Sweeper) Cells() []CellInfo {
	out := make([]CellInfo, len(s.cells))
	for i, c := range s.cells {
		out[i] = CellInfo{
			Circuit: s.workloads[c.w].lr.Circuit().Name,
			Yield:   c.y,
			N0:      c.n0,
			Chips:   c.chips,
		}
	}
	return out
}

// RunWith runs the campaign with durability options: an interrupted or
// crashed run resumes from its last checkpoint and finishes with the
// exact bytes of an uninterrupted run.
func (s *Sweeper) RunWith(opts RunOptions) (*Result, error) {
	layout := s.Layout()
	key := campaign.Key{ConfigHash: s.fingerprint, Shard: campaign.FullShard}
	st, err := campaign.NewStore(layout, len(s.cfg.Coverages))
	if err != nil {
		return nil, err
	}
	if opts.Resume {
		if opts.Checkpoint == "" {
			return nil, fmt.Errorf("sweep: resume requires a checkpoint path")
		}
		if _, statErr := os.Stat(opts.Checkpoint); statErr == nil {
			ck, err := campaign.LoadCheckpoint(opts.Checkpoint, key, layout, len(s.cfg.Coverages))
			if err != nil {
				return nil, err
			}
			if err := st.Restore(ck.Cells); err != nil {
				return nil, err
			}
		} else if !errors.Is(statErr, os.ErrNotExist) {
			return nil, fmt.Errorf("sweep: checkpoint %s: %w", opts.Checkpoint, statErr)
		}
	}
	st.OnAdvance = opts.OnCellUpdate

	var ckptMu sync.Mutex
	writeCkpt := func() error {
		if opts.Checkpoint == "" {
			return nil
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		return campaign.WriteCheckpoint(opts.Checkpoint, &campaign.Checkpoint{Key: key, Cells: st.Snapshot()})
	}

	// Everything at or above a cell's restored watermark re-runs;
	// deterministic seeding makes the re-run byte-identical.
	var pending []int
	for t := 0; t < layout.Tasks(); t++ {
		if layout.RepOf(t) >= st.Done(layout.CellOf(t)) {
			pending = append(pending, t)
		}
	}
	paused := false
	if opts.MaxNewTasks > 0 && len(pending) > opts.MaxNewTasks {
		pending = pending[:opts.MaxNewTasks]
		paused = true
	}

	var sinceCkpt atomic.Int64
	handle := func(task int, sum campaign.Summary) error {
		_, done, err := st.Add(task, sum)
		if err != nil {
			return err
		}
		if opts.OnProgress != nil {
			opts.OnProgress(st.TasksFolded(), layout.Tasks())
		}
		// Durability cadence: every completed cell is a checkpoint
		// boundary, plus the optional every-K-tasks cadence.
		if done == layout.Replicates {
			return writeCkpt()
		}
		if opts.CheckpointEvery > 0 && sinceCkpt.Add(1) >= int64(opts.CheckpointEvery) {
			sinceCkpt.Store(0)
			return writeCkpt()
		}
		return nil
	}

	interrupted, err := s.runTasks(pending, handle, opts.Interrupt)
	if err != nil {
		// Keep whatever folded: the checkpoint may already cover it.
		return nil, err
	}
	if err := writeCkpt(); err != nil {
		return nil, err
	}
	if interrupted && !st.Complete() {
		return nil, ErrInterrupted
	}
	if paused {
		return nil, ErrPaused
	}
	if !st.Complete() {
		return nil, fmt.Errorf("sweep: campaign folded %d of %d tasks", st.TasksFolded(), layout.Tasks())
	}
	return s.ResultFrom(st.Snapshot())
}

// RunShard computes one slice of a multi-process partition: only the
// tasks with task%Count == Index run, and the output is the raw
// per-replicate summary set that MergeShards folds back — bit-exactly —
// into a serial run's aggregates. opts.Checkpoint doubles as the shard
// output file; a partial one (after a crash or pause) resumes.
func (s *Sweeper) RunShard(sh campaign.Shard, opts RunOptions) (*campaign.ShardResult, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	layout := s.Layout()
	key := campaign.Key{ConfigHash: s.fingerprint, Shard: sh}
	var (
		mu   sync.Mutex
		have = map[int]campaign.Summary{}
	)
	if opts.Resume {
		if opts.Checkpoint == "" {
			return nil, fmt.Errorf("sweep: resume requires a checkpoint path")
		}
		if _, statErr := os.Stat(opts.Checkpoint); statErr == nil {
			sr, err := campaign.LoadShardFor(opts.Checkpoint, key, layout, len(s.cfg.Coverages))
			if err != nil {
				return nil, err
			}
			for _, ts := range sr.Summaries {
				have[ts.Task] = ts.Summary
			}
		} else if !errors.Is(statErr, os.ErrNotExist) {
			return nil, fmt.Errorf("sweep: checkpoint %s: %w", opts.Checkpoint, statErr)
		}
	}
	owned := 0
	var pending []int
	for t := 0; t < layout.Tasks(); t++ {
		if !sh.Owns(t) {
			continue
		}
		owned++
		if _, done := have[t]; !done {
			pending = append(pending, t)
		}
	}
	paused := false
	if opts.MaxNewTasks > 0 && len(pending) > opts.MaxNewTasks {
		pending = pending[:opts.MaxNewTasks]
		paused = true
	}
	snapshot := func() *campaign.ShardResult {
		mu.Lock()
		defer mu.Unlock()
		sr := &campaign.ShardResult{
			Key:      key,
			Tasks:    layout.Tasks(),
			Complete: len(have) == owned,
			Summaries: func() []campaign.TaskSummary {
				out := make([]campaign.TaskSummary, 0, len(have))
				//repolint:ordered — SortSummaries below canonicalizes before anything is written
				for t, sum := range have {
					out = append(out, campaign.TaskSummary{Task: t, Summary: sum})
				}
				return out
			}(),
		}
		sr.SortSummaries()
		return sr
	}
	var ckptMu sync.Mutex
	writeCkpt := func() error {
		if opts.Checkpoint == "" {
			return nil
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		return campaign.WriteShard(opts.Checkpoint, snapshot())
	}
	var sinceCkpt atomic.Int64
	handle := func(task int, sum campaign.Summary) error {
		mu.Lock()
		have[task] = sum
		n := len(have)
		mu.Unlock()
		if opts.OnProgress != nil {
			opts.OnProgress(n, owned)
		}
		if opts.CheckpointEvery > 0 && sinceCkpt.Add(1) >= int64(opts.CheckpointEvery) {
			sinceCkpt.Store(0)
			return writeCkpt()
		}
		return nil
	}
	interrupted, err := s.runTasks(pending, handle, opts.Interrupt)
	if err != nil {
		return nil, err
	}
	if err := writeCkpt(); err != nil {
		return nil, err
	}
	sr := snapshot()
	if interrupted && !sr.Complete {
		return nil, ErrInterrupted
	}
	if paused {
		return nil, ErrPaused
	}
	return sr, nil
}

// MergeShards validates a complete shard set against this campaign and
// folds it, in global task order, into the same Result a serial run
// produces — byte-identical CSV included. Overlapping, missing,
// incomplete, or foreign shards fail with campaign.Err* named errors.
func (s *Sweeper) MergeShards(shards []*campaign.ShardResult) (*Result, error) {
	st, err := campaign.MergeShards(s.Layout(), len(s.cfg.Coverages), s.fingerprint, shards)
	if err != nil {
		return nil, err
	}
	return s.ResultFrom(st.Snapshot())
}

// runTasks fans the given task list over the worker pool. handle is
// called from worker goroutines with each completed task's summary.
// Returns whether interrupt fired (after draining in-flight tasks) and
// the first error.
func (s *Sweeper) runTasks(pending []int, handle func(task int, sum campaign.Summary) error, interrupt <-chan struct{}) (bool, error) {
	total := len(pending)
	if total == 0 {
		return false, nil
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	// Pre-filled buffered channel: no sender to block, so an erroring
	// worker can simply stop consuming.
	tasks := make(chan int, total)
	for _, t := range pending {
		tasks <- t
	}
	close(tasks)
	var (
		wg          sync.WaitGroup
		errOnce     sync.Once
		firstErr    error
		failed      atomic.Bool
		interrupted atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One ATE per (worker, workload), taken from the workload's
			// Prepared on first use and kept across the worker's
			// replicates of that circuit. A worker that exits cleanly
			// hands its ATEs back for the next campaign over the same
			// Prepared; one that stops on its own error drops them, so
			// an ATE whose lot failed is never reused.
			ates := make([]*tester.ATE, len(s.workloads))
			defer func() {
				for wi, ate := range ates {
					if ate == nil {
						continue
					}
					if err := s.workloads[wi].lr.ReleaseATE(ate); err != nil {
						fail(err)
					}
				}
			}()
			drop := func(err error) {
				fail(err)
				ates = nil
			}
			for t := range tasks {
				if failed.Load() || interrupted.Load() {
					return
				}
				if interrupt != nil {
					select {
					case <-interrupt:
						interrupted.Store(true)
						return
					default:
					}
				}
				wi := s.cells[t/s.cfg.Replicates].w
				if ates[wi] == nil {
					ate, err := s.workloads[wi].lr.NewATE()
					if err != nil {
						drop(err)
						return
					}
					ates[wi] = ate
				}
				sum, err := s.summarize(ates[wi], t)
				if err != nil {
					drop(err)
					return
				}
				if err := handle(t, sum); err != nil {
					drop(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return interrupted.Load(), firstErr
}

// ResultFrom renders per-cell folded state — a store snapshot, whether
// live, checkpointed, or shard-merged — into the report types. Partial
// snapshots render too (the daemon's incremental results endpoint);
// each cell's Replicates reflects its folded watermark, which equals
// the configured replicate count exactly when the campaign is done.
func (s *Sweeper) ResultFrom(snaps []campaign.CellSnapshot) (*Result, error) {
	if len(snaps) != len(s.cells) {
		return nil, fmt.Errorf("sweep: snapshot has %d cells, campaign has %d", len(snaps), len(s.cells))
	}
	res := &Result{Config: s.cfg}
	for _, wl := range s.workloads {
		prep := wl.lr.Prepared()
		res.Workloads = append(res.Workloads, WorkloadInfo{
			Spec:           wl.spec,
			Name:           wl.lr.Circuit().Name,
			Stats:          wl.lr.Stats(),
			FaultCount:     wl.lr.FaultCount(),
			PatternCount:   wl.lr.Patterns(),
			FinalCoverage:  wl.lr.FinalCoverage(),
			UniverseSize:   prep.UniverseSize,
			Sampled:        prep.Sampled,
			CoverageCILow:  prep.CoverageCILow,
			CoverageCIHigh: prep.CoverageCIHigh,
			ATPG:           prep.ATPG,
		})
	}
	for ci, cell := range s.cells {
		wl := s.workloads[cell.w]
		model, err := core.New(cell.y, cell.n0)
		if err != nil {
			return nil, err
		}
		snap := snaps[ci]
		cr := CellResult{
			Circuit:    wl.lr.Circuit().Name,
			Yield:      cell.y,
			N0:         cell.n0,
			Chips:      cell.chips,
			Replicates: snap.Done,
			Points:     make([]PointStat, len(wl.cuts)),
		}
		for j, c := range wl.cuts {
			rej := campaign.FromState(snap.Rej[j])
			esc := campaign.FromState(snap.Esc[j])
			pass := campaign.FromState(snap.Pass[j])
			lo, hi := rej.CI95()
			cr.Points[j] = PointStat{
				Target:      c.Target,
				Coverage:    c.Coverage,
				AnalyticR:   model.RejectRate(c.Coverage),
				MeanR:       rej.Mean(),
				StdR:        math.Sqrt(rej.Variance()),
				CILow:       math.Max(0, lo),
				CIHigh:      math.Min(1, hi),
				RejSamples:  rej.Count(),
				MeanEscapes: esc.Mean(),
				MeanPassed:  pass.Mean(),
			}
		}
		ty := campaign.FromState(snap.TestedYield)
		ly := campaign.FromState(snap.LotYield)
		tn := campaign.FromState(snap.TrueN0)
		ft := campaign.FromState(snap.FitN0)
		cr.MeanTestedYield = ty.Mean()
		cr.MeanLotYield = ly.Mean()
		cr.TrueN0Mean = tn.Mean()
		cr.FitN0Count = ft.Count()
		cr.FitN0Mean = ft.Mean()
		cr.FitN0CILow, cr.FitN0CIHigh = ft.CI95()
		res.Cells = append(res.Cells, cr)
	}
	return res, nil
}
