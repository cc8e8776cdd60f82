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
	// the incremental-results stream (CIs tighten as Done grows). A
	// resumed run first calls it once per restored cell with Done > 0,
	// in cell order, before any worker starts. Calls are ordered per
	// cell but concurrent across cells; keep it fast. RunShard never
	// calls it.
	OnCellUpdate func(cell int, snap campaign.CellSnapshot)
	// OnProgress, when set, is called once before any worker starts
	// with the counts the run starts from (those restored by a resume,
	// else zero), then after every completed task, with the
	// campaign-wide folded/total counts (RunShard reports the shard's
	// collected/owned counts instead).
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
			Circuit: s.workloads[c.w].prep.Circuit.Name,
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
	st, err := campaign.NewStore(s.Layout(), len(s.cfg.Coverages))
	if err != nil {
		return nil, err
	}
	st.OnAdvance = opts.OnCellUpdate
	l := &storeLedger{
		key:  campaign.Key{ConfigHash: s.fingerprint, Shard: campaign.FullShard},
		cuts: len(s.cfg.Coverages),
		st:   st,
	}
	if err := s.drive(opts, l); err != nil {
		return nil, err
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
	l := &shardLedger{
		key:    campaign.Key{ConfigHash: s.fingerprint, Shard: sh},
		layout: layout,
		cuts:   len(s.cfg.Coverages),
		sums:   make([]*campaign.Summary, sh.Owned(layout.Tasks())),
	}
	if err := s.drive(opts, l); err != nil {
		return nil, err
	}
	return l.result(), nil
}

// ledger is the campaign state the driver makes durable: a whole run's
// folded cells, or one shard's raw summaries. The driver calls load and
// todo before any worker starts; add and progress are safe concurrently.
type ledger interface {
	// load restores the state a checkpoint file holds; a file written
	// by another campaign, shard or grid is a named error.
	load(path string) error
	// todo reports whether task t is still to run.
	todo(t int) bool
	// add records a finished task and reports whether it completed a
	// cell, a checkpoint boundary.
	add(t int, sum campaign.Summary) (cellDone bool, err error)
	// write persists the state to path atomically.
	write(path string) error
	// progress returns the tasks recorded and the tasks to record; the
	// campaign is complete when they are equal.
	progress() (done, total int)
}

// drive runs the tasks the ledger still needs under the durability
// policy every campaign shares: resume-or-start from opts.Checkpoint,
// the MaxNewTasks pause, a checkpoint write at each completed cell and
// every CheckpointEvery tasks, a closing write, and the exit
// classification. A nil return means the ledger is complete.
func (s *Sweeper) drive(opts RunOptions, l ledger) error {
	if opts.Resume {
		if opts.Checkpoint == "" {
			return fmt.Errorf("sweep: resume requires a checkpoint path")
		}
		if _, statErr := os.Stat(opts.Checkpoint); statErr == nil {
			if err := l.load(opts.Checkpoint); err != nil {
				return err
			}
		} else if !errors.Is(statErr, os.ErrNotExist) {
			return fmt.Errorf("sweep: checkpoint %s: %w", opts.Checkpoint, statErr)
		}
	}
	if opts.OnProgress != nil {
		opts.OnProgress(l.progress())
	}

	// Everything the ledger does not hold re-runs; deterministic
	// seeding makes the re-run byte-identical.
	var pending []int
	for t := 0; t < s.Layout().Tasks(); t++ {
		if l.todo(t) {
			pending = append(pending, t)
		}
	}
	paused := false
	if opts.MaxNewTasks > 0 && len(pending) > opts.MaxNewTasks {
		pending = pending[:opts.MaxNewTasks]
		paused = true
	}

	var ckptMu sync.Mutex
	writeCkpt := func() error {
		if opts.Checkpoint == "" {
			return nil
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		return l.write(opts.Checkpoint)
	}
	var sinceCkpt atomic.Int64
	handle := func(task int, sum campaign.Summary) error {
		cellDone, err := l.add(task, sum)
		if err != nil {
			return err
		}
		if opts.OnProgress != nil {
			opts.OnProgress(l.progress())
		}
		// Durability cadence: every completed cell is a checkpoint
		// boundary, plus the optional every-K-tasks cadence.
		if cellDone {
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
		return err
	}
	if err := writeCkpt(); err != nil {
		return err
	}
	done, total := l.progress()
	switch {
	case interrupted && done < total:
		return ErrInterrupted
	case paused:
		return ErrPaused
	case done < total:
		return fmt.Errorf("sweep: campaign folded %d of %d tasks", done, total)
	}
	return nil
}

// storeLedger is a whole run's ledger: the campaign.Store and its
// Checkpoint file.
type storeLedger struct {
	key  campaign.Key
	cuts int
	st   *campaign.Store
}

// load restores the checkpoint and replays every restored cell to the
// store's OnAdvance, in cell order, so a resumed campaign reports what
// it already holds before any worker starts.
func (l *storeLedger) load(path string) error {
	ck, err := campaign.LoadCheckpoint(path, l.key, l.st.Layout(), l.cuts)
	if err != nil {
		return err
	}
	if err := l.st.Restore(ck.Cells); err != nil {
		return err
	}
	if l.st.OnAdvance != nil {
		for cell, snap := range ck.Cells {
			if snap.Done > 0 {
				l.st.OnAdvance(cell, snap)
			}
		}
	}
	return nil
}

// todo is true at or above the task's cell watermark: finished but
// unfolded replicates are not persisted, so they re-run.
func (l *storeLedger) todo(t int) bool {
	layout := l.st.Layout()
	return layout.RepOf(t) >= l.st.Done(layout.CellOf(t))
}

func (l *storeLedger) add(t int, sum campaign.Summary) (bool, error) {
	_, done, err := l.st.Add(t, sum)
	return done == l.st.Layout().Replicates, err
}

func (l *storeLedger) write(path string) error {
	return campaign.WriteCheckpoint(path, &campaign.Checkpoint{Key: l.key, Cells: l.st.Snapshot()})
}

func (l *storeLedger) progress() (int, int) { return l.st.TasksFolded(), l.st.Layout().Tasks() }

// shardLedger is one shard's ledger: the summaries of its owned tasks,
// indexed by owned ordinal t/Count so they come out in ascending task
// order, and its ShardResult file. A shard folds nothing, so no add
// completes a cell.
type shardLedger struct {
	key    campaign.Key
	layout campaign.Layout
	cuts   int

	mu   sync.Mutex
	sums []*campaign.Summary // nil: not yet run
	n    int                 // non-nil entries of sums
}

func (l *shardLedger) load(path string) error {
	sr, err := campaign.LoadShardFor(path, l.key, l.layout, l.cuts)
	if err != nil {
		return err
	}
	for i := range sr.Summaries {
		l.sums[sr.Summaries[i].Task/l.key.Shard.Count] = &sr.Summaries[i].Summary
	}
	l.n = len(sr.Summaries)
	return nil
}

func (l *shardLedger) todo(t int) bool {
	return l.key.Shard.Owns(t) && l.sums[t/l.key.Shard.Count] == nil
}

func (l *shardLedger) add(t int, sum campaign.Summary) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sums[t/l.key.Shard.Count] = &sum
	l.n++
	return false, nil
}

func (l *shardLedger) write(path string) error { return campaign.WriteShard(path, l.result()) }

func (l *shardLedger) progress() (int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n, len(l.sums)
}

// result snapshots the ledger as a ShardResult, summaries in ascending
// task order.
func (l *shardLedger) result() *campaign.ShardResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	sr := &campaign.ShardResult{
		Key:       l.key,
		Tasks:     l.layout.Tasks(),
		Complete:  l.n == len(l.sums),
		Summaries: make([]campaign.TaskSummary, 0, l.n),
	}
	for i, sum := range l.sums {
		if sum != nil {
			sr.Summaries = append(sr.Summaries, campaign.TaskSummary{Task: l.key.Shard.Index + i*l.key.Shard.Count, Summary: *sum})
		}
	}
	return sr
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
					if err := s.workloads[wi].prep.ReleaseATE(ate); err != nil {
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
					ate, err := s.workloads[wi].prep.NewATE()
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
		prep := wl.prep
		res.Workloads = append(res.Workloads, WorkloadInfo{
			Spec:           wl.spec,
			Name:           prep.Circuit.Name,
			Stats:          prep.Stats,
			FaultCount:     prep.FaultCount(),
			PatternCount:   len(prep.Patterns),
			FinalCoverage:  prep.FinalCoverage(),
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
			Circuit:    wl.prep.Circuit.Name,
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
