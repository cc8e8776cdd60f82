package sweep

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/circuits"
)

// crashConfig is the small two-circuit campaign the durability tests
// kill and resume: 2 cells x 3 replicates = 6 tasks, seconds total
// even when re-run once per kill point.
func crashConfig() Config {
	return Config{
		Circuits:       []string{"mul4", "cmp8"},
		Yields:         []float64{0.25},
		N0s:            []float64{3},
		LotSizes:       []int{60},
		Coverages:      []float64{0.3, 0.6},
		Replicates:     3,
		Workers:        2,
		RandomPatterns: 32,
		Seed:           19,
	}
}

// newSweeper builds a Sweeper over a shared cache so the durability
// loops don't re-run ATPG per kill point.
func newSweeper(t *testing.T, cfg Config, cache *circuits.Cache) *Sweeper {
	t.Helper()
	cfg.Cache = cache
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runKind is one face of the durable campaign driver: the whole run
// (RunWith), or one shard of a partition (RunShard) merged with its
// sibling shards. Each durability test runs once per kind.
type runKind struct {
	name  string
	shard campaign.Shard // FullShard: the whole run
}

var runKinds = []runKind{
	{"whole", campaign.FullShard},
	{"shard1of2", campaign.Shard{Index: 1, Count: 2}},
}

// tasks is how many tasks the run under test owns.
func (k runKind) tasks(s *Sweeper) int { return k.shard.Owned(s.Layout().Tasks()) }

// run drives the campaign under opts and returns the CSV it reports.
// A shard kind runs its own shard under opts first, then every sibling
// shard plainly, and merges them: the CSV is the merged campaign's.
func (k runKind) run(s *Sweeper, opts RunOptions) (string, error) {
	if k.shard == campaign.FullShard {
		res, err := s.RunWith(opts)
		if err != nil {
			return "", err
		}
		return res.CSV(), nil
	}
	shards := make([]*campaign.ShardResult, k.shard.Count)
	sr, err := s.RunShard(k.shard, opts)
	if err != nil {
		return "", err
	}
	shards[k.shard.Index] = sr
	for i := range shards {
		if i == k.shard.Index {
			continue
		}
		if shards[i], err = s.RunShard(campaign.Shard{Index: i, Count: k.shard.Count}, RunOptions{}); err != nil {
			return "", err
		}
	}
	res, err := s.MergeShards(shards)
	if err != nil {
		return "", err
	}
	return res.CSV(), nil
}

// forEachKind runs test once per run kind, as a subtest.
func forEachKind(t *testing.T, test func(t *testing.T, k runKind)) {
	for _, k := range runKinds {
		t.Run(k.name, func(t *testing.T) { test(t, k) })
	}
}

func TestCrashResumeByteIdentical(t *testing.T) {
	// The crash/resume equivalence harness: run the two-circuit
	// campaign to completion for the golden CSV, then kill a fresh
	// campaign at EVERY task boundary k — cell boundaries (k a multiple
	// of Replicates) and mid-cell at replicate granularity — resume
	// each from its checkpoint, and require the final CSV byte-identical
	// to the uninterrupted golden.
	cache := circuits.NewCache()
	cfg := crashConfig()
	golden, err := newSweeper(t, cfg, cache).Run()
	if err != nil {
		t.Fatal(err)
	}
	goldenCSV := golden.CSV()
	if total := len(golden.Cells) * cfg.Replicates; total != 6 {
		t.Fatalf("expected 6 tasks, got %d", total)
	}
	forEachKind(t, func(t *testing.T, k runKind) {
		total := k.tasks(newSweeper(t, cfg, cache))
		for kill := 1; kill < total; kill++ {
			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
			// Phase 1: the doomed run — stops (the injected kill) after
			// exactly `kill` new tasks, checkpointing on the way out.
			_, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, MaxNewTasks: kill})
			if !errors.Is(err, ErrPaused) {
				t.Fatalf("kill=%d: err = %v, want ErrPaused", kill, err)
			}
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("kill=%d: no checkpoint written: %v", kill, err)
			}
			// Phase 2: resume from the checkpoint and finish.
			got, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, Resume: true})
			if err != nil {
				t.Fatalf("kill=%d resume: %v", kill, err)
			}
			if got != goldenCSV {
				t.Errorf("kill=%d: resumed CSV differs from uninterrupted run:\n--- resumed ---\n%s--- golden ---\n%s",
					kill, got, goldenCSV)
			}
		}
		// Resuming an already-complete checkpoint re-runs nothing and
		// still reports the same bytes.
		ckpt := filepath.Join(t.TempDir(), "done.ckpt")
		if _, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt}); err != nil {
			t.Fatal(err)
		}
		got, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if got != goldenCSV {
			t.Error("resume of a complete checkpoint drifted")
		}
	})
}

func TestCrashResumeWithFineCheckpointCadence(t *testing.T) {
	// Same equivalence with CheckpointEvery=1 (a checkpoint after every
	// replicate) and a many-worker pool: out-of-order completions leave
	// mid-cell watermarks, and resume still lands on the golden bytes.
	cache := circuits.NewCache()
	cfg := crashConfig()
	cfg.Workers = 8
	golden, err := newSweeper(t, cfg, cache).Run()
	if err != nil {
		t.Fatal(err)
	}
	forEachKind(t, func(t *testing.T, k runKind) {
		ckpt := filepath.Join(t.TempDir(), "fine.ckpt")
		s := newSweeper(t, cfg, cache)
		// Two thirds of the run's tasks: 4 of the whole run's 6.
		kill := 2 * k.tasks(s) / 3
		if _, err := k.run(s, RunOptions{Checkpoint: ckpt, CheckpointEvery: 1, MaxNewTasks: kill}); !errors.Is(err, ErrPaused) {
			t.Fatalf("pause: %v", err)
		}
		got, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if got != golden.CSV() {
			t.Error("fine-cadence resume drifted from golden")
		}
	})
}

func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	// A checkpoint written by a different grid config must be rejected
	// by name (with the file path), never silently resumed.
	cache := circuits.NewCache()
	cfg := crashConfig()
	forEachKind(t, func(t *testing.T, k runKind) {
		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		if _, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, MaxNewTasks: 2}); !errors.Is(err, ErrPaused) {
			t.Fatal(err)
		}
		other := cfg
		other.Seed = 77 // different lots, same shape: only the fingerprint can tell
		_, err := k.run(newSweeper(t, other, cache), RunOptions{Checkpoint: ckpt, Resume: true})
		if !errors.Is(err, campaign.ErrMismatch) {
			t.Fatalf("foreign checkpoint: err = %v, want campaign.ErrMismatch", err)
		}
		if !strings.Contains(err.Error(), ckpt) {
			t.Errorf("error does not name the checkpoint path: %v", err)
		}
		// Corruption on the resume path reports the file too.
		if err := os.WriteFile(ckpt, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, Resume: true})
		if !errors.Is(err, campaign.ErrCorrupt) || !strings.Contains(err.Error(), ckpt) {
			t.Fatalf("corrupt checkpoint: err = %v", err)
		}
	})
}

func TestInterruptDrainsAndResumes(t *testing.T) {
	// The graceful-shutdown path: an interrupt that fires immediately
	// drains whatever was in flight, checkpoints, and the resumed run
	// matches the golden bytes.
	cache := circuits.NewCache()
	cfg := crashConfig()
	golden, err := newSweeper(t, cfg, cache).Run()
	if err != nil {
		t.Fatal(err)
	}
	forEachKind(t, func(t *testing.T, k runKind) {
		interrupt := make(chan struct{})
		close(interrupt)
		ckpt := filepath.Join(t.TempDir(), "int.ckpt")
		_, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, Interrupt: interrupt})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupt: err = %v, want ErrInterrupted", err)
		}
		got, err := k.run(newSweeper(t, cfg, cache), RunOptions{Checkpoint: ckpt, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if got != golden.CSV() {
			t.Error("post-interrupt resume drifted from golden")
		}
	})
}

func TestResumeReportsRestoredState(t *testing.T) {
	// A resumed run reports what it restored before any worker starts:
	// OnProgress once with the restored count, and (whole run)
	// OnCellUpdate once per restored cell, in cell order. A complete
	// checkpoint runs nothing, so that first report is all there is.
	cache := circuits.NewCache()
	cfg := crashConfig()
	forEachKind(t, func(t *testing.T, k runKind) {
		ckpt := filepath.Join(t.TempDir(), "done.ckpt")
		s := newSweeper(t, cfg, cache)
		if _, err := k.run(s, RunOptions{Checkpoint: ckpt}); err != nil {
			t.Fatal(err)
		}
		var progress [][2]int
		var cells []int
		opts := RunOptions{
			Checkpoint: ckpt,
			Resume:     true,
			OnProgress: func(done, total int) { progress = append(progress, [2]int{done, total}) },
			OnCellUpdate: func(cell int, snap campaign.CellSnapshot) {
				if snap.Done != cfg.Replicates {
					t.Errorf("cell %d restored at done=%d, want %d", cell, snap.Done, cfg.Replicates)
				}
				cells = append(cells, cell)
			},
		}
		if k.shard == campaign.FullShard {
			_, err := s.RunWith(opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := []int{0, 1}; !reflect.DeepEqual(cells, want) {
				t.Errorf("restored cell updates %v, want %v", cells, want)
			}
		} else if _, err := s.RunShard(k.shard, opts); err != nil {
			t.Fatal(err)
		}
		owned := k.tasks(s)
		if want := [][2]int{{owned, owned}}; !reflect.DeepEqual(progress, want) {
			t.Errorf("progress reports %v, want %v", progress, want)
		}
	})
}

func TestShardMergeByteIdenticalToSerial(t *testing.T) {
	// The multi-process story end to end, in process: split the grid
	// into n shards by global task index, run each shard separately,
	// merge, and require the merged CSV — Welford CI bounds included —
	// byte-identical to the serial run, for n in {2, 3, 8}.
	cache := circuits.NewCache()
	cfg := crashConfig()
	serial, err := newSweeper(t, cfg, cache).Run()
	if err != nil {
		t.Fatal(err)
	}
	serialCSV := serial.CSV()
	for _, n := range []int{2, 3, 8} {
		shards := make([]*campaign.ShardResult, n)
		for i := 0; i < n; i++ {
			sr, err := newSweeper(t, cfg, cache).RunShard(campaign.Shard{Index: i, Count: n}, RunOptions{})
			if err != nil {
				t.Fatalf("n=%d shard %d: %v", n, i, err)
			}
			shards[i] = sr
		}
		merged, err := newSweeper(t, cfg, cache).MergeShards(shards)
		if err != nil {
			t.Fatalf("n=%d merge: %v", n, err)
		}
		if got := merged.CSV(); got != serialCSV {
			t.Errorf("n=%d: merged CSV differs from serial run:\n--- merged ---\n%s--- serial ---\n%s",
				n, got, serialCSV)
		}
		if !reflect.DeepEqual(merged.Cells, serial.Cells) {
			t.Errorf("n=%d: merged cells differ beyond the CSV projection", n)
		}
	}
}

func TestShardFilesRoundTripThroughDisk(t *testing.T) {
	// The cmd/sweep -shard/-merge flow without the CLI: shard runs
	// write their files (the checkpoint IS the output), a killed shard
	// resumes from its partial file, and merging the files reproduces
	// the serial bytes.
	cache := circuits.NewCache()
	cfg := crashConfig()
	serialCSV := func() string {
		res, err := newSweeper(t, cfg, cache).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.CSV()
	}()
	dir := t.TempDir()
	const n = 2
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		sh := campaign.Shard{Index: i, Count: n}
		if i == 0 {
			// Kill shard 0 mid-run, then resume it from its file.
			_, err := newSweeper(t, cfg, cache).RunShard(sh, RunOptions{Checkpoint: paths[i], MaxNewTasks: 1})
			if !errors.Is(err, ErrPaused) {
				t.Fatalf("shard 0 pause: %v", err)
			}
		}
		if _, err := newSweeper(t, cfg, cache).RunShard(sh, RunOptions{Checkpoint: paths[i], Resume: true}); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	shards := make([]*campaign.ShardResult, n)
	for i, p := range paths {
		sr, err := campaign.LoadShard(p)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sr
	}
	merged, err := newSweeper(t, cfg, cache).MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.CSV() != serialCSV {
		t.Error("disk-merged CSV differs from serial run")
	}
	// Merging with one shard missing or duplicated fails by name.
	if _, err := newSweeper(t, cfg, cache).MergeShards(shards[:1]); !errors.Is(err, campaign.ErrShardMissing) {
		t.Errorf("missing shard: err = %v", err)
	}
	if _, err := newSweeper(t, cfg, cache).MergeShards([]*campaign.ShardResult{shards[0], shards[0]}); !errors.Is(err, campaign.ErrShardOverlap) {
		t.Errorf("overlapping shard: err = %v", err)
	}
}

func TestStreamingUpdatesTightenToFinal(t *testing.T) {
	// The incremental-results contract the daemon streams on: each
	// cell's watermark advances monotonically, every snapshot is the
	// exact prefix fold of that cell's replicate stream, and the last
	// snapshot per cell equals the final report (CIs have tightened all
	// the way to the published interval).
	cache := circuits.NewCache()
	cfg := crashConfig()
	cfg.Workers = 4
	type upd struct {
		done int
		snap campaign.CellSnapshot
	}
	got := map[int][]upd{}
	var mu sync.Mutex
	s := newSweeper(t, cfg, cache)
	res, err := s.RunWith(RunOptions{OnCellUpdate: func(cell int, snap campaign.CellSnapshot) {
		mu.Lock()
		got[cell] = append(got[cell], upd{done: snap.Done, snap: snap})
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Cells) {
		t.Fatalf("updates for %d cells, want %d", len(got), len(res.Cells))
	}
	for cell, ups := range got {
		prev := 0
		for _, u := range ups {
			if u.done <= prev {
				t.Fatalf("cell %d: watermark went %d -> %d", cell, prev, u.done)
			}
			prev = u.done
		}
		if prev != cfg.Replicates {
			t.Fatalf("cell %d: final watermark %d of %d", cell, prev, cfg.Replicates)
		}
		// The last streamed snapshot IS the final aggregate: its CI
		// bounds must match the published report exactly.
		last := ups[len(ups)-1].snap
		rej := campaign.FromState(last.Rej[0])
		lo, hi := rej.CI95()
		pt := res.Cells[cell].Points[0]
		if math.Max(0, lo) != pt.CILow || math.Min(1, hi) != pt.CIHigh {
			t.Fatalf("cell %d: streamed CI [%v,%v] vs final [%v,%v]", cell, lo, hi, pt.CILow, pt.CIHigh)
		}
	}
}

func TestFingerprintSeparatesCampaigns(t *testing.T) {
	base := crashConfig()
	fp := func(c Config) string {
		s, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	baseFP := fp(base)
	// Scheduling knobs don't change identity...
	same := base
	same.Workers = 13
	same.SimWorkers = 3
	if fp(same) != baseFP {
		t.Error("worker counts changed the fingerprint")
	}
	// ...every results-relevant axis does.
	for name, mutate := range map[string]func(*Config){
		"seed":       func(c *Config) { c.Seed++ },
		"yields":     func(c *Config) { c.Yields = []float64{0.3} },
		"n0s":        func(c *Config) { c.N0s = []float64{4} },
		"lot sizes":  func(c *Config) { c.LotSizes = []int{61} },
		"coverages":  func(c *Config) { c.Coverages = []float64{0.3} },
		"replicates": func(c *Config) { c.Replicates++ },
		"patterns":   func(c *Config) { c.RandomPatterns++ },
		"circuits":   func(c *Config) { c.Circuits = []string{"mul4"} },
	} {
		other := base
		mutate(&other)
		if fp(other) == baseFP {
			t.Errorf("%s change kept the fingerprint", name)
		}
	}
}
