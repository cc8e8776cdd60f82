package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep"
)

// runResult is what one untraced child process reports: its set-up
// time and heap, every campaign it timed, the CSV digest they all
// produced, and any output check that failed.
type runResult struct {
	SetupS    float64   `json:"setup_s"`
	HeapMB    float64   `json:"heap_mb"`
	CampaignS []float64 `json:"campaign_s"`
	Digest    string    `json:"digest"`
	Chips     int       `json:"chips"`
	Problems  []string  `json:"problems"`
}

// digest is the short SHA-256 of a campaign's CSV that the pinned
// table records.
func digest(csv string) string {
	sum := sha256.Sum256([]byte(csv))
	return hex.EncodeToString(sum[:8])
}

// childRun is the untraced measurement: one sweep.New, then whole
// campaigns until budget has passed (at least one).
func childRun(wl workload, seed int64, storeDir, work string, budget time.Duration) (runResult, error) {
	cfg := wl.Config(seed)
	cfg.PreparedDir = storeDir
	start := time.Now()
	s, err := sweep.New(cfg)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{SetupS: time.Since(start).Seconds(), HeapMB: liveHeapMB()}
	res.Chips = chipsPerCampaign(cfg, s.Workloads())

	ckpt := ""
	if wl.Checkpoint {
		ckpt = filepath.Join(work, "campaign.ckpt")
	}
	stop := time.Now().Add(budget)
	for len(res.CampaignS) == 0 || time.Now().Before(stop) {
		if ckpt != "" {
			// A leftover checkpoint of a finished campaign would resume
			// to zero work; every timed campaign starts fresh.
			if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
				return runResult{}, fmt.Errorf("perfbench: %w", err)
			}
		}
		t := time.Now()
		r, err := runCampaign(s, ckpt)
		if err != nil {
			return runResult{}, err
		}
		res.CampaignS = append(res.CampaignS, time.Since(t).Seconds())

		d := digest(r.CSV())
		if res.Digest == "" {
			res.Digest = d
			res.Problems = append(res.Problems, checkResult(s, cfg, r)...)
			if ckpt != "" {
				res.Problems = append(res.Problems, checkCheckpoint(s, cfg, ckpt)...)
			}
		} else if d != res.Digest {
			res.Problems = append(res.Problems, fmt.Sprintf("campaign %d CSV digest %s differs from the first campaign's %s",
				len(res.CampaignS), d, res.Digest))
		}
	}
	runtime.KeepAlive(s)
	return res, nil
}

// runCampaign runs the campaign once: plainly, or with the campaign
// daemon's durability options when ckpt names a checkpoint file.
func runCampaign(s *sweep.Sweeper, ckpt string) (*sweep.Result, error) {
	if ckpt == "" {
		return s.Run()
	}
	return s.RunWith(sweep.RunOptions{Checkpoint: ckpt, Resume: true, CheckpointEvery: checkpointEvery})
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkResult verifies a finished campaign's shape and every ATPG tally.
func checkResult(s *sweep.Sweeper, cfg sweep.Config, r *sweep.Result) []string {
	var problems []string
	for _, w := range r.Workloads {
		t := w.ATPG
		if t.Detected+t.Untestable+t.Aborted != t.Faults || t.Faults != w.FaultCount {
			problems = append(problems, fmt.Sprintf("%s: ATPG tally %+v does not partition %d faults", w.Name, t, w.FaultCount))
		}
	}
	if want := s.Layout().Cells; len(r.Cells) != want {
		problems = append(problems, fmt.Sprintf("result has %d cells, campaign has %d", len(r.Cells), want))
	}
	for _, c := range r.Cells {
		if c.Replicates != cfg.Replicates || len(c.Points) != len(cfg.Coverages) {
			problems = append(problems, fmt.Sprintf("cell %s y=%g n0=%g: %d replicates, %d cuts", c.Circuit, c.Yield, c.N0, c.Replicates, len(c.Points)))
		}
	}
	return problems
}

// checkCheckpoint verifies that the campaign left a loadable checkpoint
// holding every replicate.
func checkCheckpoint(s *sweep.Sweeper, cfg sweep.Config, path string) []string {
	key := campaign.Key{ConfigHash: s.Fingerprint(), Shard: campaign.FullShard}
	ck, err := campaign.LoadCheckpoint(path, key, s.Layout(), len(cfg.Coverages))
	if err != nil {
		return []string{fmt.Sprintf("checkpoint: %v", err)}
	}
	for i, c := range ck.Cells {
		if c.Done != cfg.Replicates {
			return []string{fmt.Sprintf("checkpoint cell %d holds %d of %d replicates", i, c.Done, cfg.Replicates)}
		}
	}
	return nil
}
