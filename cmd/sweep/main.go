// Command sweep runs the Monte-Carlo reject-rate validation: R
// replicate lots per grid cell of (circuit, yield, n0, lot size), each
// tested with that circuit's production program truncated at a set of
// coverage points, aggregated into mean reject rates with 95%
// confidence intervals and overlaid on the analytic Eq. 8 curve.
//
//	sweep -circuits mul8 -yields 0.07 -n0s 8,8.8 -chips 6000 -coverages 0.8,0.94 -replicates 30
//	sweep -circuits mul4,cmp8,rand7 -format csv > sweep.csv
//	sweep -circuits bench:circuits/ -format json -workers 8 -simworkers 4
//	sweep -list-circuits
//
// Campaigns are durable and shardable. -checkpoint snapshots progress
// atomically; -resume continues a killed run from its checkpoint with
// byte-identical final output. -shard i/n runs only every n-th
// replicate (writing a shard file via -checkpoint); -merge folds a
// complete set of shard files into the same bytes a serial run
// produces:
//
//	sweep -checkpoint run.ckpt -resume -format csv > sweep.csv
//	sweep -shard 0/2 -checkpoint s0.shard & sweep -shard 1/2 -checkpoint s1.shard
//	sweep -merge s0.shard,s1.shard -format csv > sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/experiment"
	"repro/internal/sweep"
)

func main() {
	circuitSpecs := flag.String("circuits", experiment.DefaultCircuitSpec,
		"comma-separated workload specs spanning the circuit axis (see -list-circuits)")
	listCircuits := flag.Bool("list-circuits", false, "print the workload spec grammar and exit")
	yields := flag.String("yields", "0.07", "comma-separated ground-truth yields")
	n0s := flag.String("n0s", "8.8", "comma-separated ground-truth n0 values")
	chips := flag.String("chips", "2000", "comma-separated lot sizes")
	coverages := flag.String("coverages", "0.5,0.8,0.94", "comma-separated coverage truncation targets")
	replicates := flag.Int("replicates", 20, "independent lots per grid cell")
	workers := flag.Int("workers", 0, "replicate worker pool size (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1981, "base seed; per-replicate seeds are derived deterministically")
	random := flag.Int("random", 192, "random patterns before PODEM cleanup")
	physical := flag.Bool("physical", false, "generate lots through the physical-defect layer")
	simWorkers := flag.Int("simworkers", 0, "fault-list shards (0 = one)")
	sampleFaults := flag.Int("sample-faults", 0,
		"prepare each circuit against a deterministic random sample of at most N collapsed fault classes (0 = full universe)")
	backtrackLimit := flag.Int("backtrack-limit", 0,
		"PODEM backtrack budget per fault during cleanup ATPG (0 = generator default)")
	preparedDir := flag.String("prepared-dir", "",
		"on-disk Prepared store: reuse test programs and coverage ramps across processes (byte-identical results)")
	format := flag.String("format", "table", "output format: table, csv, json")
	plot := flag.Bool("plot", true, "append the reject-rate overlay plot (table format only)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: campaign snapshots are written here atomically (shard output file with -shard)")
	resume := flag.Bool("resume", false, "resume from -checkpoint if it exists (a missing file is a fresh start)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "also checkpoint every N folded replicates (0: only at cell completions)")
	shardSpec := flag.String("shard", "", "run only shard i/n of the campaign, e.g. 0/4; requires -checkpoint, output is a shard file")
	mergeList := flag.String("merge", "", "comma-separated shard files to merge instead of running (all shards of one campaign)")
	flag.Parse()

	if *listCircuits {
		fmt.Print(circuits.List())
		return
	}
	job := jobFlags{
		checkpoint:      *checkpoint,
		resume:          *resume,
		checkpointEvery: *checkpointEvery,
		shard:           *shardSpec,
		merge:           *mergeList,
	}
	prep := prepFlags{
		sampleFaults:   *sampleFaults,
		backtrackLimit: *backtrackLimit,
		preparedDir:    *preparedDir,
	}
	if err := run(*circuitSpecs, *yields, *n0s, *chips, *coverages, *replicates, *workers, *seed,
		*random, *physical, *simWorkers, *format, *plot, job, prep); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// jobFlags are the durability and distribution flags: checkpoint/resume
// for crash recovery, shard/merge for multi-process campaigns.
type jobFlags struct {
	checkpoint      string
	resume          bool
	checkpointEvery int
	shard           string
	merge           string
}

// prepFlags are the ISCAS-scale preparation knobs: fault sampling, the
// ATPG backtrack budget, and the on-disk Prepared store.
type prepFlags struct {
	sampleFaults   int
	backtrackLimit int
	preparedDir    string
}

func run(circuitSpecs, yields, n0s, chips, coverages string, replicates, workers int, seed int64,
	random int, physical bool, simWorkers int, format string, plot bool,
	job jobFlags, prep prepFlags) error {
	specs := splitList(circuitSpecs)
	if len(specs) == 0 {
		return fmt.Errorf("-circuits: need at least one workload spec")
	}
	ys, err := parseFloats(yields)
	if err != nil {
		return fmt.Errorf("-yields: %w", err)
	}
	ns, err := parseFloats(n0s)
	if err != nil {
		return fmt.Errorf("-n0s: %w", err)
	}
	lots, err := parseInts(chips)
	if err != nil {
		return fmt.Errorf("-chips: %w", err)
	}
	covs, err := parseFloats(coverages)
	if err != nil {
		return fmt.Errorf("-coverages: %w", err)
	}
	switch format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want table, csv, or json)", format)
	}
	cfg := sweep.Config{
		Circuits:       specs,
		Yields:         ys,
		N0s:            ns,
		LotSizes:       lots,
		Coverages:      covs,
		Replicates:     replicates,
		Workers:        workers,
		RandomPatterns: random,
		Seed:           seed,
		Physical:       physical,
		SimWorkers:     simWorkers,
		SampleFaults:   prep.sampleFaults,
		BacktrackLimit: prep.backtrackLimit,
		PreparedDir:    prep.preparedDir,
	}
	// Fail fast on nonsense grids or unknown specs before any ATPG.
	if err := cfg.Validate(); err != nil {
		return err
	}
	res, err := execute(cfg, job)
	if err != nil || res == nil {
		return err
	}
	switch format {
	case "csv":
		fmt.Print(res.CSV())
	case "json":
		out, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Print(out)
	default:
		fmt.Println(res.Table())
		if plot {
			fmt.Println(res.Plot())
		}
	}
	return nil
}

// execute runs the campaign through the job engine: plain run,
// checkpointed run, one shard of a partition, or a merge of finished
// shard files — all producing the same bytes for the same config.
func execute(cfg sweep.Config, job jobFlags) (*sweep.Result, error) {
	if job.merge != "" && job.shard != "" {
		return nil, fmt.Errorf("-merge and -shard are mutually exclusive")
	}
	if job.merge != "" {
		paths := splitList(job.merge)
		shards := make([]*campaign.ShardResult, len(paths))
		for i, p := range paths {
			sr, err := campaign.LoadShard(p)
			if err != nil {
				return nil, err
			}
			shards[i] = sr
		}
		sw, err := sweep.New(cfg)
		if err != nil {
			return nil, err
		}
		return sw.MergeShards(shards)
	}
	opts := sweep.RunOptions{
		Checkpoint:      job.checkpoint,
		Resume:          job.resume,
		CheckpointEvery: job.checkpointEvery,
	}
	if job.shard != "" {
		if job.checkpoint == "" {
			return nil, fmt.Errorf("-shard requires -checkpoint (the shard output file)")
		}
		sh, err := campaign.ParseShard(job.shard)
		if err != nil {
			return nil, err
		}
		sw, err := sweep.New(cfg)
		if err != nil {
			return nil, err
		}
		sr, err := sw.RunShard(sh, opts)
		if err != nil {
			return nil, err
		}
		// The shard file IS the output; there is nothing to render
		// until -merge folds the full set.
		fmt.Fprintf(os.Stderr, "sweep: shard %s complete: %d replicate summaries in %s (merge with -merge)\n",
			sh, len(sr.Summaries), job.checkpoint)
		return nil, nil
	}
	sw, err := sweep.New(cfg)
	if err != nil {
		return nil, err
	}
	return sw.RunWith(opts)
}

// splitList splits a comma-separated list, dropping empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
