package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/campaign"
	"repro/internal/circuits"
	"repro/internal/defect"
	"repro/internal/dist"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logicsim"
	"repro/internal/sweep"
	"repro/internal/tester"
)

// traceResult is what the traced child reports: summed stage counters
// and times, per-lot samples, and the campaign digest its replica of
// the lot loop produced.
type traceResult struct {
	// Sums are additive stage metrics, summed over circuits (times in
	// ms, sizes and counts as named).
	Sums map[string]float64 `json:"sums"`
	// Lots holds one sample per lot, per layer, in ms.
	Lots map[string][]float64 `json:"lots"`
	// ColdStagesMS is the sum of the cold Prepare stages, WarmStagesMS
	// that of the warm (store read) path.
	ColdStagesMS float64 `json:"cold_stages_ms"`
	WarmStagesMS float64 `json:"warm_stages_ms"`
	// SetupS is the traced set-up wall time along the path the
	// workload's untraced set-up takes; CampaignS the traced lot loop.
	SetupS    float64  `json:"setup_s"`
	CampaignS float64  `json:"campaign_s"`
	Digest    string   `json:"digest"`
	Problems  []string `json:"problems"`
}

// stageClock accumulates one goroutine's stage times and counters.
type stageClock map[string]float64

// since adds the milliseconds since t to stage name and returns now.
func (sc stageClock) since(name string, t time.Time) time.Time {
	now := time.Now()
	sc[name] += float64(now.Sub(t).Nanoseconds()) / 1e6
	return now
}

// prepareParams is the preparation key sweep.New derives from cfg.
func prepareParams(cfg sweep.Config) circuits.Params {
	return experiment.Table1Config{
		Chips:          cfg.LotSizes[0],
		Yield:          cfg.Yields[0],
		N0:             cfg.N0s[0],
		RandomPatterns: cfg.RandomPatterns,
		Seed:           cfg.Seed,
		Physical:       cfg.Physical,
		Engine:         cfg.Engine,
		SimWorkers:     cfg.SimWorkers,
		BacktrackLimit: cfg.BacktrackLimit,
		SampleFaults:   cfg.SampleFaults,
		LotEngine:      cfg.LotEngine,
	}.PrepareParams()
}

// coldStageNames are the timed stages of a cold Prepare, in order.
var coldStageNames = []string{
	"netlist.resolve_ms", "netlist.stats_ms", "fault.collapse_ms", "atpg.base_ms",
	"logicsim.flat_coneset_ms", "atpg.grade_ms", "atpg.cleanup_ms",
	"logicsim.ptr_coneset_ms", "faultsim.steps_ms", "circuits.ramp_ms",
}

// stagedPrepare is circuits.PrepareSpec split at its public calls, in
// their order, with each stage timed. The first-use cone compilations
// are pulled out ahead of the stage that would otherwise pay them.
func stagedPrepare(spec string, p circuits.Params) (*circuits.Prepared, stageClock, error) {
	sc := stageClock{}
	t := time.Now()
	c, err := circuits.Resolve(spec)
	if err != nil {
		return nil, nil, err
	}
	t = sc.since("netlist.resolve_ms", t)
	stats, err := c.ComputeStats()
	if err != nil {
		return nil, nil, err
	}
	t = sc.since("netlist.stats_ms", t)

	full := fault.Reps(fault.CollapseEquivalence(c, fault.AllFaults(c)))
	universe, sampled := full, false
	if p.SampleFaults > 0 && p.SampleFaults < len(full) {
		universe, sampled = sampleFaults(full, p.SampleFaults, p.Seed), true
	}
	sc["fault.universe"] = float64(len(full))
	sc["fault.working"] = float64(len(universe))
	t = sc.since("fault.collapse_ms", t)

	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	patterns, err := atpg.ProductionPatterns(len(c.Inputs), p.RandomPatterns/2, p.RandomPatterns/2, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	base := len(patterns)
	t = sc.since("atpg.base_ms", t)

	heap0 := liveHeapMB()
	t = time.Now()
	if _, err := logicsim.FlatConeSetFor(c); err != nil {
		return nil, nil, err
	}
	t = sc.since("logicsim.flat_coneset_ms", t)

	opts := faultsim.Options{Workers: p.SimWorkers}
	detected := make([]bool, len(universe))
	if len(patterns) > 0 && len(universe) > 0 {
		res, err := faultsim.RunOpts(c, universe, patterns, p.Engine, opts)
		if err != nil {
			return nil, nil, err
		}
		for fi, d := range res.FirstDetect {
			detected[fi] = d != faultsim.NotDetected
		}
	}
	t = sc.since("atpg.grade_ms", t)

	// The cleanup loop of atpg.CleanupTestsBudget: PODEM per undetected
	// fault, then drop-simulate each new pattern over what remains.
	gen, err := atpg.NewPodem(c)
	if err != nil {
		return nil, nil, err
	}
	gen.BacktrackLimit = p.BacktrackLimit
	tally := atpg.Tally{Faults: len(universe)}
	aborted := make([]bool, len(universe))
	for fi, f := range universe {
		if detected[fi] {
			continue
		}
		sc["atpg.targets"]++
		tp := time.Now()
		pattern, status := gen.Generate(f)
		tp = sc.since("atpg.podem_ms", tp)
		if status != atpg.Detected {
			switch status {
			case atpg.Untestable:
				tally.Untestable++
			case atpg.Aborted:
				aborted[fi] = true
			}
			continue
		}
		patterns = append(patterns, pattern)
		var remaining []fault.Fault
		var idx []int
		for ri := range universe {
			if !detected[ri] {
				remaining = append(remaining, universe[ri])
				idx = append(idx, ri)
			}
		}
		one, err := faultsim.RunOpts(c, remaining, []logicsim.Pattern{pattern}, p.Engine, opts)
		if err != nil {
			return nil, nil, err
		}
		for ri, d := range one.FirstDetect {
			if d != faultsim.NotDetected {
				detected[idx[ri]] = true
			}
		}
		sc.since("atpg.drop_ms", tp)
	}
	for fi, d := range detected {
		switch {
		case d:
			tally.Detected++
		case aborted[fi]:
			tally.Aborted++
		}
	}
	sc["atpg.aborted"] = float64(tally.Aborted)
	sc["atpg.untestable"] = float64(tally.Untestable)
	sc["atpg.patterns_added"] = float64(len(patterns) - base)
	t = sc.since("atpg.cleanup_ms", t)

	if _, err := logicsim.ConeSetFor(c); err != nil {
		return nil, nil, err
	}
	t = sc.since("logicsim.ptr_coneset_ms", t)
	sc["logicsim.coneset_heap_mb"] = liveHeapMB() - heap0
	t = time.Now()

	simRes, err := faultsim.RunStepsOpts(c, universe, patterns, p.Engine, opts)
	if err != nil {
		return nil, nil, err
	}
	sc["faultsim.fault_patterns"] = float64(len(universe) * len(patterns))
	t = sc.since("faultsim.steps_ms", t)

	ramp := faultsim.SparseRamp(simRes)
	hits := 0
	for _, d := range simRes.FirstDetect {
		if d != faultsim.NotDetected {
			hits++
		}
	}
	ciLo, ciHi := simRes.Coverage(), simRes.Coverage()
	if sampled {
		ciLo, ciHi, err = dist.SampleCoverageCI(len(full), len(universe), hits, 0.95)
		if err != nil {
			return nil, nil, err
		}
	}
	sc.since("circuits.ramp_ms", t)
	return &circuits.Prepared{
		Circuit:        c,
		Stats:          stats,
		Params:         p,
		UniverseSize:   len(full),
		Sampled:        sampled,
		Universe:       universe,
		Patterns:       patterns,
		ATPG:           tally,
		Curve:          ramp,
		Result:         simRes,
		CoverageCILow:  ciLo,
		CoverageCIHigh: ciHi,
	}, sc, nil
}

// childTrace is the traced run. It prepares every circuit stage by
// stage, saves and reloads the artifacts, then runs the campaign
// through a replica of the sweep's lot loop timed layer by layer, and
// finally times LotRunner.RunLotWith itself on every task.
func childTrace(wl workload, seed int64, refStore, work string) (traceResult, error) {
	cfg := wl.Config(seed)
	units, err := circuits.ExpandAll(cfg.Circuits)
	if err != nil {
		return traceResult{}, err
	}
	params := prepareParams(cfg)
	tr := traceResult{Sums: map[string]float64{}, Lots: map[string][]float64{}}

	// Cold stages, one goroutine per circuit as sweep.New fans out.
	preps := make([]*circuits.Prepared, len(units))
	clocks := make([]stageClock, len(units))
	errs := make([]error, len(units))
	start := time.Now()
	var wg sync.WaitGroup
	for i, unit := range units {
		wg.Add(1)
		go func(i int, unit string) {
			defer wg.Done()
			preps[i], clocks[i], errs[i] = stagedPrepare(unit, params)
		}(i, unit)
	}
	wg.Wait()
	coldWall := time.Since(start)
	for i := range units {
		if errs[i] != nil {
			return traceResult{}, errs[i]
		}
		for k, v := range clocks[i] {
			tr.Sums[k] += v
		}
	}
	for _, name := range coldStageNames {
		tr.ColdStagesMS += tr.Sums[name]
	}

	// Store write, checked byte for byte against the program's own.
	storeDir := filepath.Join(work, "trace-store")
	st, err := circuits.NewStore(storeDir)
	if err != nil {
		return traceResult{}, err
	}
	sc := stageClock{}
	t := time.Now()
	for _, pr := range preps {
		if err := st.Save(pr); err != nil {
			return traceResult{}, err
		}
	}
	sc.since("circuits.store_save_ms", t)
	saveWall := time.Since(t)
	if refStore == "" {
		refStore = filepath.Join(work, "ref-store")
		if err := fillRefStore(refStore, units, params); err != nil {
			return traceResult{}, err
		}
	}
	bytesOut, problems, err := compareStores(storeDir, refStore)
	if err != nil {
		return traceResult{}, err
	}
	sc["circuits.store_bytes"] = float64(bytesOut)
	tr.Problems = append(tr.Problems, problems...)
	if wl.Store == storeCold {
		tr.ColdStagesMS += sc["circuits.store_save_ms"]
		coldWall += saveWall
	}

	// Warm path: resolve and read the store, as a warm sweep.New does.
	t = time.Now()
	for _, unit := range units {
		tw := time.Now()
		c, err := circuits.Resolve(unit)
		if err != nil {
			return traceResult{}, err
		}
		tw = sc.since("circuits.warm_resolve_ms", tw)
		if _, err := st.Load(c, params); err != nil {
			return traceResult{}, err
		}
		sc.since("circuits.store_load_ms", tw)
	}
	warmWall := time.Since(t)
	tr.WarmStagesMS = sc["circuits.warm_resolve_ms"] + sc["circuits.store_load_ms"]
	for k, v := range sc {
		tr.Sums[k] += v
	}
	tr.SetupS = coldWall.Seconds()
	if wl.Store == storeWarm {
		tr.SetupS = warmWall.Seconds()
	}

	// The campaign runs over the artifacts just saved.
	cfg.Cache = circuits.NewCacheWithStore(st)
	s, err := sweep.New(cfg)
	if err != nil {
		return traceResult{}, err
	}
	lp, err := newLotPlan(s, cfg)
	if err != nil {
		return traceResult{}, err
	}
	ckpt := ""
	if wl.Checkpoint {
		ckpt = filepath.Join(work, "trace.ckpt")
	}
	t = time.Now()
	store, ffHash, err := lp.stagedCampaign(&tr, ckpt)
	if err != nil {
		return traceResult{}, err
	}
	tr.CampaignS = time.Since(t).Seconds()

	if ckpt == "" {
		// One checkpoint write outside the timed loop, so every
		// workload reports the cost of persisting its campaign.
		if err := lp.checkpoint(&tr, store, filepath.Join(work, "trace.ckpt")); err != nil {
			return traceResult{}, err
		}
	}
	r, err := s.ResultFrom(store.Snapshot())
	if err != nil {
		return traceResult{}, err
	}
	tr.Digest = digest(r.CSV())
	tr.Problems = append(tr.Problems, checkResult(s, cfg, r)...)

	mismatch, err := lp.runnerCampaign(&tr, ffHash)
	if err != nil {
		return traceResult{}, err
	}
	if mismatch > 0 {
		tr.Problems = append(tr.Problems, fmt.Sprintf("%d lots: RunLotWith first-fail vectors differ from the staged lot loop's", mismatch))
	}
	return tr, nil
}

// fillRefStore prepares every unit with the program's own
// circuits.Prepare and saves the artifacts, for workloads whose
// untraced runs write no store.
func fillRefStore(dir string, units []string, p circuits.Params) error {
	st, err := circuits.NewStore(dir)
	if err != nil {
		return err
	}
	for _, unit := range units {
		pr, err := circuits.PrepareSpec(unit, p)
		if err != nil {
			return err
		}
		if err := st.Save(pr); err != nil {
			return err
		}
	}
	return nil
}

// compareStores checks that every artifact in got has a byte-identical
// twin in want, and returns the bytes got holds.
func compareStores(got, want string) (int64, []string, error) {
	entries, err := os.ReadDir(got)
	if err != nil {
		return 0, nil, fmt.Errorf("perfbench: %w", err)
	}
	var total int64
	var problems []string
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			return 0, nil, fmt.Errorf("perfbench: %w", err)
		}
		total += int64(len(a))
		b, err := os.ReadFile(filepath.Join(want, e.Name()))
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("staged artifact %s has no twin in the program's store: %v", e.Name(), err))
		case !bytes.Equal(a, b):
			problems = append(problems, fmt.Sprintf("staged artifact %s differs from the program's", e.Name()))
		}
	}
	if len(entries) == 0 {
		problems = append(problems, "staged Prepare saved no artifact")
	}
	return total, problems, nil
}

// lotPlan is the campaign's task geometry resolved against the
// Sweeper: per cell its workload and ground truth, per workload its
// cuts and Table 1 reduction points.
type lotPlan struct {
	s       *sweep.Sweeper
	cfg     sweep.Config
	cells   []sweep.CellInfo
	cellW   []int
	cuts    [][]int
	ckpts   [][]int
	workers int
}

func newLotPlan(s *sweep.Sweeper, cfg sweep.Config) (*lotPlan, error) {
	lp := &lotPlan{s: s, cfg: cfg, cells: s.Cells(), workers: cfg.Workers}
	byName := map[string]int{}
	for w := 0; w < s.Workloads(); w++ {
		pr := s.Runner(w).Prepared()
		byName[pr.Circuit.Name] = w
		var cuts []int
		for _, target := range cfg.Coverages {
			pt, ok := pr.Curve.FirstReaching(target)
			if !ok {
				return nil, fmt.Errorf("perfbench: coverage %v unreachable on %s", target, pr.Circuit.Name)
			}
			cuts = append(cuts, pt.Pattern)
		}
		lp.cuts = append(lp.cuts, cuts)
		lp.ckpts = append(lp.ckpts, rampCheckpoints(pr.Curve, 10))
	}
	for _, c := range lp.cells {
		lp.cellW = append(lp.cellW, byName[c.Circuit])
	}
	return lp, nil
}

// lotStats is one worker's share of the per-lot samples.
type lotStats struct {
	lots     map[string][]float64
	newATEMS float64
	strobes  float64
	escapes  float64
	bad      float64
}

// pool runs every task on cfg.Workers goroutines, each holding one ATE
// per workload as the sweep's pool does; work returns the first error.
func (lp *lotPlan) pool(work func(ls *lotStats, ate *tester.ATE, task int) error) ([]*lotStats, error) {
	layout := lp.s.Layout()
	tasks := make(chan int, layout.Tasks())
	for t := 0; t < layout.Tasks(); t++ {
		tasks <- t
	}
	close(tasks)
	stats := make([]*lotStats, lp.workers)
	errs := make([]error, lp.workers)
	var wg sync.WaitGroup
	for w := 0; w < lp.workers; w++ {
		stats[w] = &lotStats{lots: map[string][]float64{}}
		wg.Add(1)
		go func(ls *lotStats, errp *error) {
			defer wg.Done()
			ates := make([]*tester.ATE, lp.s.Workloads())
			for task := range tasks {
				wi := lp.cellW[task/lp.cfg.Replicates]
				if ates[wi] == nil {
					t := time.Now()
					ate, err := lp.s.Runner(wi).NewATE()
					if err != nil {
						*errp = err
						return
					}
					ls.newATEMS += float64(time.Since(t).Nanoseconds()) / 1e6
					ates[wi] = ate
				}
				if err := work(ls, ates[wi], task); err != nil {
					*errp = err
					return
				}
			}
		}(stats[w], &errs[w])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// stagedCampaign replays Sweeper.RunWith's lot loop through the public
// calls LotRunner.RunLotWith makes — defect manufacture, the ATE, the
// Table 1 reduction and the n0 fit — then the campaign store fold and,
// where the workload checkpoints, the daemon's checkpoint cadence. It
// returns the folded store and a hash of every lot's first-fail vector.
func (lp *lotPlan) stagedCampaign(tr *traceResult, ckpt string) (*campaign.Store, []uint64, error) {
	layout := lp.s.Layout()
	store, err := campaign.NewStore(layout, len(lp.cfg.Coverages))
	if err != nil {
		return nil, nil, err
	}
	ffHash := make([]uint64, layout.Tasks())
	var ckptMu sync.Mutex
	var sinceCkpt int
	stats, err := lp.pool(func(ls *lotStats, ate *tester.ATE, task int) error {
		ci := task / lp.cfg.Replicates
		cell, wi := lp.cells[ci], lp.cellW[ci]
		pr := lp.s.Runner(wi).Prepared()
		rng := rand.New(rand.NewSource(replicateSeed(lp.cfg.Seed, task)))

		t := time.Now()
		lot, err := defect.GenerateLotFromModel(cell.Yield, cell.N0, pr.Universe, cell.Chips, rng)
		if err != nil {
			return err
		}
		ls.lots["defect.lot_ms"] = append(ls.lots["defect.lot_ms"], msSince(t))

		t = time.Now()
		res, err := ate.TestLotSteps(lot)
		if err != nil {
			return err
		}
		ls.lots["tester.lot_ms"] = append(ls.lots["tester.lot_ms"], msSince(t))

		t = time.Now()
		rows, err := tester.FalloutTableRamp(res, pr.Curve, lp.ckpts[wi])
		if err != nil {
			return err
		}
		curve := make(estimate.Curve, len(rows))
		for i, r := range rows {
			curve[i] = estimate.FalloutPoint{F: r.Coverage, Fail: r.CumFracton}
		}
		fit, fitErr := estimate.FitN0(curve, cell.Yield)
		ls.lots["experiment.reduce_ms"] = append(ls.lots["experiment.reduce_ms"], msSince(t))

		good := 0
		for _, ch := range lot.Chips {
			if !ch.Defective() {
				good++
			}
		}
		sum := campaign.Summary{
			Passed:      make([]int, len(lp.cuts[wi])),
			Escapes:     make([]int, len(lp.cuts[wi])),
			TestedYield: res.TestedYield,
			LotYield:    lot.Yield,
			TrueN0:      lot.MeanFaultsOnDefective(),
		}
		for k, step := range lp.cuts[wi] {
			failed := 0
			for _, ff := range res.FirstFail {
				if ff != tester.NeverFails && ff <= step {
					failed++
				}
			}
			sum.Passed[k] = cell.Chips - failed
			sum.Escapes[k] = sum.Passed[k] - good
		}
		if fitErr == nil {
			sum.FitOK, sum.FitN0 = true, fit.N0
		}
		// Fault-free chips never reach the tester's simulation, so the
		// strobe count is over defective chips only.
		for i, ff := range res.FirstFail {
			switch {
			case !lot.Chips[i].Defective():
			case ff == tester.NeverFails:
				ls.strobes += float64(pr.Curve.Steps)
			default:
				ls.strobes += float64(ff + 1)
			}
		}
		ls.escapes += float64(res.Escapes)
		ls.bad += float64(cell.Chips - good)
		ffHash[task] = hashInts(res.FirstFail)

		t = time.Now()
		_, done, err := store.Add(task, sum)
		if err != nil {
			return err
		}
		ls.lots["campaign.fold_us"] = append(ls.lots["campaign.fold_us"], msSince(t)*1000)
		if ckpt == "" {
			return nil
		}
		// RunWith's cadence: every completed cell, and every
		// checkpointEvery other folded replicates.
		ckptMu.Lock()
		defer ckptMu.Unlock()
		if done != layout.Replicates {
			if sinceCkpt++; sinceCkpt < checkpointEvery {
				return nil
			}
			sinceCkpt = 0
		}
		return lp.checkpoint(tr, store, ckpt)
	})
	if err != nil {
		return nil, nil, err
	}
	if ckpt != "" {
		// RunWith's closing write.
		if err := lp.checkpoint(tr, store, ckpt); err != nil {
			return nil, nil, err
		}
	}
	for _, ls := range stats {
		for k, v := range ls.lots {
			tr.Lots[k] = append(tr.Lots[k], v...)
		}
		tr.Sums["tester.new_ate_ms"] += ls.newATEMS
		tr.Sums["tester.strobes"] += ls.strobes
		tr.Sums["tester.escapes"] += ls.escapes
		tr.Sums["tester.defective"] += ls.bad
	}
	return store, ffHash, nil
}

// checkpoint writes the folded campaign to path and records the time
// and the file size.
func (lp *lotPlan) checkpoint(tr *traceResult, store *campaign.Store, path string) error {
	key := campaign.Key{ConfigHash: lp.s.Fingerprint(), Shard: campaign.FullShard}
	t := time.Now()
	if err := campaign.WriteCheckpoint(path, &campaign.Checkpoint{Key: key, Cells: store.Snapshot()}); err != nil {
		return err
	}
	tr.Lots["campaign.checkpoint_ms"] = append(tr.Lots["campaign.checkpoint_ms"], msSince(t))
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	tr.Sums["campaign.checkpoint_bytes"] = float64(fi.Size())
	return nil
}

// runnerCampaign times LotRunner.RunLotWith on every task over the
// same pool and returns how many lots' first-fail vectors differ from
// the staged loop's.
func (lp *lotPlan) runnerCampaign(tr *traceResult, ffHash []uint64) (int, error) {
	var mu sync.Mutex
	mismatch := 0
	stats, err := lp.pool(func(ls *lotStats, ate *tester.ATE, task int) error {
		ci := task / lp.cfg.Replicates
		cell := lp.cells[ci]
		t := time.Now()
		out, err := lp.s.Runner(lp.cellW[ci]).RunLotWith(ate, cell.Yield, cell.N0, cell.Chips, replicateSeed(lp.cfg.Seed, task))
		if err != nil {
			return err
		}
		ls.lots["experiment.lot_ms"] = append(ls.lots["experiment.lot_ms"], msSince(t))
		if hashInts(out.FirstFail) != ffHash[task] {
			mu.Lock()
			mismatch++
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, ls := range stats {
		tr.Lots["experiment.lot_ms"] = append(tr.Lots["experiment.lot_ms"], ls.lots["experiment.lot_ms"]...)
	}
	return mismatch, nil
}

// hashInts is a 64-bit FNV-1a hash of an int vector.
func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := uint64(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
