package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pinnedJSON maps workload → config seed → the CSV digest of that
// campaign, recorded with --pin. A config seed without an entry is
// still checked for agreement across every process of the run that
// uses it (on lsi-warm, the fill run and every timed run).
//
//go:embed pinned.json
var pinnedJSON []byte

// pinFile is pinnedJSON's path from the repository root.
const pinFile = "perfbench/pinned.json"

// runLimit bounds a whole benchmark run; children get what is left.
const runLimit = 170 * time.Second

// Per-child deadlines, before the run limit trims them.
const (
	runChildSlack = 90 * time.Second
	traceDeadline = 150 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs one benchmark invocation's child processes.
type parent struct {
	ctx  context.Context
	wl   workload
	exe  string
	work string
	end  time.Time
	led  ledger
	pins map[string]string
	seen map[int64]string
}

// agree checks a campaign digest against the pinned one for its config
// seed, or against the first digest the run saw for it.
func (d *parent) agree(name string, cseed int64, got string) bool {
	want := d.pins[strconv.FormatInt(cseed, 10)]
	if want == "" {
		if d.seen[cseed] == "" {
			fmt.Printf("note: no pinned digest for %s config seed %d; checking agreement across processes only\n", d.wl.Name, cseed)
			d.seen[cseed] = got
		}
		want = d.seen[cseed]
	}
	if got != want {
		d.led.fail(fmt.Sprintf("%s: CSV digest %s, want %s", name, got, want))
		return false
	}
	return true
}

// child runs one child process for config seed cseed under the
// parent's deadlines and parses its result into v.
func (d *parent) child(name string, cseed int64, deadline time.Duration, v any, args ...string) bool {
	if left := time.Until(d.end); left < deadline {
		deadline = left
	}
	if deadline <= 0 {
		d.led.Attempted++
		d.led.fail(name + ": no time left in the run")
		return false
	}
	argv := append([]string{d.exe, "--workload", d.wl.Name, "--seed", strconv.FormatInt(cseed, 10)}, args...)
	return d.led.run(d.ctx, name, childSpec{Argv: argv, Deadline: deadline}, os.Stderr, v)
}

// runChildTimed runs one untraced child for config seed cseed with the
// given store and campaign budget.
func (d *parent) runChildTimed(name string, cseed int64, store string, budget float64) (runResult, bool) {
	dir := filepath.Join(d.work, name)
	var res runResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		d.led.Attempted++
		d.led.fail(fmt.Sprintf("%s: %v", name, err))
		return res, false
	}
	deadline := runChildSlack + time.Duration(3*budget*float64(time.Second))
	ok := d.child(name, cseed, deadline, &res, "--child", "run", "--store", store, "--work", dir,
		"--budget", strconv.FormatFloat(budget, 'g', -1, 64))
	if !ok {
		return res, false
	}
	if len(res.Problems) > 0 {
		d.led.fail(name + ": " + strings.Join(res.Problems, "; "))
		return res, false
	}
	return res, true
}

// newParent loads the pinned digests and makes the run's scratch
// directory; the caller removes d.work.
func newParent(ctx context.Context, wl workload) (*parent, error) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", pinFile, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	return &parent{ctx: ctx, wl: wl, exe: exe, work: work, end: time.Now().Add(runLimit),
		pins: pins[wl.Name], seen: map[int64]string{}}, nil
}

// drive is one benchmark run: the untraced measurement, plus the
// traced run when trace is set.
func drive(ctx context.Context, wl workload, seed int64, seconds int, trace bool) error {
	d, err := newParent(ctx, wl)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.work)

	budget := float64(seconds) / float64(wl.Attempts)
	seed0 := wl.configSeed(seed, 0)
	refStore := ""
	if wl.Store == storeWarm {
		// A cold run of the same campaign fills the store; every warm
		// run must reproduce its CSV.
		refStore = filepath.Join(d.work, "store")
		if res, ok := d.runChildTimed("fill", seed0, refStore, 0); ok {
			d.agree("fill", seed0, res.Digest)
		}
	}
	var runs []runResult
	for i := 0; i < wl.Attempts; i++ {
		name := fmt.Sprintf("run%d", i)
		store := refStore
		if wl.Store == storeCold {
			store = filepath.Join(d.work, "store-"+name)
		}
		cseed := wl.configSeed(seed, i)
		res, ok := d.runChildTimed(name, cseed, store, budget)
		ok = ok && d.agree(name, cseed, res.Digest)
		if ok {
			runs = append(runs, res)
		}
		if wl.Store == storeCold {
			if i == 0 && ok {
				refStore = store // the traced run compares against it
			} else if err := os.RemoveAll(store); err != nil {
				return fmt.Errorf("perfbench: %w", err)
			}
		}
	}

	ms := endToEndMetrics(runs)
	setupS, campaignS := ms["setup_s"].Value, ms["campaign_s"].Value
	if !trace {
		var campaigns []float64
		for _, r := range runs {
			campaigns = append(campaigns, r.CampaignS...)
		}
		ct := tailOf(campaigns)
		fmt.Printf("%s seed %d: setup_s median of %d; campaign_s median of %d, p%g %.4f s\n",
			wl.Name, seed, len(runs), ct.N, ct.Pct, ct.Value)
	} else {
		tr := traceResult{Sums: map[string]float64{}, Lots: map[string][]float64{}}
		dir := filepath.Join(d.work, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("perfbench: %w", err)
		}
		if d.child("trace", seed0, traceDeadline, &tr, "--child", "trace", "--ref-store", refStore, "--work", dir) {
			if len(tr.Problems) > 0 {
				d.led.fail("trace: " + strings.Join(tr.Problems, "; "))
			} else {
				d.agree("trace", seed0, tr.Digest)
			}
		}
		stages := tr.ColdStagesMS
		if wl.Store == storeWarm {
			stages = tr.WarmStagesMS
		}
		ms = layerMetrics(tr, stages, setupS, campaignS, wl.Config(seed0).Workers)
	}
	for k, m := range ms {
		// A metric with no samples (every run failed) still prints;
		// the report is marked incorrect.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			ms[k] = metric{0, m.Unit}
		}
	}
	for _, p := range d.led.Problems {
		fmt.Fprintln(os.Stderr, "failed:", p)
	}
	fmt.Printf("failed_frac %g (%d of %d runs)\n", failedFrac(d.led.Failed, d.led.Attempted), d.led.Failed, d.led.Attempted)
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	b, err := json.Marshal(report{
		Correct:   d.led.Failed == 0 && len(runs) > 0,
		Attempted: d.led.Attempted,
		Failed:    d.led.Failed,
		Metrics:   ms,
	})
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

// endToEndMetrics reduces the untraced runs to the end-to-end metrics:
// medians over processes for set-up, over every campaign for the rest.
func endToEndMetrics(runs []runResult) map[string]metric {
	var setups, heaps, campaigns []float64
	chips := 0
	for _, r := range runs {
		setups = append(setups, r.SetupS)
		heaps = append(heaps, r.HeapMB)
		campaigns = append(campaigns, r.CampaignS...)
		chips = r.Chips
	}
	campaignS := median(campaigns)
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"campaign_s":    {campaignS, "s"},
		"chips_per_s":   {float64(chips) / campaignS, "1/s"},
		"setup_heap_mb": {median(heaps), "MB"},
	}
}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(tr traceResult, stagesMS, setupS, campaignS float64, workers int) map[string]metric {
	ms := map[string]metric{}
	put := func(name, unit string, v float64) { ms[name] = metric{v, unit} }
	for _, name := range []string{
		"netlist.resolve_ms", "netlist.stats_ms", "logicsim.flat_coneset_ms", "logicsim.ptr_coneset_ms",
		"fault.collapse_ms", "atpg.base_ms", "atpg.grade_ms", "atpg.cleanup_ms", "atpg.podem_ms", "atpg.drop_ms",
		"faultsim.steps_ms", "circuits.ramp_ms", "circuits.store_save_ms", "circuits.store_load_ms", "tester.new_ate_ms",
	} {
		put(name, "ms", tr.Sums[name])
	}
	for _, name := range []string{"fault.universe", "fault.working", "atpg.targets", "atpg.patterns_added", "atpg.aborted", "atpg.untestable"} {
		put(name, "count", tr.Sums[name])
	}
	put("logicsim.coneset_heap_mb", "MB", tr.Sums["logicsim.coneset_heap_mb"])
	put("circuits.store_bytes", "bytes", tr.Sums["circuits.store_bytes"])
	put("campaign.checkpoint_bytes", "bytes", tr.Sums["campaign.checkpoint_bytes"])
	put("atpg.abort_frac", "frac", ratio(tr.Sums["atpg.aborted"], tr.Sums["atpg.targets"]))
	put("atpg.ms_per_target", "ms", ratio(tr.Sums["atpg.cleanup_ms"], tr.Sums["atpg.targets"]))
	put("faultsim.ns_per_fault_pattern", "ns", ratio(tr.Sums["faultsim.steps_ms"]*1e6, tr.Sums["faultsim.fault_patterns"]))
	put("circuits.stage_cover_frac", "frac", stageCoverFrac(stagesMS, setupS))
	for _, name := range []string{"defect.lot_ms", "tester.lot_ms", "experiment.lot_ms"} {
		t := tailOf(tr.Lots[name])
		put(name+"_p50", "ms", median(tr.Lots[name]))
		put(name+"_tail", "ms", t.Value)
		put(name+"_tail_pct", "pct", t.Pct)
	}
	put("experiment.lots", "count", float64(len(tr.Lots["experiment.lot_ms"])))
	put("experiment.reduce_ms_p50", "ms", median(tr.Lots["experiment.reduce_ms"]))
	put("campaign.fold_us_p50", "us", median(tr.Lots["campaign.fold_us"]))
	put("campaign.checkpoint_ms_p50", "ms", median(tr.Lots["campaign.checkpoint_ms"]))
	put("campaign.checkpoints", "count", float64(len(tr.Lots["campaign.checkpoint_ms"])))
	put("tester.strobes_per_chip", "count", ratio(tr.Sums["tester.strobes"], tr.Sums["tester.defective"]))
	put("tester.survivor_frac", "frac", ratio(tr.Sums["tester.escapes"], tr.Sums["tester.defective"]))
	lotSum := 0.0
	for _, v := range tr.Lots["experiment.lot_ms"] {
		lotSum += v
	}
	put("sweep.pool_efficiency", "frac", poolEfficiency(lotSum, campaignS, workers))
	put("trace.setup_overhead_frac", "frac", overheadFrac(tr.SetupS, setupS))
	put("trace.campaign_overhead_frac", "frac", overheadFrac(tr.CampaignS, campaignS))
	return ms
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pinDigests records, in pinFile, the CSV digest of every config seed
// a run with a benchmark seed in the range "lo-hi" uses.
func pinDigests(ctx context.Context, wl workload, seeds string) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("perfbench: --pin wants a seed range like 1-40, got %q", seeds)
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return fmt.Errorf("perfbench: %s: %w", pinFile, err)
	}
	got := map[string]string{}
	for s := from; s <= to; s++ {
		for i := 0; i < wl.Attempts; i++ {
			cseed := wl.configSeed(s, i)
			key := strconv.FormatInt(cseed, 10)
			if got[key] != "" {
				continue
			}
			// A fresh parent per campaign gets the whole run limit.
			d, err := newParent(ctx, wl)
			if err != nil {
				return err
			}
			res, ok := d.runChildTimed("pin", cseed, "", 0)
			os.RemoveAll(d.work)
			if !ok {
				return fmt.Errorf("perfbench: pinning %s config seed %d: %s", wl.Name, cseed, strings.Join(d.led.Problems, "; "))
			}
			got[key] = res.Digest
			fmt.Printf("%s config seed %d: %s\n", wl.Name, cseed, res.Digest)
		}
	}
	if pins[wl.Name] == nil {
		pins[wl.Name] = map[string]string{}
	}
	for k, v := range got {
		pins[wl.Name][k] = v
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := os.WriteFile(pinFile, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	return nil
}
