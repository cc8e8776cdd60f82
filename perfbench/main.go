// Command perfbench is the repository's end-to-end benchmark. It drives
// the public sweep API — sweep.New for set-up, then Sweeper.Run or
// RunWith — on one of a few fixed workloads, checks every output, and
// prints the metrics as one JSON object on its last output line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-lots --seed 1 --seconds 15 --trace 0
//
// Every measurement runs in a child process of the parent process, under a
// deadline after which the child's whole process group is killed; see
// README.md for the workloads, the metrics, and how to re-run on a
// held-out seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		wlName   = flag.String("workload", "", "workload name: paper-lots, lsi-cold or lsi-warm")
		seed     = flag.Int64("seed", 1, "workload seed; it becomes sweep.Config.Seed")
		seconds  = flag.Int("seconds", 10, "seconds of campaigns to time per run")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead")
		pin      = flag.String("pin", "", "record the CSV digests of the seeds in this range (e.g. 1-40) in this file instead of benchmarking")
		child    = flag.String("child", "", "internal: run as a child process (run or trace)")
		storeDir = flag.String("store", "", "internal: Prepared store directory of a child")
		refStore = flag.String("ref-store", "", "internal: store written by the program, for the traced run to compare against")
		work     = flag.String("work", "", "internal: scratch directory of a child")
		budget   = flag.Float64("budget", 0, "internal: seconds of campaigns a run child times")
	)
	flag.Parse()
	wl, err := lookupWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var out any
	switch *child {
	case "run":
		out, err = childRun(wl, *seed, *storeDir, *work, time.Duration(*budget*float64(time.Second)))
	case "trace":
		out, err = childTrace(wl, *seed, *refStore, *work)
	case "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *pin != "" {
			err = pinDigests(ctx, wl, *pin)
		} else {
			err = drive(ctx, wl, *seed, *seconds, *trace == 1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	default:
		err = fmt.Errorf("perfbench: unknown child role %q", *child)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// workDir makes the parent's scratch directory under .bench_build in
// the current directory; the caller removes it.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", fmt.Errorf("perfbench: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return "", fmt.Errorf("perfbench: %w", err)
	}
	return filepath.Abs(dir)
}
