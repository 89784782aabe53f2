// Command perfbench is pfaird's end-to-end and per-layer benchmark.
//
// One run takes a workload name and a seed, generates that workload's
// operation stream from the seed, starts pfaird (and, for cluster-follow,
// a follower and pfair-router) as separate processes built from this
// checkout, drives them from outside over loopback HTTP, checks the
// results and prints one JSON object as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 the run instead drives the same seeded stream down a ladder of
// public entry points, one rung per layer, and reports per-layer metrics.
// The workloads, their metrics and which layer each workload loads are
// listed in BENCHMARK.json at the root of the repository.
//
// Correctness is checked on every run; a run that fails a check prints
// which tenant and which decision diverged on standard error, reports no
// metrics and exits 1. The same -seed always yields the same operation
// stream; its SHA-256 is printed on the line before the result.
//
// perfbench/run.sh builds the binaries and runs this command; it is
// Linux-only (it paces the open loop with nanosleep).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is what one run needs besides its workload.
type config struct {
	seed    int64
	seconds int
	binDir  string // holds the pfaird and pfair-router binaries
	workDir string // holds the servers' data directories, removed at exit
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: ingest, sched-wide or cluster-follow")
		seed     = flag.Int64("seed", 1, "seed of the generated operation stream")
		seconds  = flag.Int("seconds", 10, "measured duration of the run")
		trace    = flag.Int("trace", 0, "1 runs the per-layer ladder instead of the end-to-end measurement")
		binDir   = flag.String("bin", "", "directory holding the pfaird and pfair-router binaries")
		workDir  = flag.String("work", "", "working directory for server data (removed at exit)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2 * runtime.NumCPU()) // room for the pacing goroutines, see sleepUntil
	if *seconds < 1 || *binDir == "" || *workDir == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -seconds ≥ 1, -trace 0|1, -bin and -work")
		os.Exit(2)
	}
	os.Exit(run(*workload, *trace == 1, config{seed: *seed, seconds: *seconds, binDir: *binDir,
		workDir: filepath.Join(*workDir, fmt.Sprint(os.Getpid()))}))
}

func run(workload string, traced bool, cfg config) int {
	sp, err := buildSpec(workload, cfg.seed, cfg.seconds, min(2, runtime.NumCPU()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("workload=%s seed=%d opstream_sha256=%s gomaxprocs=%d\n", workload, cfg.seed, sp.hash(), runtime.GOMAXPROCS(0))

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var rep *report
	if traced {
		rep, err = runLayers(ctx, sp, cfg)
	} else {
		rep, err = runEndToEnd(ctx, sp, cfg)
	}
	var ce *checkError
	switch {
	case errors.As(err, &ce):
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", ce)
		out, _ := json.Marshal(report{Correct: false, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: map[string]metric{}})
		fmt.Println(string(out))
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Correct = true
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
