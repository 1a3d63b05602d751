// Command perfbench is the repository's benchmark. It builds and runs
// one workload of simulated universes through the public cluster API,
// checks their results, and prints its metrics as one JSON line:
//
//	perfbench --workload clos --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run and writes its spans under
// .bench_build/traces.
// --record N prints the golden fingerprints of every workload for seeds
// 0..N-1 instead. run.sh builds the binary and runs it; README.md lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// gcPercent is the GC target lhbench runs the simulator at; the
// benchmark sets it whatever GOGC says, so runs compare like with like.
const gcPercent = 800

// probeBudget is the wall time each layer probe runs for.
const probeBudget = 150 * time.Millisecond

// traceDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "traces")

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	recordSeeds := fs.Uint64("record", 0, "print golden fingerprints of every workload for seeds 0..N-1 and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	debug.SetGCPercent(gcPercent)
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	goroutines := runtime.NumGoroutine()
	fmt.Fprintf(stderr, "perfbench: nproc=%d GOMAXPROCS=%d %s GOGC=%d GODEBUG=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gcPercent, os.Getenv("GODEBUG"))

	if *recordSeeds > 0 {
		g, err := record(*recordSeeds)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(g); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}

	w, err := newWorkload(*name, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1 (got %d, %d)\n", *seconds, *trace)
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ref, err := newRefLoop()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// The mapping ends with the process anyway; a failed unmap changes
	// nothing the run reports.
	defer func() { _ = ref.close() }()

	rep, spans, failures := run(runConfig{
		w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, golden: golden, probeBudget: probeBudget, progress: stderr, ref: ref,
	})
	if *trace == 1 {
		if err := writeSpans(traceDir, w.name, *seed, spans); err != nil {
			failures = append(failures, err)
			rep.Correct = false
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	if !joinGoroutines(goroutines, 5*time.Second) {
		fmt.Fprintf(stderr, "perfbench: %d goroutines still running\n", runtime.NumGoroutine()-goroutines)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// writeSpans writes a traced run's spans as JSON.
func writeSpans(dir, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// joinGoroutines waits until no goroutine beyond the first base is left.
// The only ones the benchmark starts are the shard executor's workers,
// which exit once RunUntil closes their work channels; the executor has
// no join of its own, so this polls.
func joinGoroutines(base int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
