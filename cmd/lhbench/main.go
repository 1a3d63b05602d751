// Command lhbench runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	lhbench -list                  # show available experiments
//	lhbench -run e1,e5             # run selected experiments
//	lhbench -run all               # run everything (default)
//	lhbench -run all -parallel 8   # run up to 8 experiments concurrently
//	lhbench -run e3 -json          # machine-readable results
//	lhbench -bench BENCH_sim.json  # also write the perf-trajectory artifact
//	lhbench -bench fresh.json -ratchet BENCH_sim.json
//	                               # fail if fresh throughput regressed >10%
//	                               # against the committed baseline
//	lhbench -run all -shards 4     # same tables, spine-leaf universes
//	                               # partitioned across 4 shard simulators
//	lhbench -run e15 -transport credit
//	                               # rerun a cluster experiment with a
//	                               # transport scheme on every endpoint
//
// Experiments run on a bounded worker pool (-parallel, default
// GOMAXPROCS) with one simulator universe per experiment, so results are
// byte-identical to a serial run: tables depend only on the seeds.
// Tables go to stdout; progress and the summary footer go to stderr, so
// stdout can be diffed across runs or piped to tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"lauberhorn/internal/experiments"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/transport"
)

// jsonResult is the -json shape for one experiment.
type jsonResult struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Source string         `json:"source"`
	WallMS float64        `json:"wall_ms"`
	Events uint64         `json:"events_fired"`
	Sims   int            `json:"sims"`
	Error  string         `json:"error,omitempty"`
	Tables []*stats.Table `json:"tables"`
}

// jsonResults shapes runner results for -json output.
func jsonResults(results []experiments.Result) []jsonResult {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		out[i] = jsonResult{
			ID:     r.Experiment.ID,
			Title:  r.Experiment.Title,
			Source: r.Experiment.Source,
			WallMS: float64(r.Wall.Microseconds()) / 1000,
			Events: r.Events,
			Sims:   r.Sims,
			Tables: r.Tables,
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
		}
	}
	return out
}

// listText renders the -list output: every registered experiment, then
// every registered stack driver (short name, kind, display label) — the
// registry is the source of truth, so stacks registered by new driver
// files show up without harness changes.
func listText() string {
	var b strings.Builder
	b.WriteString("available experiments:\n")
	for _, e := range experiments.All() {
		fmt.Fprintf(&b, "  %-4s %-50s (%s)\n", e.ID, e.Title, e.Source)
	}
	b.WriteString("registered stacks:\n")
	for _, ent := range stackdrv.All() {
		fmt.Fprintf(&b, "  %-13s kind=%d  %s\n", ent.Name, int(ent.Kind), ent.Label)
	}
	b.WriteString("registered transports (-transport):\n")
	for _, ent := range transport.All() {
		fmt.Fprintf(&b, "  %-13s kind=%d  %s\n", ent.Name, int(ent.Kind), ent.Label)
	}
	return b.String()
}

// transportNames lists the registered transport schemes' short names.
func transportNames() string {
	var names []string
	for _, e := range transport.All() {
		names = append(names, e.Name)
	}
	return strings.Join(names, " | ")
}

func main() {
	list := flag.Bool("list", false, "list experiments and stack drivers, then exit")
	run := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max experiments running concurrently (1 = serial)")
	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout")
	benchOut := flag.String("bench", "",
		"write a BENCH_sim.json perf snapshot (events/sec per experiment, queue microbenchmarks) to this path")
	ratchet := flag.String("ratchet", "",
		"compare the fresh -bench snapshot against this committed baseline and fail on >10% aggregate events/sec regression")
	benchReps := flag.Int("benchreps", 3,
		"with -bench: run the experiment set N times and record min wall time per experiment (noise floor for the ratchet)")
	shards := flag.Int("shards", 0,
		"partition every spine-leaf experiment universe into N shards under conservative time windows (0 = serial); tables are byte-identical either way")
	transportName := flag.String("transport", "raw",
		"transport scheme for every cluster experiment: "+transportNames()+" (e21/e22 sweep the full matrix regardless)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the runs) to this path")
	flag.Parse()

	// The simulator's live heap is small (per-universe state) while its
	// allocation rate is high (frames whose ownership transfers through
	// the fabric), so the default GOGC=100 spends ~25% of wall time in
	// collection cycles that reclaim almost nothing live. Relax the
	// target unless the user set GOGC explicitly.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}

	if *list {
		fmt.Print(listText())
		return
	}

	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "lhbench: -shards must be >= 0, got %d\n", *shards)
		os.Exit(1)
	}

	tr, ok := transport.ByName(strings.ToLower(*transportName))
	if !ok {
		fmt.Fprintf(os.Stderr, "lhbench: unknown transport %q (registered: %s)\n",
			*transportName, transportNames())
		os.Exit(1)
	}

	selected, err := experiments.Select(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lhbench: %v (use -list to see experiment IDs)\n", err)
		os.Exit(1)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "lhbench: -parallel must be >= 1, got %d\n", *parallel)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	runner := &experiments.Runner{
		Workers: *parallel,
		Options: experiments.Options{Shards: *shards, Transport: tr.Kind},
	}
	start := time.Now()

	var results []experiments.Result
	if *jsonOut {
		results = runner.Run(selected)
		out := jsonResults(results)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: encoding results: %v\n", err)
			os.Exit(1)
		}
	} else {
		results = runner.RunStream(selected, func(r experiments.Result) {
			fmt.Printf("### %s — %s [%s]\n\n", strings.ToUpper(r.Experiment.ID),
				r.Experiment.Title, r.Experiment.Source)
			if r.Err != nil {
				// Stderr, not stdout: stdout carries only deterministic
				// tables so it stays diffable across runs.
				fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.Experiment.ID, r.Err)
				return
			}
			for _, tb := range r.Tables {
				fmt.Println(tb.String())
			}
			fmt.Fprintf(os.Stderr, "(%s: %d events across %d sims in %v)\n",
				r.Experiment.ID, r.Events, r.Sims, r.Wall.Round(time.Millisecond))
		})
	}

	elapsed := time.Since(start)
	if *ratchet != "" && *benchOut == "" {
		fmt.Fprintf(os.Stderr, "lhbench: -ratchet needs -bench to measure a fresh snapshot\n")
		os.Exit(1)
	}
	if *benchOut != "" {
		if *benchReps < 1 {
			fmt.Fprintf(os.Stderr, "lhbench: -benchreps must be >= 1, got %d\n", *benchReps)
			os.Exit(1)
		}
		// Multi-sample benching: rerun the experiment set silently and keep
		// the fastest wall time per experiment. Tables are deterministic, so
		// the reruns only refine the timing; min-of-N filters scheduler and
		// cache noise out of the snapshot.
		for rep := 1; rep < *benchReps; rep++ {
			for i, r := range runner.Run(selected) {
				if r.Err == nil && (results[i].Err != nil || r.Wall < results[i].Wall) {
					results[i].Wall = r.Wall
				}
			}
		}
		fresh := buildBench(*parallel, *benchReps, *shards, results)
		if err := writeBench(*benchOut, fresh); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: writing %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lhbench: wrote perf snapshot to %s\n", *benchOut)
		if *ratchet != "" {
			base, err := loadBench(*ratchet)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lhbench: loading ratchet baseline: %v\n", err)
				os.Exit(1)
			}
			failures, notes := compareBench(base, fresh, ratchetTolerance)
			for _, n := range notes {
				fmt.Fprintf(os.Stderr, "lhbench: %s\n", n)
			}
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "lhbench: RATCHET %s\n", f)
			}
			if len(failures) > 0 {
				fmt.Fprintf(os.Stderr, "lhbench: perf ratchet failed against %s (fix the regression or commit a refreshed baseline)\n", *ratchet)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "lhbench: perf ratchet ok against %s\n", *ratchet)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: writing allocation profile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	sum := experiments.Summarize(results)
	fmt.Fprintf(os.Stderr,
		"\nlhbench: %d experiments, %d tables, %d simulator events in %v (workers=%d, serial cost %v, speedup %.2fx)\n",
		sum.Experiments, sum.Tables, sum.Events, elapsed.Round(time.Millisecond),
		*parallel, sum.SerialWall.Round(time.Millisecond),
		float64(sum.SerialWall)/float64(elapsed))
	if sum.Failures > 0 {
		fmt.Fprintf(os.Stderr, "lhbench: %d experiment(s) FAILED\n", sum.Failures)
		os.Exit(1)
	}
}
