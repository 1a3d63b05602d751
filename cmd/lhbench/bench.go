package main

// BENCH_sim.json: the machine-readable perf artifact behind the repo's
// performance trajectory. Every run of `lhbench -bench <path>` writes one
// snapshot — per-experiment simulator throughput plus a self-contained
// event-queue microbenchmark — so regressions show up as a diffable
// number, not an impression. The schema is documented in README.md and
// versioned through the "schema" field.

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/experiments"
	"lauberhorn/internal/sim"
)

// benchSchema names the current BENCH_sim.json layout. v4 added a fluid
// section, the event counts of a long-transfer scenario run per-packet
// and as fluid flows. That scenario is gone and the section is no longer
// written, but the version stayed: v4 files recorded before the deletion
// carry a "fluid" object that nothing reads, and encoding/json skips it.
// v3 added the sharding section (per-shard-count wall time and
// events/sec over the pinned e20 universe, with speedup vs serial) and
// records the -shards override the experiment section ran under. v2
// added the -benchreps sample count and restricted the totals to
// metered experiments (events_fired > 0): analytic experiments report
// no simulator events and would otherwise dilute the events/sec
// aggregate the ratchet gates on.
const benchSchema = "lauberhorn-bench/v4"

// benchFile is the top-level BENCH_sim.json shape.
type benchFile struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// Workers is the -parallel width the experiment section ran with.
	Workers int `json:"workers"`
	// Reps is the -benchreps sample count; per-experiment wall times are
	// the minimum over Reps runs.
	Reps int `json:"reps"`
	// Shards is the -shards override the experiment section ran under
	// (0 = serial). Tables are byte-identical either way; only wall
	// times can differ.
	Shards      int               `json:"shards"`
	Queue       benchQueue        `json:"queue"`
	Experiments []benchExperiment `json:"experiments"`
	Totals      benchTotals       `json:"totals"`
	// Sharding times the pinned e20 universe (experiments.E20Spec) at
	// each shard count the experiment sweeps, on this host. Results are
	// identical across rows by construction (pinned by TestE20Claims);
	// the rows record what the identical runs cost. Speedup is relative
	// to the serial row and is bounded by the "cpus" field: shard
	// workers are real goroutines, so a single-core host shows ~1.0x
	// (window-barrier overhead included) and the >=2.5x target needs
	// >= 4 usable cores.
	Sharding []benchShard `json:"sharding"`
}

// benchShard is one sharding-throughput row.
type benchShard struct {
	Shards          int     `json:"shards"`
	Sims            int     `json:"sims"`
	WallMS          float64 `json:"wall_ms"`
	EventsFired     uint64  `json:"events_fired"`
	EventsPerSec    float64 `json:"events_per_sec"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// benchQueue is the event-queue microbenchmark section: the same two hot
// loops as internal/sim's BenchmarkScheduleFire and BenchmarkFanOut,
// rerun inline so the artifact is reproducible from this one command.
type benchQueue struct {
	ScheduleFireNsPerEvent float64 `json:"schedule_fire_ns_per_event"`
	ScheduleFireEventsSec  float64 `json:"schedule_fire_events_per_sec"`
	FanOutEventsSec        float64 `json:"fanout_events_per_sec"`
}

// benchExperiment is one experiment's row.
type benchExperiment struct {
	ID             string  `json:"id"`
	Title          string  `json:"title"`
	WallMS         float64 `json:"wall_ms"`
	EventsFired    uint64  `json:"events_fired"`
	EventsRecycled uint64  `json:"events_recycled"`
	Sims           int     `json:"sims"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// benchTotals aggregates the experiment section. Only metered experiments
// (events_fired > 0) contribute to the wall/event/throughput aggregates;
// analytic experiments that run no simulator are listed per-experiment but
// excluded here, so the ratchet gate measures simulation work only.
type benchTotals struct {
	Experiments    int     `json:"experiments"`
	Metered        int     `json:"metered"`
	WallMS         float64 `json:"wall_ms"`
	EventsFired    uint64  `json:"events_fired"`
	EventsRecycled uint64  `json:"events_recycled"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// benchScheduleFire measures the schedule→fire steady state: one
// self-rescheduling event, the shape of every model timer.
func benchScheduleFire() (nsPerEvent, eventsPerSec float64) {
	const n = 2_000_000
	s := sim.New(1)
	left := n
	var tick func()
	tick = func() {
		left--
		if left > 0 {
			s.After(sim.Nanosecond, "tick", tick)
		}
	}
	s.After(0, "tick", tick)
	start := time.Now()
	s.Run()
	el := time.Since(start)
	return float64(el.Nanoseconds()) / n, n / el.Seconds()
}

// benchFanOut measures bursty scheduling: each fired event schedules a
// small fan-out, stressing ring-bucket growth and free-list churn.
func benchFanOut() (eventsPerSec float64) {
	const rounds = 200
	var fired uint64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		s := sim.New(uint64(i))
		n := 0
		var burst func()
		burst = func() {
			n++
			if n < 4096 {
				for j := 0; j < 3; j++ {
					s.After(sim.Time(1+j)*sim.Nanosecond, "burst", burst)
				}
			}
		}
		s.After(0, "burst", burst)
		s.RunUntil(200 * sim.Nanosecond)
		fired += s.Fired()
	}
	return float64(fired) / time.Since(start).Seconds()
}

// benchSharding times the pinned e20 universe at each shard count,
// best-of-reps per row. The build is outside the timed region (it is
// identical across modes); the timed region is exactly the RunMeasured
// the e20 table pins.
func benchSharding(reps int) []benchShard {
	var out []benchShard
	for _, shards := range experiments.E20ShardCounts() {
		row := benchShard{Shards: shards}
		for i := 0; i < reps; i++ {
			u := cluster.Build(experiments.E20Spec(shards))
			warm, dur := experiments.E20Window()
			start := time.Now()
			u.RunMeasured(warm, dur)
			wall := time.Since(start)
			if i == 0 || wall.Seconds()*1000 < row.WallMS {
				row.WallMS = float64(wall.Microseconds()) / 1000
			}
			row.Sims = len(u.Sims)
			row.EventsFired = u.EventsFired()
		}
		if row.WallMS > 0 {
			row.EventsPerSec = float64(row.EventsFired) / (row.WallMS / 1000)
		}
		if serial := out; len(serial) > 0 && row.WallMS > 0 {
			row.SpeedupVsSerial = serial[0].WallMS / row.WallMS
		} else {
			row.SpeedupVsSerial = 1
		}
		out = append(out, row)
	}
	return out
}

// buildBench measures the queue microbenchmarks and renders results into
// the BENCH_sim.json shape. Experiments that fired no simulator events
// (the analytic tables) are listed but kept out of the totals: they would
// add wall time with zero events and drag the aggregate events/sec the
// ratchet gates on toward noise.
func buildBench(workers, reps, shards int, results []experiments.Result) benchFile {
	f := benchFile{
		Schema:  benchSchema,
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Workers: workers,
		Reps:    reps,
		Shards:  shards,
	}
	f.Sharding = benchSharding(reps)
	// The queue microbenchmarks follow the same min-of-N (best-of-N for
	// throughput) discipline as the experiment wall times: a single sample
	// on a shared host can swing ±20% and turn the ratchet into a coin
	// flip.
	for i := 0; i < reps; i++ {
		ns, eps := benchScheduleFire()
		if i == 0 || ns < f.Queue.ScheduleFireNsPerEvent {
			f.Queue.ScheduleFireNsPerEvent, f.Queue.ScheduleFireEventsSec = ns, eps
		}
		if fo := benchFanOut(); fo > f.Queue.FanOutEventsSec {
			f.Queue.FanOutEventsSec = fo
		}
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		wallS := r.Wall.Seconds()
		e := benchExperiment{
			ID:             r.Experiment.ID,
			Title:          r.Experiment.Title,
			WallMS:         float64(r.Wall.Microseconds()) / 1000,
			EventsFired:    r.Events,
			EventsRecycled: r.Recycled,
			Sims:           r.Sims,
		}
		if wallS > 0 {
			e.EventsPerSec = float64(r.Events) / wallS
		}
		f.Experiments = append(f.Experiments, e)
		f.Totals.Experiments++
		if r.Events == 0 {
			continue
		}
		f.Totals.Metered++
		f.Totals.WallMS += e.WallMS
		f.Totals.EventsFired += r.Events
		f.Totals.EventsRecycled += r.Recycled
	}
	if f.Totals.WallMS > 0 {
		f.Totals.EventsPerSec = float64(f.Totals.EventsFired) / (f.Totals.WallMS / 1000)
	}
	return f
}

// writeBench serializes a snapshot to path.
func writeBench(path string, f benchFile) error {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
