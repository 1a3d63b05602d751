package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"lauberhorn/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). Times named
// *.probe.* come from the layer probes, and host.* are the reference
// loop's time and the unscaled run time; the other times are spans the
// benchmark records around its calls into each layer, scaled like
// run_s; everything else is a counter the layers export.
var perLayer = []metricDef{
	{"cluster.build_s", "s"},
	{"cluster.collect_s", "s"},
	{"stack.lauberhorn.run_s", "s"},
	{"stack.bypass.run_s", "s"},
	{"stack.kernel.run_s", "s"},
	{"sim.events", "count"},
	{"sim.cancelled", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.probe.fire_ns", "ns"},
	{"shard.probe.window_ns", "ns"},
	{"fabric.frames", "count"},
	{"fabric.bytes", "bytes"},
	{"fabric.flood_frac", "frac"},
	{"fabric.drops", "count"},
	{"fabric.ecn_marks", "count"},
	{"fabric.peak_backlog_us", "sim_us"},
	{"fabric.probe.hop_ns", "ns"},
	{"wire.pool_gets", "count"},
	{"wire.pool_hit_frac", "frac"},
	{"wire.probe.frame_ns_64", "ns"},
	{"wire.probe.frame_ns_4096", "ns"},
	{"rpc.probe.codec_ns", "ns"},
	{"core.rx_frames", "count"},
	{"core.fast_dispatch_frac", "frac"},
	{"core.try_agains", "count"},
	{"core.backlog_p99", "count"},
	{"mesi.fills", "count"},
	{"mesi.recalls", "count"},
	{"mesi.invalidations", "count"},
	{"kernel.context_switches", "count"},
	{"kernel.preemptions", "count"},
	{"kernel.irqs", "count"},
	{"kernel.ipis", "count"},
	{"nicdma.irqs", "count"},
	{"nicdma.rx_dropped", "count"},
	{"transport.raw.run_s", "s"},
	{"transport.retry.run_s", "s"},
	{"transport.ecn.run_s", "s"},
	{"transport.credit.run_s", "s"},
	{"transport.retransmits", "count"},
	{"transport.replays", "count"},
	{"transport.dups_suppressed", "count"},
	{"transport.window_cuts", "count"},
	{"transport.grants", "count"},
	{"transport.held_frames", "count"},
	{"transport.useful_frac", "frac"},
	{"workload.sent", "count"},
	{"workload.received", "count"},
	{"workload.errors", "count"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.live_heap_mb", "MB"},
	{"trace.overhead_frac", "frac"},
	{"host.ref_ms", "ms"},
	{"host.run_wall_s", "s"},
}

// repetition is one pass over every scenario of a workload.
type repetition struct {
	// setup, run and collect are summed over the scenarios; heapMB is
	// the largest live heap any scenario left.
	setup, run, collect time.Duration
	heapMB              float64
	events              uint64
	fps                 []fingerprint // per scenario, in declaration order
	attempted           int
	failures            []error
	// ref is the reference loop's time right after the repetition.
	ref time.Duration

	// Traced repetitions only: run time per stack and per transport
	// name, the layer counters, and the Go runtime's MemStats deltas.
	stackRun, transportRun map[string]time.Duration
	counters               *counters
	mem                    memDelta
}

// runRepetition runs every scenario of w once, in declaration order, each
// under a span of its own. A stack's or transport's run time is the run
// phase of the scenarios that use it.
func runRepetition(w *benchWorkload, seed uint64, golden goldenTable, tr *tracer) repetition {
	r := repetition{fps: make([]fingerprint, len(w.scenarios))}
	recorded, err := golden.lookup(w, seed)
	if err != nil {
		r.failures = append(r.failures, err)
	}
	if tr != nil {
		r.stackRun = map[string]time.Duration{}
		r.transportRun = map[string]time.Duration{}
		r.counters = &counters{Backlog: stats.NewHistogram()}
	}
	root := tr.begin("repetition", "bench", -1)
	for i := range w.scenarios {
		sc := &w.scenarios[i]
		s := tr.begin("scenario "+sc.name, "bench", root)
		o := runScenario(sc, seed, tr, s)
		tr.end(s)
		r.attempted++
		if o.err == nil {
			var want *fingerprint
			if recorded != nil {
				want = &recorded[i]
			}
			o.err = check(sc, &o, want)
		}
		if o.err != nil {
			r.failures = append(r.failures, fmt.Errorf("%s seed %d: %w", w.name, seed, o.err))
		}
		r.setup += o.setup
		r.run += o.run
		r.collect += o.collect
		r.heapMB = max(r.heapMB, o.heapMB)
		r.events += o.fp.Events
		r.fps[i] = o.fp
		if tr != nil {
			r.stackRun[sc.stack.name] += o.run
			r.transportRun[sc.transport.name] += o.run
		}
		if o.counters != nil {
			r.counters.add(o.counters)
		}
	}
	tr.end(root)
	return r
}

// memDelta is the Go runtime's work over one repetition.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMs float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := readMem()
	return memDelta{
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

// runConfig is one benchmark run.
type runConfig struct {
	w       *benchWorkload
	seed    uint64
	measure time.Duration
	trace   bool
	golden  goldenTable
	// probeBudget is the wall time each layer probe may take.
	probeBudget time.Duration
	// progress, when set, receives one line per repetition.
	progress io.Writer
	// ref is timed after every repetition (see reference.go).
	ref *refLoop
}

// report is the result line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minReps is the fewest timed repetitions a median is taken over, per
// kind of repetition, however short the measuring time.
const minReps = 3

// run makes one repetition that it checks but does not time, which warms
// the caches and grows the heap, then repeats the workload until
// cfg.measure has passed and times the reference loop after every
// repetition. Untraced, it reports the end-to-end metrics: the medians
// over the repetitions of run_s and setup_s, each scaled by atRef.
// Traced, it alternates untraced and traced repetitions, reports the
// per-layer metrics from the traced ones, compares the two kinds for
// the tracing overhead, and runs the layer probes.
func run(cfg runConfig) (report, []span, []error) {
	warm := runRepetition(cfg.w, cfg.seed, cfg.golden, nil)
	cfg.ref.measure()
	start := time.Now()
	var plain, traced []repetition
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for i := 0; ; i++ {
		if time.Since(start) >= cfg.measure && len(plain) >= minReps && (!cfg.trace || len(traced) >= minReps) {
			break
		}
		isTraced := cfg.trace && i%2 == 1
		var r repetition
		if isTraced {
			m0 := readMem()
			r = runRepetition(cfg.w, cfg.seed, cfg.golden, tr)
			r.mem = memSince(m0)
		} else {
			r = runRepetition(cfg.w, cfg.seed, cfg.golden, nil)
		}
		r.ref = cfg.ref.measure()
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if cfg.progress != nil {
			fmt.Fprintf(cfg.progress, "perfbench: repetition %d traced=%v t %.2fs run %.6fs setup %.6fs ref %.6fs heap %.1fMB events %d\n",
				i, isTraced, time.Since(start).Seconds(), r.run.Seconds(), r.setup.Seconds(), r.ref.Seconds(), r.heapMB, r.events)
		}
	}

	rep := report{Metrics: map[string]metric{}}
	var failures []error
	for _, r := range append(append([]repetition{warm}, plain...), traced...) {
		rep.Attempted += r.attempted
		rep.Failed += len(r.failures)
		failures = append(failures, r.failures...)
	}
	values := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		values["run_s"] = median(plain, func(r repetition) float64 { return r.atRef(r.run) })
		values["setup_s"] = median(plain, func(r repetition) float64 { return r.atRef(r.setup) })
	} else {
		defs = perLayer
		errs := layerMetrics(values, plain, traced)
		failures = append(failures, errs...)
		probes, errs := runProbes(cfg.probeBudget)
		failures = append(failures, errs...)
		for k, v := range probes {
			values[k] = v
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("no value for metric " + d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rep.Correct = len(failures) == 0
	var spans []span
	if tr != nil {
		spans = tr.spans
	}
	return rep, spans, failures
}

// layerMetrics fills the per-layer values other than the probes. Span
// times are means over the traced repetitions, scaled like run_s;
// counters come from the first one, and every other traced repetition
// must repeat them exactly.
func layerMetrics(values map[string]float64, plain, traced []repetition) []error {
	var errs []error
	mean := func(f func(r repetition) float64) float64 {
		var sum float64
		for _, r := range traced {
			sum += f(r)
		}
		return sum / float64(len(traced))
	}
	values["cluster.build_s"] = mean(func(r repetition) float64 { return r.atRef(r.setup) })
	values["cluster.collect_s"] = mean(func(r repetition) float64 { return r.atRef(r.collect) })
	for _, k := range stackKinds {
		values["stack."+k.name+".run_s"] = mean(func(r repetition) float64 { return r.atRef(r.stackRun[k.name]) })
	}
	for _, k := range transportKinds {
		values["transport."+k.name+".run_s"] = mean(func(r repetition) float64 { return r.atRef(r.transportRun[k.name]) })
	}
	values["sim.ns_per_event"] = mean(func(r repetition) float64 {
		return ratio(r.atRef(r.run)*1e9, float64(r.events))
	})
	values["go.alloc_mb"] = mean(func(r repetition) float64 { return r.mem.allocMB })
	values["go.mallocs"] = mean(func(r repetition) float64 { return r.mem.mallocs })
	values["go.gc_cycles"] = mean(func(r repetition) float64 { return r.mem.gcCycles })
	values["go.gc_pause_ms"] = mean(func(r repetition) float64 { return r.mem.gcPauseMs })
	values["go.live_heap_mb"] = median(traced, func(r repetition) float64 { return r.heapMB })

	untracedRun := median(plain, func(r repetition) float64 { return r.atRef(r.run) })
	tracedRun := median(traced, func(r repetition) float64 { return r.atRef(r.run) })
	values["trace.overhead_frac"] = ratio(tracedRun-untracedRun, untracedRun)
	values["host.ref_ms"] = median(plain, func(r repetition) float64 { return r.ref.Seconds() * 1e3 })
	values["host.run_wall_s"] = median(plain, func(r repetition) float64 { return r.run.Seconds() })

	first := counterMetrics(traced[0].counters)
	for i, r := range traced[1:] {
		for k, v := range counterMetrics(r.counters) {
			if v != first[k] {
				errs = append(errs, fmt.Errorf("traced repetition %d: %s = %v, first traced repetition %v", i+1, k, v, first[k]))
			}
		}
	}
	for k, v := range first {
		values[k] = v
	}
	return errs
}

// counterMetrics maps a repetition's layer counters to metric values.
func counterMetrics(c *counters) map[string]float64 {
	tr := c.Transport
	return map[string]float64{
		"sim.events":                float64(c.SimEvents),
		"sim.cancelled":             float64(c.SimCancelled),
		"fabric.frames":             float64(c.FabricFrames),
		"fabric.bytes":              float64(c.FabricBytes),
		"fabric.flood_frac":         ratio(float64(c.Flooded), float64(c.Decisions)),
		"fabric.drops":              float64(c.Drops),
		"fabric.ecn_marks":          float64(c.Marks),
		"fabric.peak_backlog_us":    c.PeakBacklog.Microseconds(),
		"wire.pool_gets":            float64(c.PoolGets),
		"wire.pool_hit_frac":        ratio(float64(c.PoolHits), float64(c.PoolGets)),
		"core.rx_frames":            float64(c.CoreRx),
		"core.fast_dispatch_frac":   ratio(float64(c.Fast), float64(c.Fast+c.Kern+c.Soft)),
		"core.try_agains":           float64(c.TryAgains),
		"core.backlog_p99":          float64(c.Backlog.Percentile(0.99)),
		"mesi.fills":                float64(c.MesiFills),
		"mesi.recalls":              float64(c.MesiRecalls),
		"mesi.invalidations":        float64(c.MesiInvals),
		"kernel.context_switches":   float64(c.KernelCS),
		"kernel.preemptions":        float64(c.KernelPreempt),
		"kernel.irqs":               float64(c.KernelIRQ),
		"kernel.ipis":               float64(c.KernelIPI),
		"nicdma.irqs":               float64(c.DMAIRQ),
		"nicdma.rx_dropped":         float64(c.DMARxDropped),
		"transport.retransmits":     float64(tr.Retransmits),
		"transport.replays":         float64(tr.Replays),
		"transport.dups_suppressed": float64(tr.DupsSuppressed),
		"transport.window_cuts":     float64(tr.WindowCuts),
		"transport.grants":          float64(tr.GrantsSent),
		"transport.held_frames":     float64(tr.HeldFrames),
		"transport.useful_frac":     ratio(float64(c.Received), float64(c.Sent+tr.Retransmits)),
		"workload.sent":             float64(c.Sent),
		"workload.received":         float64(c.Received),
		"workload.errors":           float64(c.Errors),
	}
}

// atRef scales d, a time measured in repetition r, to seconds at the
// host speed at which the reference loop takes refNominal.
func (r repetition) atRef(d time.Duration) float64 {
	return d.Seconds() * refNominal.Seconds() / r.ref.Seconds()
}

// median is the median of f over the repetitions.
func median(reps []repetition, f func(r repetition) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return quantileOf(xs, 0.5)
}

// quantileOf interpolates linearly between the closest ranks.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
