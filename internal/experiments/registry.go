package experiments

import (
	"fmt"
	"strings"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
)

// Experiment is one runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	// Source is the paper figure/section the experiment reproduces.
	Source string
	// Run executes the experiment under the given options and returns
	// its result tables. The meter (which may be nil) observes every
	// simulator the experiment creates, so the harness can report
	// per-experiment event counts. Run builds all of its own state —
	// simulators, rigs, generators — so distinct experiments may run
	// concurrently on separate goroutines.
	Run func(m *sim.Meter, o Options) []*stats.Table
}

// All returns every experiment in presentation order. The slice is built
// fresh per call; callers may reorder or filter it freely.
func All() []Experiment {
	// tables runs each table function under the Run's meter and options.
	tables := func(fs ...func(*sim.Meter, Options) *stats.Table) func(*sim.Meter, Options) []*stats.Table {
		return func(m *sim.Meter, o Options) []*stats.Table {
			out := make([]*stats.Table, len(fs))
			for i, f := range fs {
				out[i] = f(m, o)
			}
			return out
		}
	}
	// rig adapts a rig experiment (e1-e14), which reads no option.
	rig := func(f func(*sim.Meter) *stats.Table) func(*sim.Meter, Options) *stats.Table {
		return func(m *sim.Meter, _ Options) *stats.Table { return f(m) }
	}
	return []Experiment{
		{ID: "e1", Title: "64B message round-trip latency", Source: "Figure 2",
			Run: tables(rig(E1Fig2))},
		{ID: "e2", Title: "Receive-path step breakdown", Source: "§2 steps 1-12, §4",
			Run: tables(rig(E2Breakdown))},
		{ID: "e3", Title: "Latency vs offered load + peak throughput", Source: "§1/§4",
			Run: tables(rig(E3LoadLatency), rig(E3Throughput))},
		{ID: "e4", Title: "Dynamic multi-service mix", Source: "§1/§2/§5.2",
			Run: tables(rig(E4DynamicMix))},
		{ID: "e5", Title: "Cache-line vs DMA size crossover", Source: "§6 (~4KiB)",
			Run: tables(rig(E5SizeCrossover))},
		{ID: "e6", Title: "Idle/sparse-load energy and bus traffic", Source: "§4/§5.1",
			Run: tables(rig(E6IdleCost), rig(E6BusTraffic))},
		{ID: "e7", Title: "Descheduling a stalled loop", Source: "§5.1/§5.2",
			Run: tables(rig(E7Deschedule))},
		{ID: "e8", Title: "Scheduler-state mirroring cost", Source: "§4",
			Run: tables(rig(E8SchedUpdate), rig(E8Simulated))},
		{ID: "e9", Title: "Model checking the control-line protocol", Source: "§6",
			Run: tables(rig(E9ModelCheck))},
		{ID: "e10", Title: "Ablations and fabric sensitivity", Source: "§4/§5",
			Run: tables(rig(E10Ablation), rig(E10Fabrics))},
		{ID: "e11", Title: "Workload size-distribution validation", Source: "§1 [23]",
			Run: tables(rig(E11SizeDist))},
		{ID: "e12", Title: "Hybrid cache-line/DMA data path", Source: "§6 (~4KiB fallback)",
			Run: tables(rig(E12HybridDataPath))},
		{ID: "e13", Title: "Decoder pipeline stages (decrypt/decompress)", Source: "Fig. 3 / §6",
			Run: tables(rig(E13DecodePipeline))},
		{ID: "e14", Title: "Nested RPC via dedicated reply endpoints", Source: "§6",
			Run: tables(rig(E14NestedRPC))},
		{ID: "e15", Title: "Incast: K clients fan into one server", Source: "cluster layer; §1 heavy traffic",
			Run: tables(E15Incast)},
		{ID: "e16", Title: "Mixed-stack cluster under Zipf-skewed load", Source: "cluster layer; §1/§5.2",
			Run: tables(E16Cluster)},
		{ID: "e17", Title: "Registered stacks incl. Hybrid, mixed sizes", Source: "stack registry; §6 (~4KiB fallback)",
			Run: tables(E17HybridCluster)},
		{ID: "e18", Title: "Spine-leaf scaling under ECMP, 2-tier + 3-tier to 1024 machines", Source: "fabric layer; §1 rack-scale fan-out",
			Run: tables(E18SpineLeaf, E18ThreeTier)},
		{ID: "e19", Title: "Link-flap fault injection, tail + served", Source: "fabric layer; §1 heavy traffic",
			Run: tables(E19Faults)},
		{ID: "e21", Title: "Incast collapse and recovery across transport schemes", Source: "transport layer; §1 heavy traffic",
			Run: tables(E21Transport)},
		{ID: "e22", Title: "Transports under link-flap partition, blackholed work", Source: "transport layer; §1 heavy traffic",
			Run: tables(E22TransportFaults)},
		{ID: "e23", Title: "Open-loop arrival processes: Poisson knee, MMPP and diurnal bursts", Source: "workload layer; §1 heavy traffic",
			Run: tables(E23OpenLoop)},
		{ID: "e24", Title: "Service dependency DAGs: call-graph shape vs root tail", Source: "workload layer; §6 nested RPC",
			Run: tables(E24DAG)},
	}
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

// Select resolves a comma-separated ID list (or "all") against the
// registry, in the order given. Segments are whitespace-trimmed. It
// rejects empty segments, unknown IDs, and duplicates with a descriptive
// error, so harnesses fail loudly instead of silently running an
// experiment twice or skipping a typo.
func Select(spec string) ([]Experiment, error) {
	all := All()
	if strings.TrimSpace(spec) == "all" {
		return all, nil
	}
	byID := make(map[string]Experiment, len(all))
	for _, e := range all {
		byID[e.ID] = e
	}
	seen := make(map[string]bool)
	var out []Experiment
	for _, raw := range strings.Split(spec, ",") {
		id := strings.TrimSpace(raw)
		if id == "" {
			return nil, fmt.Errorf("empty experiment ID in %q", spec)
		}
		if id == "all" {
			return nil, fmt.Errorf("%q mixes 'all' with explicit IDs", spec)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate experiment ID %q", id)
		}
		seen[id] = true
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		out = append(out, e)
	}
	return out, nil
}
