package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E4 parameters: many more endpoints than cores, skewed popularity,
// realistic sizes — the "dynamic application mixes" of §1/§5.2 where
// static provisioning breaks down.
const (
	e4Cores    = 8
	e4Services = 64
	e4RateRPS  = 150_000
)

// E4DynamicMix compares the three stacks under a dynamic multi-service
// workload (64 services on 8 cores, Zipf(1.1) popularity, cloud-RPC
// sizes). Bypass must time-share its per-service pinned workers on the
// kernel quantum; Lauberhorn reallocates cores per request via the NIC's
// shared scheduling state.
func E4DynamicMix(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E4 — dynamic mix: 64 services, 8 cores, Zipf(1.1), cloud-RPC sizes, 150 krps",
		"stack", "p50 (us)", "p99 (us)", "p99.9 (us)", "served", "sent", "cycles/req", "uJ/req")

	size := workload.CloudRPC()
	builders := []struct {
		name  string
		stack cluster.Stack
		churn bool
	}{
		{"Lauberhorn", cluster.Lauberhorn, false},
		{"Bypass (pinned)", cluster.Bypass, false},
		{"Kernel", cluster.Kernel, false},
		{"Lauberhorn +churn", cluster.Lauberhorn, true},
		{"Bypass +churn", cluster.Bypass, true},
	}
	for _, b := range builders {
		r := StackRig(b.stack, 11, e4Cores, e4Services, sim.Microsecond, size,
			workload.RatePerSec(e4RateRPS), workload.NewZipf(e4Services, 1.1))
		if b.churn {
			// The hot set rotates every 5 ms: services heat up and cool
			// down continuously — the churning mixes of §1.
			r.Gen.SetChurn(5 * sim.Millisecond)
		}
		m.Observe(r.U.S)
		r.U.RunMeasured(20*sim.Millisecond, 60*sim.Millisecond)
		lat := r.Gen.Latency
		served := r.MeasuredServed()
		// Windowed energy over windowed served, as e16 reports it:
		// warm-up joules must not inflate the per-request cost.
		uJ := 0.0
		if served > 0 {
			uJ = r.MeasuredEnergy() / float64(served) * 1e6
		}
		p := lat.Percentiles(0.5, 0.99, 0.999)
		t.AddRow(b.name,
			sim.Time(p[0]).Microseconds(),
			sim.Time(p[1]).Microseconds(),
			sim.Time(p[2]).Microseconds(),
			served, r.MeasuredSent(),
			r.CyclesPerRequest(), uJ)
	}
	t.AddNote("paper claim (§2/§5.2): static binding becomes cumbersome when endpoints >> cores;")
	t.AddNote("bypass tail inflates by quantum-length waits while Lauberhorn keeps sub-quantum tails")
	return t
}
