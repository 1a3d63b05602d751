package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/cpu"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E6IdleCost reproduces §5.1's energy/polling claim: with sparse traffic,
// a bypass core burns full power spinning, a Lauberhorn core stalls at
// low power (TryAgain every 15 ms bounds the bus traffic), and a kernel
// core sleeps but pays wakeup latency. One core, one service, 200
// requests/second for half a second.
func E6IdleCost(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E6 — sparse load (200 rps, 0.5s): energy & core states",
		"stack", "energy (J)", "mJ/req", "spin (ms)", "stall (ms)", "idle (ms)", "busy (ms)", "p50 lat (us)")

	size := workload.FixedSize{N: fig2Body}
	const window = 500 * sim.Millisecond
	for _, b := range sweepStacks("Lauberhorn", "Bypass", "Kernel") {
		r := StackRig(b.Stack, 5, 1, 1, 0, size, workload.RatePerSec(200), nil)
		m.Observe(r.U.S)
		r.Gen.Start(window)
		r.U.RunUntil(window + 20*sim.Millisecond)
		c := r.Cores()[0]
		served := r.Served()
		energy := r.Energy()
		mJ := 0.0
		if served > 0 {
			mJ = energy / float64(served) * 1e3
		}
		ms := func(st cpu.State) float64 {
			return float64(c.Residency(st)) / float64(sim.Millisecond)
		}
		t.AddRow(b.Name, energy, mJ,
			ms(cpu.Spin), ms(cpu.Stall), ms(cpu.Idle),
			ms(cpu.User)+ms(cpu.Kernel),
			sim.Time(r.Gen.Latency.Percentile(0.5)).Microseconds())
	}
	t.AddNote("paper §4: 'no energy wasted in spinning'; §5.1: TryAgain reduces polling overhead to almost zero")
	return t
}

// E6BusTraffic quantifies the idle-state interconnect traffic: coherence
// operations per second for an idle Lauberhorn core versus what a 15 ms
// TryAgain period implies.
func E6BusTraffic(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E6b — idle interconnect traffic (1 core, no load, 1s)",
		"metric", "count", "per second")
	r := StackRig(cluster.Lauberhorn, 5, 1, 1, 0, workload.FixedSize{N: fig2Body}, workload.RatePerSec(1), nil)
	m.Observe(r.U.S)
	// No traffic at all: do not start the generator.
	r.U.RunUntil(sim.Second)
	st := r.LH.NIC.Stats()
	dir := r.LH.NIC.Directory().Stats()
	t.AddRow("TryAgain messages", st.TryAgains, float64(st.TryAgains))
	t.AddRow("line fills", dir.Fills.Value(), float64(dir.Fills.Value()))
	t.AddRow("deferred fills", dir.DeferredFills.Value(), float64(dir.DeferredFills.Value()))
	t.AddNote("15ms TryAgain period => ~67 fills/s on an idle endpoint; a spin loop would issue millions")
	return t
}
