package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E15Ks returns the incast fan-in ladder (number of clients). A fresh
// slice per call keeps it read-only for concurrent experiments.
func E15Ks() []int { return []int{1, 2, 4, 8} }

// e15Rate is the per-client offered load: the aggregate grows linearly
// with K, so the top of the ladder pushes the 2-core server toward
// saturation and exposes each stack's tail behavior under fan-in.
const e15Rate = 25_000

// E15Incast measures incast fan-in, the scenario the old point-to-point
// rigs could not express: K independent clients, each behind its own
// switch port, converge on one 2-core server. Per stack and per K it
// reports the tail of the merged client-side latency distribution. Only
// the cluster layer makes this topology declarative — the spec is K+1
// machines around one learning switch.
func E15Incast(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E15 — incast: K clients fan into one server through the switch (64B, 1us handler, 2 cores)",
		"stack", "clients", "offered (krps)", "p50 (us)", "p99 (us)", "served", "sent")

	for _, st := range sweepStacks("Lauberhorn", "Bypass", "Kernel") {
		for _, k := range E15Ks() {
			u := o.build(m, incastSpec(15, st.Stack, k))
			u.RunMeasured(10*sim.Millisecond, 30*sim.Millisecond)
			p := u.MergedLatency().Percentiles(0.5, 0.99)
			t.AddRow(st.Name, k, float64(k*e15Rate)/1000,
				sim.Time(p[0]).Microseconds(),
				sim.Time(p[1]).Microseconds(),
				u.TotalMeasuredServed(), u.TotalMeasuredSent())
		}
	}
	t.AddNote("every client has its own link and switch port; the aggregate load grows with K")
	t.AddNote("expected shape: Lauberhorn's tail stays flat far longer than the kernel stack's")
	return t
}

// incastSpec declares the K-into-1 topology: one 2-core server with two
// echo services and K identical open-loop clients.
func incastSpec(seed uint64, stack cluster.Stack, k int) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Hosts: []cluster.HostSpec{{
			Name: "server", Stack: stack, Cores: 2,
			Services: []cluster.ServiceSpec{
				{ID: 1, Port: 9000, Time: sim.Microsecond},
				{ID: 2, Port: 9001, Time: sim.Microsecond},
			},
		}},
	}
	for i := 0; i < k; i++ {
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("client%d", i),
			Size:     workload.FixedSize{N: fig2Body},
			Arrivals: workload.RatePerSec(e15Rate),
		})
	}
	return sp
}
