package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E16Cluster runs a mixed-stack cluster — one Lauberhorn, one
// kernel-bypass, and one kernel-stack server side by side behind one
// switch — under Zipf-skewed load from three clients that spray requests
// across every service in the cluster. The skew places the hottest
// services on the Lauberhorn host, and the table breaks served work,
// tail latency, and energy down per host, the comparison a datacenter
// operator would actually look at when deciding which stack to deploy
// where. This is the multi-tenant, multi-server scenario the ROADMAP's
// "heavy traffic, scenario diversity" north star asks for; it only
// exists because the cluster layer can declare it.
func E16Cluster(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E16 — mixed-stack cluster under Zipf(1.2) load (3 servers, 3 clients, cloud-RPC sizes)",
		"host", "stack", "served", "p50 (us)", "p99 (us)", "energy (mJ)", "uJ/req")

	u := o.build(m, e16Spec(16))
	u.RunMeasured(10*sim.Millisecond, 40*sim.Millisecond)

	for _, h := range u.Hosts {
		lat := u.HostLatency(h.Spec.Name)
		served := h.MeasuredServed()
		// Windowed energy over windowed served: warmup joules must not
		// pollute the per-request comparison across stacks.
		energy := h.MeasuredEnergy()
		perReq := 0.0
		if served > 0 {
			perReq = energy / float64(served) * 1e6
		}
		p := lat.Percentiles(0.5, 0.99)
		t.AddRow(h.Spec.Name, h.Label, served,
			sim.Time(p[0]).Microseconds(),
			sim.Time(p[1]).Microseconds(),
			energy*1e3, perReq)
	}
	t.AddRow("TOTAL", "", u.TotalMeasuredServed(), 0, 0, 0, 0)
	t.AddNote("Zipf rank 1..4 land on the Lauberhorn host, 5-6 on bypass, 7-8 on the kernel stack")
	t.AddNote("switch: %d forwarded, %d flooded (FDB learns each MAC once)",
		u.Switch.Forwarded, u.Switch.Flooded)
	return t
}

// e16Spec declares the mixed cluster: eight services spread over three
// stacks, three clients with identical Zipf popularity over all of them.
func e16Spec(seed uint64) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Hosts: []cluster.HostSpec{
			{Name: "lh", Stack: cluster.Lauberhorn, Cores: 2,
				Services: []cluster.ServiceSpec{
					{ID: 1, Port: 9000, Time: sim.Microsecond},
					{ID: 2, Port: 9001, Time: sim.Microsecond},
					{ID: 3, Port: 9002, Time: sim.Microsecond},
					{ID: 4, Port: 9003, Time: sim.Microsecond},
				}},
			{Name: "byp", Stack: cluster.Bypass, Cores: 2,
				Services: []cluster.ServiceSpec{
					{ID: 11, Port: 9100, Time: sim.Microsecond},
					{ID: 12, Port: 9101, Time: sim.Microsecond},
				}},
			{Name: "krn", Stack: cluster.Kernel, Cores: 2,
				Services: []cluster.ServiceSpec{
					{ID: 21, Port: 9200, Time: sim.Microsecond},
					{ID: 22, Port: 9201, Time: sim.Microsecond},
				}},
		},
	}
	for i := 0; i < 3; i++ {
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name: fmt.Sprintf("client%d", i),
			// Targets default to every service on every host in spec
			// order, so the Zipf ranks follow the host order above.
			Size:       workload.CloudRPC(),
			Arrivals:   workload.RatePerSec(40_000),
			Popularity: workload.NewZipf(8, 1.2),
		})
	}
	return sp
}
