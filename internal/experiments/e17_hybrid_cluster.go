package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// e17Small and e17Large are the two fixed body sizes of the mixed
// workload, chosen around the §6 DMA-fallback threshold (4 KiB): small
// bodies ride the cache-line path on every Lauberhorn-family stack,
// large ones cross the threshold only on Hybrid.
const (
	e17Small = 512
	e17Large = 8192
)

// e17Rate is the per-client offered load per target.
const e17Rate = 8_000

// E17HybridCluster compares every sweep-registered stack — the first
// registry-driven experiment: registering a new sweepable driver adds a
// row here with no experiment change — under switched cluster load with
// mixed message sizes. Two clients behind a learning switch each drive a
// small-body and a large-body service on one 2-core server. The claim
// (§6, pinned by TestE17Claims): Hybrid matches Lauberhorn on bodies
// below the threshold, where the two data paths are identical, and beats
// it on large bodies, where Hybrid reverts to DMA transfers instead of
// streaming aux cache lines in both directions.
func E17HybridCluster(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E17 — registered stacks under switched load, mixed 512B/8KiB bodies (2 cores, 1us handler)",
		"stack", "small p50 (us)", "small p99 (us)", "large p50 (us)", "large p99 (us)", "served", "sent")

	for _, ent := range stackdrv.All() {
		if !ent.Sweep {
			continue
		}
		u := o.build(m, e17Spec(17, ent.Kind))
		u.RunMeasured(10*sim.Millisecond, 30*sim.Millisecond)
		// Target order is [small, large] on every client; merge across
		// clients per size class.
		small, large := stats.NewHistogram(), stats.NewHistogram()
		for _, c := range u.Clients {
			small.Merge(c.Gen.PerTarget[0])
			large.Merge(c.Gen.PerTarget[1])
		}
		ps := small.Percentiles(0.5, 0.99)
		pl := large.Percentiles(0.5, 0.99)
		t.AddRow(ent.Name,
			sim.Time(ps[0]).Microseconds(),
			sim.Time(ps[1]).Microseconds(),
			sim.Time(pl[0]).Microseconds(),
			sim.Time(pl[1]).Microseconds(),
			u.TotalMeasuredServed(), u.TotalMeasuredSent())
	}
	t.AddNote("§6: hybrid = Lauberhorn + 4KiB DMA fallback; small bodies identical to Lauberhorn, large bodies")
	t.AddNote("revert to DMA and undercut pure cache-line streaming; rows come from the stack-driver registry")
	return t
}

// e17Spec declares the per-stack topology: one 2-core server exporting a
// small-body and a large-body echo service, two open-loop clients behind
// the switch driving both.
func e17Spec(seed uint64, stack cluster.Stack) cluster.Spec {
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
	for i := 0; i < 2; i++ {
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name: fmt.Sprintf("client%d", i),
			Targets: []cluster.TargetSpec{
				{Host: "server", Service: 1, Size: workload.FixedSize{N: e17Small}},
				{Host: "server", Service: 2, Size: workload.FixedSize{N: e17Large}},
			},
			Arrivals: workload.RatePerSec(2 * e17Rate),
		})
	}
	return sp
}
