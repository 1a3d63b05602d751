package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E18Scales returns the spine-leaf scaling ladder: the number of server
// hosts (an equal number of clients drives them, so the top rung is a
// 64-machine universe). A fresh slice per call keeps it read-only for
// concurrent experiments.
func E18Scales() []int { return []int{4, 8, 32} }

// e18Rate is the per-client offered load. It is held constant across the
// ladder so the aggregate grows linearly with scale and the fabric —
// not the servers — is what the sweep stresses.
const e18Rate = 8_000

// e18Spines and e18LeafPorts shape the Clos: 4 machines per leaf, 2
// spines, clients filling the low leaves and servers the high ones, so
// every request crosses the spine tier and ECMP has real work to do.
const (
	e18Spines    = 2
	e18LeafPorts = 4
)

// E18ThreeTierScales returns the 3-tier ladder in server hosts; each
// rung also carries that many clients, so the top rung is a
// 1024-machine universe — the 1000+ host scale the sharded executor
// exists for.
func E18ThreeTierScales() []int { return []int{128, 512} }

// The 3-tier rungs keep e18's leaf shape but group leaves into pods of
// e18PodLeaves under e18Cores core switches, and back the per-client
// rate off so the top rung stays tractable: 512 clients x 1.5 krps is
// still a ~770 krps aggregate crossing the core tier.
const (
	e18TierRate   = 1_500
	e18Cores      = 4
	e18PodLeaves  = 8
	e18FanTargets = 4
)

// E18SpineLeaf sweeps host count over a two-tier spine-leaf fabric, per
// stack: N clients on their own leaves spray 64B echo requests across N
// single-service servers under deterministic ECMP. The table reports
// client-observed latency, aggregate throughput, and the ECMP spread
// (max/min frames per spine), the row a fabric operator reads to see
// whether the stack or the fabric saturates first as the universe grows
// from 8 to 64 machines.
func E18SpineLeaf(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E18 — spine-leaf scaling: N clients x N servers across a 2-spine Clos (64B, 1us handler, ECMP)",
		"stack", "servers", "machines", "offered (krps)", "p50 (us)", "p99 (us)", "served", "spine spread", "peak backlog (us)")

	for _, st := range sweepStacks("Lauberhorn", "Bypass", "Kernel") {
		for _, n := range E18Scales() {
			u := o.build(m, e18Spec(18, st.Stack, n))
			u.RunMeasured(5*sim.Millisecond, 25*sim.Millisecond)
			p := u.MergedLatency().Percentiles(0.5, 0.99)
			t.AddRow(st.Name, n, 2*n, float64(n*e18Rate)/1000,
				sim.Time(p[0]).Microseconds(),
				sim.Time(p[1]).Microseconds(),
				u.TotalMeasuredServed(), spineSpread(u),
				u.PeakNetBacklog().Microseconds())
		}
	}
	t.AddNote("clients fill the low leaves, servers the high ones: every request and response crosses the spines")
	t.AddNote("spine spread = max/min frames per spine; ~1.0 means the seeded flow hash balanced the uplinks")
	t.AddNote("peak backlog = deepest transmit queue any link reached; unbounded queues here, so no drops")
	return t
}

// spineSpread formats the ECMP balance ratio across spines.
func spineSpread(u *cluster.Universe) string {
	frames := u.Topo.UplinkFrames()
	min, max := frames[0], frames[0]
	for _, f := range frames[1:] {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if min == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(max)/float64(min))
}

// e18Spec declares the N x N spine-leaf universe: every client sprays
// uniformly across every server's single echo service.
func e18Spec(seed uint64, stack cluster.Stack, n int) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Fabric: cluster.FabricSpec{
			Spines:    e18Spines,
			LeafPorts: e18LeafPorts,
		},
	}
	for i := 0; i < n; i++ {
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: stack, Cores: 1,
			Services: []cluster.ServiceSpec{
				{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond},
			},
		})
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Size:     workload.FixedSize{N: fig2Body},
			Arrivals: workload.RatePerSec(e18Rate),
		})
	}
	return sp
}

// E18ThreeTier extends the ladder to a 3-tier Clos: N Lauberhorn servers
// and N clients across pods of 8 leaves under 4 core switches, topping
// out at 1024 machines. Each client sprays a 4-server window strided
// across the server space, so most requests leave the pod and the core
// tier carries real load; the table reads like E18SpineLeaf's with the
// pod/spine shape added. One stack only: at this scale the sweep is
// about the fabric (and, with -shards, the sharded executor), not the
// stack ordering the two-tier ladder already pins.
func E18ThreeTier(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E18 — 3-tier Clos scaling to 1024 machines (Lauberhorn, 64B, 1us handler, ECMP across pods and cores)",
		"servers", "machines", "pods", "spines", "offered (krps)", "p50 (us)", "p99 (us)", "served", "spine spread")

	for _, n := range E18ThreeTierScales() {
		u := o.build(m, e18TierSpec(18, n))
		u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
		p := u.MergedLatency().Percentiles(0.5, 0.99)
		t.AddRow(n, 2*n, u.Topo.Pods(), len(u.Topo.Spines),
			float64(n*e18TierRate)/1000,
			sim.Time(p[0]).Microseconds(),
			sim.Time(p[1]).Microseconds(),
			u.TotalMeasuredServed(), spineSpread(u))
	}
	t.AddNote("pods of 8 leaves x 2 spines under 4 cores; clients fill the low pods, servers the high ones")
	t.AddNote("each client sprays 4 servers strided across the server space, so requests cross the core tier")
	return t
}

// e18TierSpec declares the 3-tier universe: same leaf shape as e18Spec,
// grouped into pods under core switches, with strided 4-target spray
// instead of all-to-all (an all-to-all target list at 512x512 would
// spend more memory on per-target histograms than the fabric itself).
func e18TierSpec(seed uint64, n int) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Fabric: cluster.FabricSpec{
			Spines:    e18Spines,
			LeafPorts: e18LeafPorts,
			Cores:     e18Cores,
			PodLeaves: e18PodLeaves,
		},
	}
	for i := 0; i < n; i++ {
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: cluster.Lauberhorn, Cores: 1,
			Services: []cluster.ServiceSpec{
				{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond},
			},
		})
		var targets []cluster.TargetSpec
		for k := 0; k < e18FanTargets; k++ {
			j := (i + k*(n/e18FanTargets)) % n
			targets = append(targets, cluster.TargetSpec{
				Host: fmt.Sprintf("srv%d", j), Service: uint32(j + 1),
			})
		}
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Targets:  targets,
			Size:     workload.FixedSize{N: fig2Body},
			Arrivals: workload.RatePerSec(e18TierRate),
		})
	}
	return sp
}
