package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// e23 rig shape: a 2-spine Clos with 4 paired client/server machines —
// each client drives its own single-core Lauberhorn server, so the
// bottleneck is the 4 us service CPU (250 krps nominal capacity per
// host) and never the fabric. The sweep holds the rig fixed and varies
// only the arrival process: a Poisson rate ladder walks offered load
// through the knee, then an MMPP and a diurnal curve offer the *same
// mean* load as a mid-ladder Poisson point but deliver it in bursts —
// the open-loop claim is that mean rate alone does not determine the
// tail once arrivals are allowed to cluster.
const (
	e23Machines = 4
	e23Body     = 64
	e23Service  = 4 * sim.Microsecond
)

// e23Rates is the Poisson offered-load ladder in krps per client,
// straddling the 250 krps service capacity.
var e23Rates = []float64{50, 120, 180, 220, 240, 260}

// e23MeanRate is the mid-ladder rate (krps) the bursty rows match in
// mean: MMPP averages its calm and hot states to this, and the diurnal
// curve averages its two phases to this.
const e23MeanRate = 180

// e23Gap converts a per-client rate in krps to a mean inter-arrival gap.
func e23Gap(krps float64) sim.Time {
	return sim.Time(float64(sim.Second) / (krps * 1000))
}

// e23Row is one rung of the sweep: a label, the mean offered rate in
// krps per client, and a maker for a fresh arrival-process instance.
type e23Row struct {
	Label string
	KRPS  float64
	Mk    func() workload.ArrivalDist
}

// e23Arrivals builds the arrival-process rows: the Poisson ladder, then
// the two bursty processes at the e23MeanRate mean. Stateful processes
// are built fresh per Mk call — specs must not share them.
func e23Arrivals() []e23Row {
	var rows []e23Row
	for _, r := range e23Rates {
		r := r
		rows = append(rows, e23Row{fmt.Sprintf("poisson %.0fk", r), r, func() workload.ArrivalDist {
			return workload.Poisson{Mean: e23Gap(r)}
		}})
	}
	// MMPP: calm 60 krps / hot 300 krps with equal 200 us mean dwells
	// averages (60+300)/2 = 180 krps; the hot state runs 20% past
	// capacity, so every hot dwell builds a queue the calm state drains.
	rows = append(rows, e23Row{"mmpp 60k/300k", e23MeanRate, func() workload.ArrivalDist {
		return &workload.MMPP{
			CalmMean: e23Gap(60), HotMean: e23Gap(300),
			CalmPeriod: 200 * sim.Microsecond, HotPeriod: 200 * sim.Microsecond,
		}
	}})
	// Diurnal: two equal 1 ms phases at 0.333x and 1.667x of 180 krps
	// (60 and 300 krps) — the same burstiness as the MMPP but on a
	// deterministic schedule.
	rows = append(rows, e23Row{"diurnal 60k/300k", e23MeanRate, func() workload.ArrivalDist {
		return &workload.Diurnal{Mean: e23Gap(e23MeanRate), Phases: []workload.RatePhase{
			{Dur: sim.Millisecond, Mult: 60.0 / e23MeanRate},
			{Dur: sim.Millisecond, Mult: 300.0 / e23MeanRate},
		}}
	}})
	return rows
}

// E23OpenLoop sweeps the arrival processes over the fixed rig and
// reports the client-observed latency ladder: the Poisson rows trace
// the open-loop knee as offered load crosses service capacity, and the
// bursty rows show the tail decoupling from the mean — MMPP and diurnal
// at 180 krps mean land far above the Poisson 180 krps point because
// their hot states run past capacity and queue.
func E23OpenLoop(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E23 — open-loop arrival processes on a 2-spine Clos (4 clients x 4 servers, 64B, 4us service)",
		"arrivals", "mean offered (krps)", "sent", "completed", "served", "p50 (us)", "p99 (us)")
	for _, row := range e23Arrivals() {
		u := o.build(m, e23Spec(23, row.Mk))
		u.RunMeasured(2*sim.Millisecond, 10*sim.Millisecond)
		lat := u.MergedLatency()
		p := lat.Percentiles(0.5, 0.99)
		t.AddRow(row.Label, row.KRPS,
			u.TotalMeasuredSent(), lat.Count(), u.TotalMeasuredServed(),
			sim.Time(p[0]).Microseconds(), sim.Time(p[1]).Microseconds())
	}
	t.AddNote("each client drives its own single-core 4us server: ~207 krps measured capacity once stack")
	t.AddNote("overhead rides on the 4us service; the knee sits between the 180k and 220k rungs, where")
	t.AddNote("open-loop arrivals outrun service and the queue stops draining for the rest of the window")
	t.AddNote("mmpp: calm 60k / hot 300k, 200 us exponential dwells; diurnal: 1 ms phases at 60k and 300k —")
	t.AddNote("both offer the same 180 krps mean as the mid-ladder Poisson row but queue during every burst")
	return t
}

// e23Spec declares one universe of the sweep; only the arrival process
// varies between rows. mk runs once per client, because the stateful
// processes (MMPP, Diurnal) must not be shared between clients.
func e23Spec(seed uint64, mk func() workload.ArrivalDist) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Fabric: cluster.FabricSpec{
			Spines:    2,
			LeafPorts: e23Machines,
		},
	}
	for i := 0; i < e23Machines; i++ {
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: cluster.Lauberhorn, Cores: 1,
			Services: []cluster.ServiceSpec{
				{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: e23Service},
			},
		})
	}
	for i := 0; i < e23Machines; i++ {
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Size:     workload.FixedSize{N: e23Body},
			Arrivals: mk(),
			Targets:  []cluster.TargetSpec{{Host: fmt.Sprintf("srv%d", i), Service: uint32(i + 1)}},
		})
	}
	return sp
}
