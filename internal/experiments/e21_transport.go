package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// e21 rig shape: K clients fire synchronized 4-request bursts of 4 KiB
// bodies into one 2-core Lauberhorn server through the star switch, over
// deliberately tight 10 GbE access links with a bounded 100 us transmit
// queue. A K=16 burst is 64 jumbo frames converging on one egress queue
// whose limit is ~30 frames: without a transport the collapse is
// structural — the queue overflows every burst and the lost requests are
// simply gone (the generator is open loop). The transport matrix is the
// experiment: per scheme the table shows where the lost goodput went —
// recovered late (retry), avoided by marking and window cuts (ecn), or
// never queued at all (credit's receiver pacing).
const (
	e21Body   = 4096
	e21BurstB = 4
	e21Period = 250 * sim.Microsecond
	e21Rate   = float64(e21BurstB) * float64(sim.Second) / float64(e21Period) // per client, rps
)

// E21Ks returns the fan-in ladder (clients per burst wave). A fresh
// slice per call keeps it read-only for concurrent experiments.
func E21Ks() []int { return []int{2, 4, 8, 16} }

// e21Net is the access-link parameter set: 10 GbE with a 100 us bounded
// queue and ECN marking armed at 20 us of backlog. The threshold is live
// for every scheme — the links always mark — but only the ecn transport
// reacts; the marks column shows the signal the other schemes ignore.
func e21Net() fabric.NetParams {
	return fabric.NetParams{
		Name:         "10GbE access",
		Bandwidth:    1.25,
		PropDelay:    400 * sim.Nanosecond,
		SwitchDelay:  250 * sim.Nanosecond,
		QueueLimit:   100 * sim.Microsecond,
		ECNThreshold: 20 * sim.Microsecond,
	}
}

// e21Window is the warm-up/measure window shared with the claims test:
// goodput is completed RPCs over the measured 25 ms.
func e21Window() (warm, dur sim.Time) { return 5 * sim.Millisecond, 25 * sim.Millisecond }

// E21Transport is the incast collapse-and-recovery matrix: transport
// scheme x fan-in K, reporting offered vs goodput (completed RPCs over
// the window), the latency tail, and each scheme's footprint —
// retransmits, link ECN marks, frames the network dropped. Rows come
// from the transport registry, so a newly registered scheme shows up
// without harness changes.
func E21Transport(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E21 — incast collapse and recovery: transport schemes under K-client burst fan-in (4KiB, 10GbE access, 100us queue)",
		"transport", "clients", "offered (krps)", "goodput (krps)", "p50 (us)", "p99 (us)", "completed", "retrans", "marks", "net drops")

	o.Transport = transport.Raw // each row picks its own scheme, raw included
	warm, dur := e21Window()
	for _, e := range transport.All() {
		for _, k := range E21Ks() {
			u := o.build(m, e21Spec(21, e.Kind, k))
			u.RunMeasured(warm, dur)
			lat := u.MergedLatency()
			p := lat.Percentiles(0.5, 0.99)
			st := u.TransportStats()
			window := float64(dur) / float64(sim.Second)
			t.AddRow(e.Name, k,
				float64(k)*e21Rate/1000,
				float64(lat.Count())/window/1000,
				sim.Time(p[0]).Microseconds(),
				sim.Time(p[1]).Microseconds(),
				lat.Count(), st.Retransmits, u.ECNMarks(), u.DroppedFrames())
		}
	}
	t.AddNote("every client fires a 4-request burst each 250us, synchronized: K=16 offers 64 frames per wave")
	t.AddNote("into a ~30-frame egress queue. raw loses the overflow outright; retry recovers it after RTOs")
	t.AddNote("(tail in the ms); ecn cuts windows on marks; credit never overflows — receiver-paced grants")
	t.AddNote("keep the queue below the marking threshold, so goodput holds at the largest fan-in")
	return t
}

// e21Spec declares the K-into-1 burst universe under one transport
// scheme. Unlike the other cluster experiments it sets Transport
// explicitly per row, and E21Transport clears the -transport option.
func e21Spec(seed uint64, kind transport.Kind, k int) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Net:  e21Net(),
		Hosts: []cluster.HostSpec{{
			Name: "server", Stack: cluster.Lauberhorn, Cores: 2,
			Services: []cluster.ServiceSpec{
				{ID: 1, Port: 9000, Time: 500 * sim.Nanosecond},
			},
		}},
		Transport: kind,
	}
	for i := 0; i < k; i++ {
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name: fmt.Sprintf("client%d", i),
			Size: workload.FixedSize{N: e21Body},
			// Stateful per client: each ClientSpec needs its own Burst.
			Arrivals: &workload.Burst{B: e21BurstB, Period: e21Period},
		})
	}
	return sp
}
