package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// e19 rig shape: 4 clients on leaf 0, 4 single-service servers on leaf
// 1, 2 spines, 4 KiB echo bodies. The uplinks are deliberately
// oversubscribed (2.5 Gb/s against 100 GbE access links) so each one
// runs ~40% loaded in steady state — when a flap removes one, the flows
// that crowd onto the survivor push it to ~80% and it queues.
//
// The flapped link is the *client* leaf's uplink to spine 0. The client
// leaf sees its own dead uplink and deterministically remaps every
// request onto spine 1, which congests — the surviving flows' tail
// stretches. The server leaf cannot see the remote cut, so it keeps
// hashing half its response flows onto spine 0, which has no live path
// back to the clients: those responses are blackholed. The servers did
// the work but the clients never see it, so "completed" dips below
// "served" — the wasted-work signature of a partial partition.
const (
	e19Machines = 4
	e19Rate     = 15_000
	e19Body     = 4096
)

// e19Uplink is the oversubscribed inter-switch link: 2.5 Gb/s with a
// bounded 200 us transmit queue, so sustained overload surfaces as tail
// drops rather than an infinite queue.
func e19Uplink() fabric.NetParams {
	return fabric.NetParams{
		Name:        "2.5GbE uplink",
		Bandwidth:   0.3125,
		PropDelay:   400 * sim.Nanosecond,
		SwitchDelay: 250 * sim.Nanosecond,
		QueueLimit:  200 * sim.Microsecond,
	}
}

// e19Flap returns the flap fault: three down(3ms)/up(2ms) cycles on
// uplink leaf0:spine0, starting 5 ms into the measurement window.
func e19Flap() cluster.FaultSpec {
	return cluster.FaultSpec{
		Kind: cluster.FaultLinkFlap,
		Leaf: 0, Spine: 0,
		At:      15 * sim.Millisecond, // RunMeasured warms for 10 ms
		DownFor: 3 * sim.Millisecond,
		UpFor:   2 * sim.Millisecond,
		Cycles:  3,
	}
}

// E19Faults measures what a flapping spine uplink does to each stack's
// tail: per stack it runs the same spine-leaf universe twice — steady,
// then with the e19Flap schedule — and reports client-observed latency,
// the completed/served/sent ladder, and frames the network dropped.
// Nothing is retransmitted (the generator is open loop), so completed
// counts exactly the RPCs whose responses survived, and the p99 growth
// is every request flow crowding onto the one live spine.
func E19Faults(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E19 — link-flap fault injection on a 2-spine Clos (4 clients x 4 servers, 4KiB echo, 2.5G uplinks)",
		"stack", "fault", "p50 (us)", "p99 (us)", "completed", "served", "sent", "net drops", "peak backlog (us)")

	for _, st := range sweepStacks("Lauberhorn", "Bypass", "Kernel") {
		for _, flap := range []bool{false, true} {
			u := o.build(m, e19Spec(19, st.Stack, flap))
			u.RunMeasured(10*sim.Millisecond, 30*sim.Millisecond)
			lat := u.MergedLatency()
			p := lat.Percentiles(0.5, 0.99)
			label := "steady"
			if flap {
				label = "flap 3x3ms"
			}
			t.AddRow(st.Name, label,
				sim.Time(p[0]).Microseconds(),
				sim.Time(p[1]).Microseconds(),
				lat.Count(), u.TotalMeasuredServed(), u.TotalMeasuredSent(),
				u.DroppedFrames(), u.PeakNetBacklog().Microseconds())
		}
	}
	t.AddNote("flap: uplink leaf0:spine0 (client side) down 3 ms / up 2 ms, three times, inside the window")
	t.AddNote("peak backlog = deepest transmit queue any link reached; the flap pushes the surviving uplink")
	t.AddNote("to its 200 us drop limit, which the steady run never approaches")
	t.AddNote("the client leaf reroutes every request onto spine 1, which congests — the tail stretches;")
	t.AddNote("the server leaf cannot see the remote cut and blackholes half its responses onto spine 0,")
	t.AddNote("so completed dips below served: the servers burned cycles the clients never saw")
	return t
}

// e19Spec declares the faultable universe; flap attaches the fault
// schedule, and everything else is byte-identical between the two runs.
func e19Spec(seed uint64, stack cluster.Stack, flap bool) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Fabric: cluster.FabricSpec{
			Spines:    2,
			LeafPorts: e19Machines,
			Uplink:    e19Uplink(),
		},
	}
	for i := 0; i < e19Machines; i++ {
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: stack, Cores: 1,
			Services: []cluster.ServiceSpec{
				{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond},
			},
		})
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Size:     workload.FixedSize{N: e19Body},
			Arrivals: workload.RatePerSec(e19Rate),
		})
	}
	if flap {
		sp.Faults = []cluster.FaultSpec{e19Flap()}
	}
	return sp
}
