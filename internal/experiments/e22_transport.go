package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/transport"
)

// e22 reruns e19's partial-partition scenario — the flapping spine
// uplink that blackholes half the responses — under every transport
// scheme. e19 showed the wasted-work signature (completed dips below
// served: servers burned cycles the clients never saw) and left it
// there, because nothing retransmitted. This is the experiment where the
// transport layer has to pay for itself: retry must close the gap
// (blackholed responses are re-requested and replayed from the server's
// dup cache, so "blackholed" collapses to ~0), while ecn and credit —
// congestion schemes, not loss schemes — can shape the tail but cannot
// recover a response the fabric ate.
//
// The rig is e19's, byte for byte, except the uplinks additionally mark
// at 50 us of backlog (e19's 200 us drop limit is unchanged) so the ecn
// rows have their signal. The stack is Lauberhorn only: the transport,
// not the stack ordering e19 already pins, is what the matrix sweeps.
const e22MarkAt = 50 * sim.Microsecond

// e22Uplink is e19's oversubscribed 2.5 G uplink with ECN marking armed.
func e22Uplink() fabric.NetParams {
	up := e19Uplink()
	up.ECNThreshold = e22MarkAt
	return up
}

// e22Window is the warm-up/measure window, shared with the claims test
// (e19's: the flap schedule lands inside it).
func e22Window() (warm, dur sim.Time) { return 10 * sim.Millisecond, 30 * sim.Millisecond }

// E22TransportFaults sweeps transport x {steady, flap} on the e19 rig.
// "blackholed" is served minus completed: RPCs the servers executed
// whose responses the clients never saw. Open-loop raw leaves it at the
// mercy of the flap; retry drives it to ~0 by retransmitting into the
// server's dup cache. The retrans/marks columns show each scheme's
// mechanism engaging, and net drops what the fabric still ate.
func E22TransportFaults(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E22 — transports under e19's link-flap partition (Lauberhorn 4x4, 4KiB echo, 2.5G uplinks marking at 50us)",
		"transport", "fault", "p50 (us)", "p99 (us)", "completed", "served", "blackholed", "retrans", "marks", "net drops")

	o.Transport = transport.Raw // each row picks its own scheme, raw included
	warm, dur := e22Window()
	for _, e := range transport.All() {
		for _, flap := range []bool{false, true} {
			u := o.build(m, e22Spec(22, e.Kind, flap))
			u.RunMeasured(warm, dur)
			lat := u.MergedLatency()
			p := lat.Percentiles(0.5, 0.99)
			st := u.TransportStats()
			label := "steady"
			if flap {
				label = "flap 3x3ms"
			}
			t.AddRow(e.Name, label,
				sim.Time(p[0]).Microseconds(),
				sim.Time(p[1]).Microseconds(),
				lat.Count(), u.TotalMeasuredServed(),
				int64(u.TotalMeasuredServed())-int64(lat.Count()),
				st.Retransmits, u.ECNMarks(), u.DroppedFrames())
		}
	}
	t.AddNote("rig = e19's flap (uplink leaf0:spine0 down 3ms/up 2ms x3) with marking added on the uplinks;")
	t.AddNote("blackholed = served - completed, the wasted server work a partial partition leaves behind.")
	t.AddNote("raw eats it; retry retransmits until the cached response gets through (~0, at a tail cost);")
	t.AddNote("ecn and credit are congestion control, not loss recovery — they cannot win back a lost response")
	return t
}

// e22Spec is e19Spec restricted to Lauberhorn with marking uplinks and a
// per-row transport scheme. Like e21 it sets Transport explicitly, and
// E22TransportFaults clears the -transport option; the -shards option
// still applies (the rig is spine-leaf, and the matrix must shard
// cleanly).
func e22Spec(seed uint64, kind transport.Kind, flap bool) cluster.Spec {
	sp := e19Spec(seed, cluster.Lauberhorn, flap)
	sp.Fabric.Uplink = e22Uplink()
	sp.Transport = kind
	return sp
}
