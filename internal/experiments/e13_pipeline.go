package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/core"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E13DecodePipeline exercises the optional stages of Lauberhorn's decoder
// pipeline (Fig. 3: DECRYPT, DECOMPRESS, RPC DECODE): warm RTT for plain,
// encrypted, and encrypted+compressed requests of 1 KiB, compared against
// the configured per-byte stage costs. The paper (§6) treats encryption
// as handled "with fairly standard techniques" on the NIC — this shows
// the cost lands on the pipeline, not the host CPU.
func E13DecodePipeline(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E13 — decoder pipeline stages (1 KiB requests, warm)",
		"traffic", "RTT (us)", "delta vs plain (us)", "host cycles/req")

	const bodySize = 1024
	mk := func(flags uint16) *Rig {
		sp := RigSpec(cluster.Lauberhorn, 23, 1, 1, 0, workload.FixedSize{N: bodySize},
			workload.RatePerSec(100), nil)
		sp.Clients[0].Targets = []cluster.TargetSpec{{Host: sp.Hosts[0].Name, Service: 1, Flags: flags}}
		return buildRig(sp)
	}

	var plain sim.Time
	cases := []struct {
		name  string
		flags uint16
	}{
		{"plain", 0},
		{"encrypted", rpc.FlagEncrypted},
		{"encrypted+compressed", rpc.FlagEncrypted | rpc.FlagCompressed},
	}
	for i, c := range cases {
		r := mk(c.flags)
		m.Observe(r.U.S)
		rtt := singleRTT(r.U.S, r.Gen)
		if i == 0 {
			plain = rtt
		}
		t.AddRow(c.name, rtt.Microseconds(), (rtt - plain).Microseconds(), r.CyclesPerRequest())
	}
	nic := core.DefaultConfig(serverEP())
	t.AddNote("expected deltas at 1KiB: decrypt %v, decompress %v — paid in the NIC pipeline, host cycles unchanged",
		sim.Time(bodySize)*nic.DecryptPerByte, sim.Time(bodySize)*nic.DecompressPerByte)
	return t
}
