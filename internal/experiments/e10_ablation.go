package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/core"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E10Ablation isolates the contribution of each Lauberhorn design choice
// on the E4 dynamic workload: full system, minus NIC-driven scheduling
// (no retire/kernel dispatch: cold services wait out TryAgain periods),
// minus the NIC RPC decoder (host pays software codec costs), and on a
// CXL3 fabric instead of ECI.
func E10Ablation(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E10 — ablations (E4 workload: 64 services, 8 cores, Zipf 1.1, 150 krps)",
		"variant", "p50 (us)", "p99 (us)", "served", "sent", "cycles/req")

	size := workload.CloudRPC()
	service := sim.Microsecond
	variants := []struct {
		name   string
		mutate func(h *core.Host)
	}{
		{"full Lauberhorn", func(h *core.Host) {}},
		{"- NIC-driven scheduling", func(h *core.Host) { h.SetDynamicScheduling(false) }},
		{"- NIC RPC decode (sw codec)", func(h *core.Host) {
			cfg := h.Config()
			cfg.SoftwareCodec = true
			h.SetSoftwareCodec(cfg.Codec)
		}},
	}
	for _, v := range variants {
		r := StackRig(cluster.Lauberhorn, 13, e4Cores, e4Services, service, size,
			workload.RatePerSec(e4RateRPS), workload.NewZipf(e4Services, 1.1))
		v.mutate(r.LH)
		m.Observe(r.U.S)
		r.U.RunMeasured(20*sim.Millisecond, 60*sim.Millisecond)
		p := r.Gen.Latency.Percentiles(0.5, 0.99)
		t.AddRow(v.name,
			sim.Time(p[0]).Microseconds(),
			sim.Time(p[1]).Microseconds(),
			r.MeasuredServed(), r.MeasuredSent(), r.CyclesPerRequest())
	}
	t.AddNote("without NIC-driven scheduling, cores stay bound to their first service and cold services starve (served << sent);")
	t.AddNote("removing the NIC decoder moves unmarshal cycles back onto host cores (cycles/req and tail rise)")
	return t
}

// E10Fabrics compares the warm fast-path RTT across coherent fabrics
// (§4: "we anticipate comparable gains with CXL 3.0").
func E10Fabrics(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E10b — Lauberhorn fast path across coherent fabrics (64B RPC)",
		"fabric", "warm RTT (us)", "line fill (ns)")
	size := workload.FixedSize{N: fig2Body}
	for _, fb := range []fabric.Params{fabric.ECI, fabric.CXL3} {
		// Hand-wired: no Spec field picks the Lauberhorn NIC's coherent
		// fabric.
		s := sim.New(3)
		cfg := core.DefaultHostConfig(serverEP(), 1)
		cfg.NIC.Fabric = fb
		h := core.NewHost(s, cfg)
		link := fabric.NewLink(s, fabric.Net100G)
		gen := workload.NewGenerator(s, genConfig(1, size, workload.RatePerSec(100), nil), link, 0)
		link.Attach(gen, h.NIC)
		h.NIC.AttachLink(link, 1)
		h.RegisterService(echoService(1, 0), basePort, 0)
		h.Start()
		m.Observe(s)
		rtt := singleRTT(s, gen)
		t.AddRow(fb.Name, rtt.Microseconds(), fb.LineFill.Nanoseconds())
	}
	return t
}
