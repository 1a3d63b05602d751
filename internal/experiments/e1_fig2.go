package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// fig2Body is the RPC body size for a 64-byte message (64 B total with
// the 24-byte RPC header).
const fig2Body = 40

// singleRTT warms the server behind gen with a few requests, then
// measures one request's round trip from the raw generator.
func singleRTT(s *sim.Sim, gen *workload.Generator) sim.Time {
	s.RunUntil(sim.Millisecond)
	// Warm: establish the fast path / warm caches.
	for i := 0; i < 3; i++ {
		gen.SendTo(0)
		s.RunUntil(s.Now() + 5*sim.Millisecond)
	}
	gen.Latency.Reset()
	gen.SendTo(0)
	s.RunUntil(s.Now() + 20*sim.Millisecond)
	if gen.Latency.Count() == 0 {
		return sim.Never
	}
	return sim.Time(gen.Latency.Max())
}

// wireRTT returns the pure network time for the request/response pair so
// the symmetric-client adjustment can be computed.
func wireRTT(r *Rig) sim.Time {
	reqFrame := wire.HeadersLen + rpc.HeaderLen + fig2Body
	if reqFrame < wire.MinFrameLen {
		reqFrame = wire.MinFrameLen
	}
	p := r.Host.Link.Params()
	return 2 * p.OneWay(reqFrame)
}

// E1Fig2 reproduces Figure 2: 64-byte message round-trip latencies for
// Enzian DMA, x86 DMA, and ECI (Lauberhorn).
//
// The generator is a raw wire port, so a measured RTT covers one server
// end-system plus the network. Figure 2's testbed has a symmetric client
// running the same stack, so the table also reports the symmetric
// estimate RTT_sym = 2*RTT_raw − RTT_wire (both end systems plus one
// network round trip); the table's notes carry the paper's values for
// comparison, and TestE1Fig2Shape pins the ordering and ratios.
func E1Fig2(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E1 / Figure 2 — 64-byte message round-trip latency",
		"series", "server-side RTT (us)", "symmetric est. (us)", "vs ECI")

	size := workload.FixedSize{N: fig2Body}
	arr := workload.RatePerSec(100) // irrelevant; we send manually
	// The figure's series names are substrate descriptions, not stack
	// names, so the rows pin them; the rigs come from the registry.
	type row struct {
		name  string
		stack cluster.Stack
	}
	rows := []row{
		{"ECI (Lauberhorn)", cluster.Lauberhorn},
		{"x86 DMA (kernel)", cluster.Kernel},
		{"Enzian DMA (kernel)", cluster.KernelEnzian},
	}
	var eciSym float64
	for i, rw := range rows {
		r := StackRig(rw.stack, 1, 1, 1, 0, size, arr, nil)
		m.Observe(r.U.S)
		raw := singleRTT(r.U.S, r.Gen)
		wrt := wireRTT(r)
		symmetric := 2*raw - wrt
		if i == 0 {
			eciSym = symmetric.Microseconds()
		}
		ratio := symmetric.Microseconds() / eciSym
		t.AddRow(rw.name, raw.Microseconds(), symmetric.Microseconds(), ratio)
	}
	t.AddNote("symmetric est. = 2*raw - wire (both end systems, as in the paper's testbed)")
	t.AddNote("paper: ECI ~3us, x86 DMA ~21us, Enzian DMA ~55us; shape: ECI << x86 << Enzian")
	return t
}
