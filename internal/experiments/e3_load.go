package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// e3Cores and the rate ladder are sized so the kernel stack saturates
// inside the sweep while bypass and Lauberhorn do not, exposing both the
// latency gap and the throughput ceilings.
const e3Cores = 4

// E3Rates returns the offered-load ladder (requests/second). A fresh
// slice per call keeps the ladder read-only from every caller's point of
// view, so concurrent experiments cannot perturb each other.
func E3Rates() []float64 {
	return []float64{50_000, 100_000, 200_000, 400_000}
}

// e3Services returns how many echo services the stack needs to keep all
// e3Cores busy on one hot workload. Statically provisioned bypass needs
// one service (= one worker, one queue) per core — sharding the hot
// service, as bypass deployments do; the scheduled stacks serve it from
// one service.
func e3Services(stack cluster.Stack) int {
	if stack == cluster.Bypass {
		return e3Cores
	}
	return 1
}

// E3LoadLatency reproduces the paper's headline comparison (§1/§4):
// latency versus offered load for the three stacks, 1 µs handlers,
// 64-byte requests, 4 cores, one hot service.
func E3LoadLatency(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E3 — latency vs offered load (64B RPC, 1us handler, 4 cores)",
		"stack", "rate (krps)", "p50 (us)", "p99 (us)", "served", "sent", "cycles/req")

	size := workload.FixedSize{N: fig2Body}
	service := sim.Microsecond
	for _, st := range sweepStacks("Lauberhorn", "Bypass", "Kernel") {
		for _, rate := range E3Rates() {
			r := StackRig(st.Stack, 7, e3Cores, e3Services(st.Stack), service, size,
				workload.RatePerSec(rate), nil)
			m.Observe(r.U.S)
			r.U.RunMeasured(20*sim.Millisecond, 50*sim.Millisecond)
			p := r.Gen.Latency.Percentiles(0.5, 0.99)
			t.AddRow(st.Name, rate/1000,
				sim.Time(p[0]).Microseconds(),
				sim.Time(p[1]).Microseconds(),
				r.MeasuredServed(), r.MeasuredSent(),
				r.CyclesPerRequest())
		}
	}
	t.AddNote("paper claim: Lauberhorn latency below kernel bypass at every load, kernel stack far above both")
	return t
}

// E3Throughput measures the peak sustainable request rate per stack with
// a closed-loop client at high concurrency.
func E3Throughput(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E3b — peak throughput (closed loop, 64 clients, 1us handler, 4 cores)",
		"stack", "requests/s", "p50 (us)", "p99 (us)")
	size := workload.FixedSize{N: fig2Body}
	service := sim.Microsecond
	const concurrency = 64
	const window = 50 * sim.Millisecond
	for _, b := range sweepStacks("Lauberhorn", "Bypass", "Kernel") {
		r := StackRig(b.Stack, 7, e3Cores, e3Services(b.Stack), service, size, nil, nil)
		s := r.U.S
		m.Observe(s)
		cl := workload.NewClosedLoop(s, genConfig(len(r.Gen.PerTarget), size, nil, nil), r.Host.Link, 0, concurrency, 0)
		// Substitute the closed-loop client as the link's client port.
		r.Host.Link.ReplacePort(0, cl)
		cl.Start()
		s.RunUntil(10 * sim.Millisecond)
		received0 := cl.Received
		s.RunUntil(10*sim.Millisecond + window)
		cl.Stop()
		rps := float64(cl.Received-received0) / window.Seconds()
		p := cl.Latency.Percentiles(0.5, 0.99)
		t.AddRow(b.Name, rps,
			sim.Time(p[0]).Microseconds(),
			sim.Time(p[1]).Microseconds())
	}
	return t
}
