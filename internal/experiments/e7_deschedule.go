package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E7Deschedule measures §5.1's clean descheduling: a core blocked on a
// control-line load is preempted by IPI + immediate TryAgain kick; we
// measure how long until the worker has re-entered the kernel, and the
// latency of the next request for the descheduled service (which now
// takes the kernel-dispatch path).
func E7Deschedule(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E7 — descheduling a stalled user loop",
		"metric", "value (us)")

	size := workload.FixedSize{N: fig2Body}
	r := StackRig(cluster.Lauberhorn, 3, 1, 1, 0, size, workload.RatePerSec(100), nil)
	s := r.U.S
	m.Observe(s)
	s.RunUntil(sim.Millisecond)
	// Warm into the user loop.
	r.Gen.SendTo(0)
	s.RunUntil(6 * sim.Millisecond)

	// Deschedule the (stalled) worker.
	start := s.Now()
	r.LH.Deschedule(0)
	worker := r.LH.Worker(0)
	for s.Now() < start+5*sim.Millisecond {
		if worker.Proc() == kernel.KernelProc && !worker.Stalled() {
			break
		}
		if !s.Step() {
			break
		}
	}
	unblock := s.Now() - start
	t.AddRow("unblock (kick -> back in kernel)", unblock.Microseconds())

	// Let the worker park on the kernel line again, then measure a cold
	// redispatch.
	s.RunUntil(s.Now() + 2*sim.Millisecond)
	r.Gen.Latency.Reset()
	r.Gen.SendTo(0)
	s.RunUntil(s.Now() + 10*sim.Millisecond)
	cold := sim.Time(r.Gen.Latency.Max())
	t.AddRow("post-deschedule request RTT (kernel dispatch)", cold.Microseconds())

	// Reference: warm fast-path RTT.
	s.RunUntil(s.Now() + 2*sim.Millisecond)
	r.Gen.Latency.Reset()
	r.Gen.SendTo(0)
	s.RunUntil(s.Now() + 10*sim.Millisecond)
	warm := sim.Time(r.Gen.Latency.Max())
	t.AddRow("warm fast-path RTT (reference)", warm.Microseconds())
	t.AddNote("a blocked communication load is a clean synchronization point (§5.1): unblock costs an IPI + TryAgain, microseconds not quanta")
	return t
}
