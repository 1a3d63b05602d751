package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// E12HybridDataPath validates §6's large-message policy end to end: warm
// RTT by message size for pure cache-line delivery versus the hybrid path
// that reverts to DMA at 4 KiB. Unlike E5 (the analytic transfer model),
// this drives the full stack — decode pipeline, control-line protocol,
// handler, response recall — so it shows the policy's effect on real
// request latency.
func E12HybridDataPath(m *sim.Meter) *stats.Table {
	t := stats.NewTable("E12 — hybrid data path: warm RTT by size (1 core, echo)",
		"body (B)", "cache-line only (us)", "hybrid 4KiB DMA fallback (us)", "hybrid wins")

	measure := func(stack cluster.Stack, size int) sim.Time {
		r := StackRig(stack, 19, 1, 1, 0, workload.FixedSize{N: size}, workload.RatePerSec(100), nil)
		m.Observe(r.U.S)
		return singleRTT(r.U.S, r.Gen)
	}
	for _, size := range []int{256, 1024, 2048, 4096, 6144, 8192} {
		pure := measure(cluster.Lauberhorn, size)
		hybrid := measure(cluster.Hybrid, size)
		wins := ""
		if hybrid < pure {
			wins = "yes"
		}
		t.AddRow(size, pure.Microseconds(), hybrid.Microseconds(), wins)
	}
	t.AddNote("§6: 'for large messages ... it is best to revert back to DMA-based transfers'; the hybrid path")
	t.AddNote("matches cache-line latency below the threshold and beats it above")
	return t
}
