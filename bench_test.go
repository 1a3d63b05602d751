// Benchmarks regenerating every figure and quantitative claim of the
// paper. One benchmark (or benchmark family) per table/figure; custom
// metrics carry the figures' units (microseconds, requests/s, joules).
// Run with:
//
//	go test -bench . -benchmem
package lauberhorn

import (
	"testing"

	"fmt"

	"lauberhorn/internal/check"
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/experiments"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

// reportRTT runs a single-request RTT measurement rig and reports it.
func benchSingleRTT(b *testing.B, mk func() *experiments.Rig) {
	var rtt sim.Time
	for i := 0; i < b.N; i++ {
		r := mk()
		s := r.U.S
		s.RunUntil(sim.Millisecond)
		for w := 0; w < 3; w++ { // warm the fast path
			r.Gen.SendTo(0)
			s.RunUntil(s.Now() + 5*sim.Millisecond)
		}
		r.Gen.Latency.Reset()
		r.Gen.SendTo(0)
		s.RunUntil(s.Now() + 20*sim.Millisecond)
		rtt = sim.Time(r.Gen.Latency.Max())
	}
	b.ReportMetric(rtt.Microseconds(), "rtt-us")
}

var fig2Size = workload.FixedSize{N: 40}

// BenchmarkFig2_ECI is Figure 2's "ECI" bar: Lauberhorn warm fast path.
func BenchmarkFig2_ECI(b *testing.B) {
	benchSingleRTT(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Lauberhorn, 1, 1, 1, 0, fig2Size, workload.RatePerSec(100), nil)
	})
}

// BenchmarkFig2_X86DMA is Figure 2's "x86 DMA" bar: kernel stack on a
// commodity PCIe NIC.
func BenchmarkFig2_X86DMA(b *testing.B) {
	benchSingleRTT(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Kernel, 1, 1, 1, 0, fig2Size, workload.RatePerSec(100), nil)
	})
}

// BenchmarkFig2_EnzianDMA is Figure 2's "Enzian DMA" bar: kernel stack on
// the FPGA NIC over PCIe.
func BenchmarkFig2_EnzianDMA(b *testing.B) {
	benchSingleRTT(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.KernelEnzian, 1, 1, 1, 0, fig2Size, workload.RatePerSec(100), nil)
	})
}

// BenchmarkE2_Breakdown regenerates the §2 twelve-step cost table.
func BenchmarkE2_Breakdown(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		tb := experiments.E2Breakdown(nil)
		total = float64(len(tb.Rows))
	}
	b.ReportMetric(total, "rows")
}

// benchLoadPoint runs one latency-vs-load point and reports p50/p99.
func benchLoadPoint(b *testing.B, mk func(arr workload.ArrivalDist) *experiments.Rig, rate float64) {
	var p50, p99 float64
	for i := 0; i < b.N; i++ {
		r := mk(workload.RatePerSec(rate))
		r.U.RunMeasured(20*sim.Millisecond, 50*sim.Millisecond)
		p50 = sim.Time(r.Gen.Latency.Percentile(0.5)).Microseconds()
		p99 = sim.Time(r.Gen.Latency.Percentile(0.99)).Microseconds()
	}
	b.ReportMetric(p50, "p50-us")
	b.ReportMetric(p99, "p99-us")
}

// BenchmarkE3_LoadLatency_* are the latency-vs-load series at 200 krps.
func BenchmarkE3_LoadLatency_Lauberhorn(b *testing.B) {
	benchLoadPoint(b, func(arr workload.ArrivalDist) *experiments.Rig {
		return experiments.StackRig(cluster.Lauberhorn, 7, 4, 1, sim.Microsecond, fig2Size, arr, nil)
	}, 200_000)
}

func BenchmarkE3_LoadLatency_Bypass(b *testing.B) {
	benchLoadPoint(b, func(arr workload.ArrivalDist) *experiments.Rig {
		return experiments.StackRig(cluster.Bypass, 7, 4, 4, sim.Microsecond, fig2Size, arr, nil)
	}, 200_000)
}

func BenchmarkE3_LoadLatency_Kernel(b *testing.B) {
	benchLoadPoint(b, func(arr workload.ArrivalDist) *experiments.Rig {
		return experiments.StackRig(cluster.Kernel, 7, 4, 1, sim.Microsecond, fig2Size, arr, nil)
	}, 200_000)
}

// BenchmarkE3_Throughput regenerates the closed-loop peak-throughput
// table and reports Lauberhorn's ceiling.
func BenchmarkE3_Throughput(b *testing.B) {
	var rps float64
	for i := 0; i < b.N; i++ {
		tb := experiments.E3Throughput(nil)
		var v float64
		if _, err := sscanCell(tb.Rows[0][1], &v); err == nil {
			rps = v
		}
	}
	b.ReportMetric(rps, "peak-rps")
}

// benchDynamic runs the E4 dynamic-mix point for one stack.
func benchDynamic(b *testing.B, mk func() *experiments.Rig) {
	var p99 float64
	var cyc float64
	for i := 0; i < b.N; i++ {
		r := mk()
		r.U.RunMeasured(20*sim.Millisecond, 60*sim.Millisecond)
		p99 = sim.Time(r.Gen.Latency.Percentile(0.99)).Microseconds()
		cyc = r.CyclesPerRequest()
	}
	b.ReportMetric(p99, "p99-us")
	b.ReportMetric(cyc, "cycles/req")
}

// BenchmarkE4_DynamicMix_* are the dynamic-mix series (64 services on 8
// cores, Zipf 1.1, cloud-RPC sizes, 150 krps).
func BenchmarkE4_DynamicMix_Lauberhorn(b *testing.B) {
	benchDynamic(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Lauberhorn, 11, 8, 64, sim.Microsecond,
			workload.CloudRPC(), workload.RatePerSec(150_000), workload.NewZipf(64, 1.1))
	})
}

func BenchmarkE4_DynamicMix_Bypass(b *testing.B) {
	benchDynamic(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Bypass, 11, 8, 64, sim.Microsecond,
			workload.CloudRPC(), workload.RatePerSec(150_000), workload.NewZipf(64, 1.1))
	})
}

func BenchmarkE4_DynamicMix_Kernel(b *testing.B) {
	benchDynamic(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Kernel, 11, 8, 64, sim.Microsecond,
			workload.CloudRPC(), workload.RatePerSec(150_000), workload.NewZipf(64, 1.1))
	})
}

// BenchmarkE5_SizeCrossover regenerates the §6 cache-line/DMA crossover
// table.
func BenchmarkE5_SizeCrossover(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.E5SizeCrossover(nil).Rows))
	}
	b.ReportMetric(rows, "rows")
}

// BenchmarkE6_IdleCost_* measure energy per request at sparse load.
func benchIdle(b *testing.B, mk func() *experiments.Rig) {
	var joules float64
	for i := 0; i < b.N; i++ {
		r := mk()
		r.Gen.Start(500 * sim.Millisecond)
		r.U.RunUntil(520 * sim.Millisecond)
		joules = r.Energy()
	}
	b.ReportMetric(joules, "J")
}

func BenchmarkE6_IdleCost_Lauberhorn(b *testing.B) {
	benchIdle(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Lauberhorn, 5, 1, 1, 0, fig2Size, workload.RatePerSec(200), nil)
	})
}

func BenchmarkE6_IdleCost_Bypass(b *testing.B) {
	benchIdle(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Bypass, 5, 1, 1, 0, fig2Size, workload.RatePerSec(200), nil)
	})
}

func BenchmarkE6_IdleCost_Kernel(b *testing.B) {
	benchIdle(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Kernel, 5, 1, 1, 0, fig2Size, workload.RatePerSec(200), nil)
	})
}

// BenchmarkE7_Deschedule regenerates the descheduling-latency table.
func BenchmarkE7_Deschedule(b *testing.B) {
	var unblock float64
	for i := 0; i < b.N; i++ {
		tb := experiments.E7Deschedule(nil)
		sscanCell(tb.Rows[0][1], &unblock)
	}
	b.ReportMetric(unblock, "unblock-us")
}

// BenchmarkE8_SchedUpdate regenerates the scheduler-mirroring cost
// tables.
func BenchmarkE8_SchedUpdate(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.E8SchedUpdate(nil).Rows) + len(experiments.E8Simulated(nil).Rows))
	}
	b.ReportMetric(rows, "rows")
}

// BenchmarkE9_ModelCheck explores the protocol state space.
func BenchmarkE9_ModelCheck(b *testing.B) {
	var states float64
	for i := 0; i < b.N; i++ {
		res := check.Run(check.NewModel(check.ModelConfig{Packets: 6, Preempts: 2}), check.Options{})
		if !res.OK() {
			b.Fatalf("model check failed: %v", res)
		}
		states = float64(res.StatesExplored)
	}
	b.ReportMetric(states, "states")
}

// BenchmarkE10_Ablation_* run the Lauberhorn variants on the E4 workload.
func BenchmarkE10_Ablation_Full(b *testing.B) {
	benchDynamic(b, func() *experiments.Rig {
		return experiments.StackRig(cluster.Lauberhorn, 13, 8, 64, sim.Microsecond,
			workload.CloudRPC(), workload.RatePerSec(150_000), workload.NewZipf(64, 1.1))
	})
}

func BenchmarkE10_Ablation_NoDynamicSched(b *testing.B) {
	benchDynamic(b, func() *experiments.Rig {
		r := experiments.StackRig(cluster.Lauberhorn, 13, 8, 64, sim.Microsecond,
			workload.CloudRPC(), workload.RatePerSec(150_000), workload.NewZipf(64, 1.1))
		r.LH.SetDynamicScheduling(false)
		return r
	})
}

func BenchmarkE10_Ablation_SoftwareCodec(b *testing.B) {
	benchDynamic(b, func() *experiments.Rig {
		r := experiments.StackRig(cluster.Lauberhorn, 13, 8, 64, sim.Microsecond,
			workload.CloudRPC(), workload.RatePerSec(150_000), workload.NewZipf(64, 1.1))
		r.LH.SetSoftwareCodec(rpcDefaultCostModel())
		return r
	})
}

// BenchmarkE11_SizeDist regenerates the size-distribution validation.
func BenchmarkE11_SizeDist(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.E11SizeDist(nil).Rows))
	}
	b.ReportMetric(rows, "rows")
}

// sscanCell parses a table cell as a float.
func sscanCell(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%g", v)
}

// rpcDefaultCostModel avoids importing internal/rpc at top level twice.
func rpcDefaultCostModel() rpc.CostModel { return rpc.DefaultCostModel() }

// BenchmarkE12_HybridDataPath regenerates the §6 hybrid-policy table.
func BenchmarkE12_HybridDataPath(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.E12HybridDataPath(nil).Rows))
	}
	b.ReportMetric(rows, "rows")
}

// BenchmarkE13_DecodePipeline regenerates the decoder-pipeline table.
func BenchmarkE13_DecodePipeline(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.E13DecodePipeline(nil).Rows))
	}
	b.ReportMetric(rows, "rows")
}

// BenchmarkE14_NestedRPC measures the nested-call continuation overhead.
func BenchmarkE14_NestedRPC(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		tb := experiments.E14NestedRPC(nil)
		sscanCell(tb.Rows[2][1], &overhead)
	}
	b.ReportMetric(overhead, "overhead-us")
}

// benchRunner runs a fixed experiment subset through the harness Runner
// at the given pool width, reporting aggregate simulator throughput.
func benchRunner(b *testing.B, workers int) {
	exps, err := experiments.Select("e1,e2,e5,e7,e8,e11")
	if err != nil {
		b.Fatal(err)
	}
	r := &experiments.Runner{Workers: workers}
	var events uint64
	for i := 0; i < b.N; i++ {
		results := r.Run(exps)
		for _, res := range results {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Experiment.ID, res.Err)
			}
			events += res.Events
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkRunner_Serial and BenchmarkRunner_Parallel compare the
// experiment harness with a single worker against a GOMAXPROCS-wide
// pool; the ratio is the harness speedup on this host.
func BenchmarkRunner_Serial(b *testing.B)   { benchRunner(b, 1) }
func BenchmarkRunner_Parallel(b *testing.B) { benchRunner(b, 0) }
