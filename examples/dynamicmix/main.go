// Dynamicmix: the paper's core comparison, runnable as a demo — the same
// dynamic multi-service workload (32 services, 4 cores, skewed traffic)
// on all three stacks side by side. Kernel bypass pins one worker per
// service and must time-share cores on the scheduler quantum; the kernel
// stack handles dynamics but pays the full Figure-1 software path;
// Lauberhorn reallocates cores through the NIC's shared scheduling state.
//
// Run with:
//
//	go run ./examples/dynamicmix
package main

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/experiments"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

func main() {
	const (
		cores    = 4
		services = 32
		rate     = 80_000
	)
	size := workload.CloudRPC()
	serviceTime := sim.Microsecond

	fmt.Printf("dynamic mix: %d services, %d cores, Zipf(1.1), %d rps, cloud-RPC sizes\n\n",
		services, cores, rate)
	fmt.Printf("%-22s %10s %10s %10s %12s %10s\n",
		"stack", "p50(us)", "p99(us)", "served", "cycles/req", "J total")

	builders := []struct {
		name  string
		stack cluster.Stack
	}{
		{"Lauberhorn (ECI)", cluster.Lauberhorn},
		{"Kernel bypass", cluster.Bypass},
		{"Linux-style kernel", cluster.Kernel},
	}
	for _, b := range builders {
		r := experiments.StackRig(b.stack, 3, cores, services, serviceTime, size,
			workload.RatePerSec(rate), workload.NewZipf(services, 1.1))
		r.U.RunMeasured(20*sim.Millisecond, 80*sim.Millisecond)
		lat := r.Gen.Latency
		fmt.Printf("%-22s %10.2f %10.2f %10d %12.0f %10.3f\n",
			b.name,
			sim.Time(lat.Percentile(0.5)).Microseconds(),
			sim.Time(lat.Percentile(0.99)).Microseconds(),
			r.MeasuredServed(),
			r.CyclesPerRequest(),
			r.Energy())
	}
	fmt.Println("\nthe paper's claim, §4: performance better than kernel bypass for stable")
	fmt.Println("workloads AND the robustness of a kernel stack for dynamic ones.")
}
