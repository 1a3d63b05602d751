// Command lhsim runs a single configurable RPC-serving scenario on one of
// the registered stacks and prints latency and core-state summaries.
//
// Usage:
//
//	lhsim -stack lauberhorn -cores 4 -services 16 -rate 100000 -dur 100ms
//	lhsim -stack bypass -services 8 -zipf 1.1
//	lhsim -stack kernel -size 512
//	lhsim -stack hybrid -size 8192
//
// Every run is a cluster.Spec. By default (-hosts 1) it is the
// experiments' own rig (experiments.RigSpec): one server and one client
// on a point-to-point link. With -hosts N (N > 1) the scenario becomes a
// spine-leaf cluster: N servers and N clients spread across leaves (4
// machines per leaf, -spines spine switches), routed by deterministic
// ECMP. -flap additionally flaps the uplink leaf0:spine0 during the
// window, reproducing e19's fault shape interactively:
//
//	lhsim -stack kernel -hosts 8 -spines 4 -rate 20000
//	lhsim -stack lauberhorn -hosts 4 -size 4096 -flap
//
// -shards N partitions the cluster along its leaf boundaries into N
// shard simulators plus a hub, synchronized by conservative time
// windows; the printed results are byte-identical to a serial run:
//
//	lhsim -stack lauberhorn -hosts 16 -shards 4
//
// -transport interposes a transport scheme (retry, ecn, or credit; see
// internal/transport) on every endpoint, on one host or many:
//
//	lhsim -stack lauberhorn -transport retry
//	lhsim -stack lauberhorn -hosts 8 -size 4096 -flap -transport retry
//
// A flag set the Spec cannot carry (-shards or -flap on one host, a
// negative -size) fails cluster.Spec.Validate, and lhsim exits 1 with
// its reason.
//
// Since the stack-driver registry, "lauberhorn" is the pure cache-line
// data path; bodies at or above 4 KiB take the §6 DMA fallback only on
// the "hybrid" stack (previously the fallback was always armed).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/cpu"
	"lauberhorn/internal/experiments"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// transportNames lists the registered transport schemes' short names.
func transportNames() []string {
	var out []string
	for _, e := range transport.All() {
		out = append(out, e.Name)
	}
	return out
}

// stackNames lists the registered drivers' short names, lower-cased for
// CLI use.
func stackNames() []string {
	var out []string
	for _, e := range stackdrv.All() {
		out = append(out, strings.ToLower(e.Name))
	}
	return out
}

// resolveStack maps a CLI stack name to a registered driver kind:
// registry short names case-insensitively, plus the historical "enzian"
// alias.
func resolveStack(name string) (cluster.Stack, bool) {
	if strings.EqualFold(name, "enzian") {
		name = "KernelEnzian"
	}
	for _, e := range stackdrv.All() {
		if strings.EqualFold(e.Name, name) {
			return e.Kind, true
		}
	}
	return 0, false
}

// arrivalsMaker maps an -arrivals name to a factory for fresh
// arrival-process instances at the given mean rate. A factory, because
// MMPP and Diurnal carry modulating state and must not be shared
// between clients. The bursty processes keep the requested mean: both
// alternate 1/3x and 5/3x phases of equal expected length.
func arrivalsMaker(name string, rate float64) (func() workload.ArrivalDist, bool) {
	gap := func(r float64) sim.Time { return sim.Time(float64(sim.Second) / r) }
	switch name {
	case "poisson":
		return func() workload.ArrivalDist { return workload.RatePerSec(rate) }, true
	case "mmpp":
		return func() workload.ArrivalDist {
			return &workload.MMPP{
				CalmMean: gap(rate / 3), HotMean: gap(rate * 5 / 3),
				CalmPeriod: 200 * sim.Microsecond, HotPeriod: 200 * sim.Microsecond,
			}
		}, true
	case "diurnal":
		return func() workload.ArrivalDist {
			return &workload.Diurnal{Mean: gap(rate), Phases: []workload.RatePhase{
				{Dur: sim.Millisecond, Mult: 1.0 / 3},
				{Dur: sim.Millisecond, Mult: 5.0 / 3},
			}}
		}, true
	}
	return nil, false
}

// spineLeafSpec is the -hosts cluster: an e18-shaped spine-leaf universe
// of n servers, each exporting nSvcs echo services, and n clients
// spraying across all of them, 4 machines per leaf.
func spineLeafSpec(kind cluster.Stack, seed uint64, n, spines, cores, nSvcs int, serviceTime sim.Time,
	size workload.SizeDist, arrivals func() workload.ArrivalDist, pop *workload.Zipf) cluster.Spec {
	sp := cluster.Spec{
		Seed:   seed,
		Fabric: cluster.FabricSpec{Spines: spines, LeafPorts: 4},
	}
	for i := 0; i < n; i++ {
		var svcs []cluster.ServiceSpec
		for s := 0; s < nSvcs; s++ {
			id := i*nSvcs + s
			svcs = append(svcs, cluster.ServiceSpec{
				ID: uint32(id + 1), Port: 9000 + uint16(id), Time: serviceTime,
			})
		}
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: kind, Cores: cores, Services: svcs,
		})
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:       fmt.Sprintf("cli%d", i),
			Size:       size,
			Arrivals:   arrivals(),
			Popularity: pop,
		})
	}
	return sp
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, builds and runs the scenario, prints its report to
// stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lhsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stack := fs.String("stack", "lauberhorn",
		"stack: "+strings.Join(stackNames(), " | ")+" (or enzian)")
	cores := fs.Int("cores", 4, "server cores")
	services := fs.Int("services", 1, "number of RPC services")
	rate := fs.Float64("rate", 100_000, "offered load, requests/second")
	dur := fs.Duration("dur", 100*time.Millisecond, "measurement window (simulated)")
	warm := fs.Duration("warm", 20*time.Millisecond, "warm-up window (simulated)")
	size := fs.Int("size", 40, "request body bytes (0 = cloud-RPC mixture)")
	service := fs.Duration("service", time.Microsecond, "handler service time")
	zipf := fs.Float64("zipf", 0, "Zipf skew across services (0 = uniform)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	telemetry := fs.Bool("telemetry", false, "print the Lauberhorn NIC's per-service telemetry")
	churn := fs.Duration("churn", 0, "rotate the hot service set at this period (0 = stable)")
	hosts := fs.Int("hosts", 1, "server count; > 1 runs a spine-leaf cluster with as many clients")
	spines := fs.Int("spines", 2, "spine switches of the -hosts cluster fabric")
	shards := fs.Int("shards", 0,
		"partition the -hosts cluster into N shard simulators under conservative time windows (0 = serial; results are byte-identical)")
	arrivals := fs.String("arrivals", "poisson",
		"arrival process at the -rate mean: poisson | mmpp (burst states at 1/3x and 5/3x) | diurnal (1ms rate curve at 1/3x and 5/3x)")
	flap := fs.Bool("flap", false, "flap uplink leaf0:spine0 during the -hosts cluster window")
	transportName := fs.String("transport", "raw",
		"transport scheme on every endpoint: "+strings.Join(transportNames(), " | "))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "lhsim: "+format+"\n", a...)
		return 1
	}

	var sz workload.SizeDist = workload.FixedSize{N: *size}
	if *size == 0 {
		sz = workload.CloudRPC()
	}
	mkArr, arrOK := arrivalsMaker(*arrivals, *rate)
	if !arrOK {
		return fail("unknown arrival process %q (known: poisson, mmpp, diurnal)", *arrivals)
	}
	kind, ok := resolveStack(*stack)
	if !ok {
		return fail("unknown stack %q (registered: %s)", *stack, strings.Join(stackNames(), ", "))
	}
	tr, trOK := transport.ByName(strings.ToLower(*transportName))
	if !trOK {
		return fail("unknown transport %q (registered: %s)",
			*transportName, strings.Join(transportNames(), ", "))
	}
	simTime := func(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }
	st, simWarm, simDur := simTime(*service), simTime(*warm), simTime(*dur)

	nHosts := max(*hosts, 1)
	var pop *workload.Zipf
	if *zipf > 0 {
		pop = workload.NewZipf(nHosts**services, *zipf)
	}
	var sp cluster.Spec
	if nHosts > 1 {
		sp = spineLeafSpec(kind, *seed, nHosts, *spines, *cores, *services, st, sz, mkArr, pop)
	} else {
		sp = experiments.RigSpec(kind, *seed, *cores, *services, st, sz, mkArr(), pop)
	}
	sp.Shards = *shards
	sp.Transport = tr.Kind
	if *flap {
		sp.Faults = []cluster.FaultSpec{{
			Kind: cluster.FaultLinkFlap, Leaf: 0, Spine: 0,
			At: simWarm + simDur/6, DownFor: simDur / 10, UpFor: simDur / 15, Cycles: 3,
		}}
	}
	u, err := cluster.BuildE(sp)
	if err != nil {
		return fail("%v", err)
	}
	if *churn > 0 {
		for _, c := range u.Clients {
			c.Gen.SetChurn(simTime(*churn))
		}
	}
	wallStart := time.Now()
	u.RunMeasured(simWarm, simDur)
	wall := time.Since(wallStart)

	fabricName := "direct"
	if u.Topo != nil {
		fabricName = u.Topo.String()
	}
	fmt.Fprintf(stdout, "stack: %s   fabric: %s   arrivals: %s @ %.0f rps x %d clients   window: %v\n",
		u.Hosts[0].Label, fabricName, u.Clients[0].Spec.Arrivals, *rate, len(u.Clients), *dur)
	if u.Sharded() {
		fmt.Fprintf(stdout, "shards: %d simulators + hub, conservative time windows (results identical to serial)\n",
			len(u.Sims)-1)
	}
	if *flap {
		fmt.Fprintf(stdout, "fault: uplink leaf0:spine0 flapping (3 cycles inside the window)\n")
	}
	if tr.New != nil {
		ts := u.TransportStats()
		fmt.Fprintf(stdout, "transport: %s   retrans: %d   giveups: %d   marks seen: %d   window cuts: %d   rts/grants: %d/%d\n",
			tr.Label, ts.Retransmits, ts.GiveUps, ts.MarksSeen, ts.WindowCuts, ts.RTSSent, ts.GrantsSent)
	}
	lat := u.MergedLatency()
	fmt.Fprintf(stdout, "sent: %d   served: %d   completed: %d   net drops: %d\n",
		u.TotalMeasuredSent(), u.TotalMeasuredServed(), lat.Count(), u.DroppedFrames())
	fmt.Fprintf(stdout, "latency: %s\n", lat.Summary(float64(sim.Microsecond), "us"))
	if u.Topo != nil {
		fmt.Fprintf(stdout, "spine uplink frames: %v\n", u.Topo.UplinkFrames())
	}
	var cancelled, recycled uint64
	for _, s := range u.Sims {
		cancelled += s.Cancelled()
		recycled += s.Recycled()
	}
	fmt.Fprintf(stdout, "simulator: %d events fired (%d cancelled, %d allocs recycled) across %d sims in %v — %.1fM events/sec\n",
		u.EventsFired(), cancelled, recycled, len(u.Sims), wall.Round(time.Millisecond),
		float64(u.EventsFired())/wall.Seconds()/1e6)

	h := u.Hosts[0]
	fmt.Fprintf(stdout, "host %s: cores: %d   services: %d   cycles/request: %.0f   energy: %.3f J\n",
		h.Spec.Name, h.Spec.Cores, len(h.Spec.Services), h.CyclesPerRequest(), h.Energy())
	fmt.Fprintln(stdout, "per-core residency:")
	for _, c := range h.Cores() {
		fmt.Fprintf(stdout, "  core%d: user=%v kernel=%v spin=%v stall=%v idle=%v\n",
			c.ID(), c.Residency(cpu.User), c.Residency(cpu.Kernel),
			c.Residency(cpu.Spin), c.Residency(cpu.Stall), c.Residency(cpu.Idle))
	}
	if h.LH != nil {
		s := h.LH.NIC.Stats()
		fmt.Fprintf(stdout, "lauberhorn NIC: fast=%d kernel=%d softnotify=%d tryagain=%d retire=%d\n",
			s.FastDispatch, s.KernDispatch, s.SoftNotify, s.TryAgains, s.Retires)
		if *telemetry {
			fmt.Fprintf(stdout, "telemetry (%s):\n%s", h.Spec.Name, h.LH.NIC.TelemetryReport())
		}
	} else if *telemetry {
		fmt.Fprintln(stdout, "(-telemetry is only available on the lauberhorn stack)")
	}
	return 0
}
