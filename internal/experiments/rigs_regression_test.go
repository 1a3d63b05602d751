package experiments

import (
	"fmt"
	"testing"

	"lauberhorn/internal/bypass"
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/core"
	"lauberhorn/internal/cpu"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/kstack"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

// This file pins the cluster refactor: every single-server rig is a
// RigSpec built by cluster.Build and measured by Universe.RunMeasured,
// and the verbatim pre-refactor hand-wired constructors below, measured
// by the pre-cluster Rig's own protocol and accessors (legacyRig), must
// produce measurably identical rigs — same served/sent counts, same
// latency distribution, same energy — for every stack. If the builder's
// construction order ever drifts from the legacy order (perturbing event
// sequence numbers or RNG splits), these tests catch it without having
// to re-run the whole experiment suite.

// legacyRig is the pre-cluster Rig: one hand-wired server machine plus
// its load generator, with its own accessors and inline measurement
// protocol.
type legacyRig struct {
	S     *sim.Sim
	Gen   *workload.Generator
	Cores []*cpu.Core
	// Served returns the number of requests completed by the server.
	Served func() uint64
	Label  string

	measuredServed uint64
	measuredSent   uint64
}

// Energy returns total server CPU energy in joules under the default
// power model.
func (r *legacyRig) Energy() float64 {
	return cpu.TotalEnergy(r.Cores, cpu.DefaultPowerModel())
}

// BusyTime sums user+kernel residency across cores.
func (r *legacyRig) BusyTime() sim.Time {
	var t sim.Time
	for _, c := range r.Cores {
		t += c.BusyTime()
	}
	return t
}

// CyclesPerRequest returns busy cycles per served request.
func (r *legacyRig) CyclesPerRequest() float64 {
	served := r.Served()
	if served == 0 {
		return 0
	}
	var cyc float64
	for _, c := range r.Cores {
		cyc += c.Cycles(c.BusyTime())
	}
	return cyc / float64(served)
}

// RunMeasured warms the rig for warm, resets latency statistics, runs the
// generator for measure, then drains.
func (r *legacyRig) RunMeasured(warm, measure sim.Time) {
	r.Gen.Start(0)
	r.S.RunUntil(warm)
	servedAtReset := r.Served()
	sentAtReset := r.Gen.Sent
	r.Gen.Latency.Reset()
	for _, h := range r.Gen.PerTarget {
		h.Reset()
	}
	r.S.RunUntil(warm + measure)
	r.Gen.Stop()
	// Drain responses in flight (bounded).
	r.S.RunUntil(warm + measure + 20*sim.Millisecond)
	r.measuredServed = r.Served() - servedAtReset
	r.measuredSent = r.Gen.Sent - sentAtReset
}

// MeasuredServed returns requests served inside the measurement window of
// the last RunMeasured.
func (r *legacyRig) MeasuredServed() uint64 { return r.measuredServed }

// MeasuredSent returns requests sent inside the measurement window.
func (r *legacyRig) MeasuredSent() uint64 { return r.measuredSent }

// legacyLauberhornRig is the pre-cluster LauberhornRig, verbatim.
func legacyLauberhornRig(seed uint64, nCores, nSvcs int, serviceTime sim.Time,
	size workload.SizeDist, arrivals workload.ArrivalDist, pop *workload.Zipf) *legacyRig {
	s := sim.New(seed)
	h := core.NewHost(s, core.DefaultHostConfig(serverEP(), nCores))
	link := fabric.NewLink(s, fabric.Net100G)
	gen := workload.NewGenerator(s, genConfig(nSvcs, size, arrivals, pop), link, 0)
	link.Attach(gen, h.NIC)
	h.NIC.AttachLink(link, 1)
	for i := 0; i < nSvcs; i++ {
		h.RegisterService(echoService(uint32(i+1), serviceTime), basePort+uint16(i), 0)
	}
	h.Start()
	served := func() uint64 {
		var n uint64
		for i := 0; i < nSvcs; i++ {
			n += h.Served(uint32(i + 1))
		}
		return n
	}
	return &legacyRig{S: s, Gen: gen, Cores: h.K.Cores(), Served: served, Label: "Lauberhorn (ECI)"}
}

// legacyBypassRig is the pre-cluster BypassRig, verbatim.
func legacyBypassRig(seed uint64, nCores, nSvcs int, serviceTime sim.Time,
	size workload.SizeDist, arrivals workload.ArrivalDist, pop *workload.Zipf) *legacyRig {
	s := sim.New(seed)
	k := kernel.New(s, nCores, 2.5, kernel.DefaultCosts())
	cfg := nicdma.DefaultConfig()
	cfg.Queues = nSvcs
	cfg.SteerByPort = true
	nic := nicdma.New(s, cfg)
	link := fabric.NewLink(s, fabric.Net100G)
	gen := workload.NewGenerator(s, genConfig(nSvcs, size, arrivals, pop), link, 0)
	link.Attach(gen, nic)
	nic.AttachLink(link, 1)

	reg := rpc.NewRegistry()
	var workers []*bypass.Worker
	for i := 0; i < nSvcs; i++ {
		reg.Register(echoService(uint32(i+1), serviceTime))
	}
	local := serverEP()
	for i := 0; i < nSvcs; i++ {
		q := nic.Queue(int(basePort+uint16(i)) % nSvcs)
		w := bypass.NewWorker(bypass.WorkerConfig{
			Queue: q, NIC: nic, Local: local,
			Registry: reg, Codec: rpc.DefaultCostModel(), Costs: bypass.DefaultCosts(),
		})
		workers = append(workers, w)
		proc := k.NewProcess(fmt.Sprintf("svc%d", i+1))
		k.SpawnPinned(proc, fmt.Sprintf("bypass%d", i), i%nCores, w.Loop)
	}
	served := func() uint64 {
		var n uint64
		for _, w := range workers {
			n += w.Stats().Served
		}
		return n
	}
	return &legacyRig{S: s, Gen: gen, Cores: k.Cores(), Served: served, Label: "Kernel bypass"}
}

// legacyKstackRigOn is the pre-cluster kstackRigOn, verbatim.
func legacyKstackRigOn(seed uint64, nCores, nSvcs int, serviceTime sim.Time,
	size workload.SizeDist, arrivals workload.ArrivalDist, pop *workload.Zipf,
	nicCfg nicdma.Config, label string) *legacyRig {
	s := sim.New(seed)
	k := kernel.New(s, nCores, 2.5, kernel.DefaultCosts())
	nicCfg.Queues = nCores
	nic := nicdma.New(s, nicCfg)
	link := fabric.NewLink(s, fabric.Net100G)
	gen := workload.NewGenerator(s, genConfig(nSvcs, size, arrivals, pop), link, 0)
	link.Attach(gen, nic)
	nic.AttachLink(link, 1)
	st := kstack.New(k, nic, serverEP(), kstack.DefaultCosts())

	reg := rpc.NewRegistry()
	var served uint64
	for i := 0; i < nSvcs; i++ {
		desc := echoService(uint32(i+1), serviceTime)
		reg.Register(desc)
		sock := st.Bind(basePort + uint16(i))
		proc := k.NewProcess(desc.Name)
		k.Spawn(proc, fmt.Sprintf("srv%d", i), kstack.ServeLoop(kstack.ServerConfig{
			Socket: sock, Registry: reg, Codec: rpc.DefaultCostModel(),
			OnResponse: func(m *rpc.Message) { served++ },
		}))
	}
	return &legacyRig{S: s, Gen: gen, Cores: k.Cores(),
		Served: func() uint64 { return served }, Label: label}
}

// legacyLHRigWithThreshold is e12's pre-cluster lhRigWithThreshold, with
// its arrival process (fixed at 100 rps there, since e12 sends by hand)
// as a parameter.
func legacyLHRigWithThreshold(threshold int, size workload.SizeDist, arrivals workload.ArrivalDist) *legacyRig {
	s := sim.New(19)
	cfg := core.DefaultHostConfig(serverEP(), 1)
	cfg.NIC.DMAThreshold = threshold
	h := core.NewHost(s, cfg)
	link := fabric.NewLink(s, fabric.Net100G)
	gen := workload.NewGenerator(s, genConfig(1, size, arrivals, nil), link, 0)
	link.Attach(gen, h.NIC)
	h.NIC.AttachLink(link, 1)
	h.RegisterService(echoService(1, 0), basePort, 0)
	h.Start()
	return &legacyRig{S: s, Gen: gen, Cores: h.K.Cores(),
		Served: func() uint64 { return h.Served(1) }, Label: "Lauberhorn hybrid (4KiB DMA)"}
}

// legacyFlaggedRig is e13's pre-cluster rig, sending 1 KiB requests with
// the given RPC header flags, with its arrival process as a parameter.
func legacyFlaggedRig(flags uint16, arrivals workload.ArrivalDist) *legacyRig {
	s := sim.New(23)
	h := core.NewHost(s, core.DefaultHostConfig(serverEP(), 1))
	link := fabric.NewLink(s, fabric.Net100G)
	cfg := genConfig(1, workload.FixedSize{N: 1024}, arrivals, nil)
	cfg.Targets[0].Flags = flags
	gen := workload.NewGenerator(s, cfg, link, 0)
	link.Attach(gen, h.NIC)
	h.NIC.AttachLink(link, 1)
	h.RegisterService(echoService(1, 0), basePort, 0)
	h.Start()
	return &legacyRig{S: s, Gen: gen, Cores: h.K.Cores(),
		Served: func() uint64 { return h.Served(1) }, Label: "Lauberhorn (ECI)"}
}

// measured is what a fingerprint reads from a measured rig, legacy or
// cluster-built.
type measured interface {
	MeasuredServed() uint64
	MeasuredSent() uint64
	BusyTime() sim.Time
	Energy() float64
	CyclesPerRequest() float64
}

// rigFingerprint reduces a measured rig to every externally observable
// quantity the experiments report.
func rigFingerprint(label string, gen *workload.Generator, r measured) string {
	lat := gen.Latency
	return fmt.Sprintf(
		"label=%s served=%d sent=%d recv=%d errs=%d latN=%d latMin=%d latP50=%d latP99=%d latMax=%d busy=%d energy=%.9g cyc=%.9g",
		label, r.MeasuredServed(), r.MeasuredSent(), gen.Received, gen.Errors,
		lat.Count(), lat.Min(), lat.Percentile(0.5), lat.Percentile(0.99), lat.Max(),
		r.BusyTime(), r.Energy(), r.CyclesPerRequest())
}

// TestClusterRigsMatchLegacy runs each stack's legacy hand-wired rig and
// its cluster-built replacement under identical parameters and demands
// identical measurements.
func TestClusterRigsMatchLegacy(t *testing.T) {
	size := workload.CloudRPC()
	const seed = 9
	cases := []struct {
		name   string
		legacy func() *legacyRig
		now    func() *Rig
	}{
		{"lauberhorn",
			func() *legacyRig {
				return legacyLauberhornRig(seed, 2, 3, 400*sim.Nanosecond, size,
					workload.RatePerSec(80_000), workload.NewZipf(3, 1.1))
			},
			func() *Rig {
				return StackRig(cluster.Lauberhorn, seed, 2, 3, 400*sim.Nanosecond, size,
					workload.RatePerSec(80_000), workload.NewZipf(3, 1.1))
			}},
		{"bypass",
			func() *legacyRig {
				return legacyBypassRig(seed, 2, 2, 400*sim.Nanosecond, size,
					workload.RatePerSec(80_000), nil)
			},
			func() *Rig {
				return StackRig(cluster.Bypass, seed, 2, 2, 400*sim.Nanosecond, size,
					workload.RatePerSec(80_000), nil)
			}},
		{"kernel",
			func() *legacyRig {
				return legacyKstackRigOn(seed, 2, 2, 400*sim.Nanosecond, size,
					workload.RatePerSec(60_000), nil, nicdma.DefaultConfig(), "Linux-style kernel")
			},
			func() *Rig {
				return StackRig(cluster.Kernel, seed, 2, 2, 400*sim.Nanosecond, size,
					workload.RatePerSec(60_000), nil)
			}},
		{"kernel-enzian",
			func() *legacyRig {
				return legacyKstackRigOn(seed, 1, 1, 400*sim.Nanosecond, size,
					workload.RatePerSec(20_000), nil, nicdma.EnzianConfig(), "Kernel on Enzian PCIe")
			},
			func() *Rig {
				return StackRig(cluster.KernelEnzian, seed, 1, 1, 400*sim.Nanosecond, size,
					workload.RatePerSec(20_000), nil)
			}},
		// e12's rig: the Hybrid stack against a hand-wired host with the
		// 4 KiB DMA fallback armed, with bodies on both sides of it.
		{"hybrid",
			func() *legacyRig {
				return legacyLHRigWithThreshold(4096, workload.UniformSize{Min: 2048, Max: 8192},
					workload.RatePerSec(20_000))
			},
			func() *Rig {
				return StackRig(cluster.Hybrid, 19, 1, 1, 0, workload.UniformSize{Min: 2048, Max: 8192},
					workload.RatePerSec(20_000), nil)
			}},
		// e13's rig: TargetSpec.Flags against flags set on a hand-wired
		// generator's target.
		{"flags",
			func() *legacyRig {
				return legacyFlaggedRig(rpc.FlagEncrypted|rpc.FlagCompressed, workload.RatePerSec(20_000))
			},
			func() *Rig {
				sp := RigSpec(cluster.Lauberhorn, 23, 1, 1, 0, workload.FixedSize{N: 1024},
					workload.RatePerSec(20_000), nil)
				sp.Clients[0].Targets = []cluster.TargetSpec{{
					Host: sp.Hosts[0].Name, Service: 1, Flags: rpc.FlagEncrypted | rpc.FlagCompressed,
				}}
				return buildRig(sp)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := tc.legacy()
			old.RunMeasured(5*sim.Millisecond, 15*sim.Millisecond)
			now := tc.now()
			now.U.RunMeasured(5*sim.Millisecond, 15*sim.Millisecond)
			if now.U == nil {
				t.Fatal("cluster-built rig has no universe")
			}
			a, b := rigFingerprint(old.Label, old.Gen, old), rigFingerprint(now.Label, now.Gen, now)
			if a != b {
				t.Fatalf("cluster-built rig diverged from legacy:\nlegacy:  %s\ncluster: %s", a, b)
			}
			if old.MeasuredServed() == 0 {
				t.Fatal("regression rig served nothing; fingerprints vacuous")
			}
		})
	}
}
