// Package experiments reproduces every quantitative figure and claim of
// the paper as a runnable experiment. Each Ex function builds the
// registered network stacks (Lauberhorn, kernel bypass, traditional
// kernel, and variants like the §6 Hybrid) on identical substrates via
// the stack-driver registry, drives them with the workload generators,
// and returns a stats.Table whose rows correspond to the series the
// paper reports. See EXPERIMENTS.md at the repository root for the
// per-experiment catalog and DESIGN.md for where each paper-vs-measured
// value is pinned.
//
// Determinism invariants: every experiment builds its own simulators and
// draws randomness only from fixed seeds, so its tables are pure
// functions of the code — byte-identical run to run and at any Runner
// parallelism.
package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// serverEP and clientEP return the canonical endpoints fresh per call, so
// no rig can see (or perturb) another rig's copy: experiments may run
// concurrently on separate goroutines and every rig must be goroutine-safe
// by construction.
func serverEP() wire.Endpoint {
	return wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}}
}

func clientEP() wire.Endpoint {
	return wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}}
}

// basePort is the first service UDP port; service i listens on
// basePort+i.
const basePort = 9000

// echoService builds service desc i (1-based ID) whose handler echoes the
// request after serviceTime of CPU work.
func echoService(id uint32, serviceTime sim.Time) *rpc.ServiceDesc {
	return &rpc.ServiceDesc{
		ID:   id,
		Name: fmt.Sprintf("svc%d", id),
		Methods: []rpc.MethodDesc{{
			ID: 1, Name: "call", CodeAddr: 0x400000 + uint64(id)*0x1000,
			Handler: func(req []byte) ([]byte, sim.Time) { return req, serviceTime },
		}},
	}
}

// targets builds generator targets for n services with the given size
// distribution.
func targets(n int, size workload.SizeDist) []workload.Target {
	out := make([]workload.Target, n)
	for i := 0; i < n; i++ {
		out[i] = workload.Target{
			Port:    basePort + uint16(i),
			Service: uint32(i + 1),
			Method:  1,
			Size:    size,
		}
	}
	return out
}

// Rig is a built RigSpec: the embedded Host is the server, the embedded
// Client the machine loading it (its Gen drives the traffic), and U the
// universe that runs them — U.S is the simulator and U.RunMeasured the
// measurement protocol. A Rig holds no state of its own. Host and Client
// both carry Spec, EP, Link, Leaf and Trans, so those need the embedded
// name (r.Host.Link).
type Rig struct {
	*cluster.Host
	*cluster.Client
	U *cluster.Universe
}

// genConfig assembles the generator config for n services.
func genConfig(n int, size workload.SizeDist, arrivals workload.ArrivalDist, pop *workload.Zipf) workload.Config {
	return workload.Config{
		Client:     clientEP(),
		Server:     serverEP(),
		Targets:    targets(n, size),
		Arrivals:   arrivals,
		Popularity: pop,
		Flows:      256,
	}
}

// stackChoice pairs a registered stack kind with the short name its
// table rows print, as resolved from the stack-driver registry.
type stackChoice struct {
	Name  string
	Stack cluster.Stack
}

// sweepStacks resolves short stack names against the stack-driver
// registry, in the order given. Experiments that pin a comparison set
// (for table stability) name it here; fully registry-driven sweeps (e17)
// iterate stackdrv.All instead.
func sweepStacks(names ...string) []stackChoice {
	out := make([]stackChoice, len(names))
	for i, n := range names {
		e, ok := stackdrv.ByName(n)
		if !ok {
			panic(fmt.Sprintf("experiments: no stack driver named %q", n))
		}
		out[i] = stackChoice{Name: e.Name, Stack: e.Kind}
	}
	return out
}

// RigSpec translates a flat parameter list into the Direct
// (point-to-point, no switch) one-host one-client cluster.Spec every
// single-server rig is built from: nSvcs echo services with sequential
// IDs and ports on one host of any registered stack, loaded by one
// client. InheritRNG keeps the generator's RNG stream — and therefore
// every pre-cluster table — byte-identical to the original hand-wired
// construction.
func RigSpec(stack cluster.Stack, seed uint64, nCores, nSvcs int, serviceTime sim.Time,
	size workload.SizeDist, arrivals workload.ArrivalDist, pop *workload.Zipf) cluster.Spec {
	svcs := make([]cluster.ServiceSpec, nSvcs)
	for i := range svcs {
		svcs[i] = cluster.ServiceSpec{ID: uint32(i + 1), Port: basePort + uint16(i), Time: serviceTime}
	}
	return cluster.Spec{
		Seed:   seed,
		Direct: true,
		Hosts: []cluster.HostSpec{{
			Name: "server", Stack: stack, Cores: nCores, Services: svcs,
			Endpoint: serverEP(),
		}},
		Clients: []cluster.ClientSpec{{
			Name: "client", Size: size, Arrivals: arrivals, Popularity: pop,
			Endpoint: clientEP(), InheritRNG: true,
		}},
	}
}

// buildRig builds a rig Spec (see RigSpec), panicking if it is invalid.
func buildRig(sp cluster.Spec) *Rig {
	u := cluster.Build(sp)
	return &Rig{Host: u.Hosts[0], Client: u.Clients[0], U: u}
}

// StackRig builds the RigSpec of the given parameters.
func StackRig(stack cluster.Stack, seed uint64, nCores, nSvcs int, serviceTime sim.Time,
	size workload.SizeDist, arrivals workload.ArrivalDist, pop *workload.Zipf) *Rig {
	return buildRig(RigSpec(stack, seed, nCores, nSvcs, serviceTime, size, arrivals, pop))
}
