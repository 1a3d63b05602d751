package main

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// The workloads are declared here, through the public cluster.Spec API,
// rather than borrowed from internal/experiments: an edit to an
// experiment must not silently change what the benchmark measures.

// stackKind and transportKind name the stacks and transports the
// workloads use; the per-layer run times are reported under these names.
type stackKind struct {
	name string
	kind cluster.Stack
}

type transportKind struct {
	name string
	kind cluster.Transport
}

var (
	lauberhornStack = stackKind{"lauberhorn", cluster.Lauberhorn}
	stackKinds      = []stackKind{lauberhornStack, {"bypass", cluster.Bypass}, {"kernel", cluster.Kernel}}

	rawTransport   = transportKind{"raw", transport.Raw}
	transportKinds = []transportKind{
		rawTransport, {"retry", transport.Retry}, {"ecn", transport.ECN}, {"credit", transport.Credit},
	}
)

// scenario is one universe a workload builds and runs per repetition.
type scenario struct {
	// name labels the scenario in traces and failure messages.
	name      string
	stack     stackKind
	transport transportKind
	// spec returns a fresh spec for the seed. Fresh per build, because
	// some arrival processes (workload.Burst) carry state.
	spec          func(seed uint64) cluster.Spec
	warm, measure sim.Time
	// drained marks scenarios whose every request is answered before the
	// drain ends, so sent must equal received.
	drained bool
}

// benchWorkload is one named set of scenarios.
type benchWorkload struct {
	name      string
	scenarios []scenario
}

// size scales the workloads: fullSize is what the benchmark measures;
// tinySize keeps the same shapes at a size the package tests can afford.
type size struct {
	rigWarm, rigMeasure       sim.Time
	closHosts                 int
	closWarm, closMeasure     sim.Time
	incastWarm, incastMeasure sim.Time
}

var (
	fullSize = size{
		rigWarm: 20 * sim.Millisecond, rigMeasure: 60 * sim.Millisecond,
		closHosts: 512,
		closWarm:  2 * sim.Millisecond, closMeasure: 8 * sim.Millisecond,
		incastWarm: 5 * sim.Millisecond, incastMeasure: 25 * sim.Millisecond,
	}
	tinySize = size{
		rigWarm: 1 * sim.Millisecond, rigMeasure: 2 * sim.Millisecond,
		closHosts: 64,
		closWarm:  500 * sim.Microsecond, closMeasure: 1 * sim.Millisecond,
		incastWarm: 1 * sim.Millisecond, incastMeasure: 2 * sim.Millisecond,
	}
)

// workloadNames lists every workload the binary runs, the ones
// BENCHMARK.json declares.
var workloadNames = []string{"rig-mix", "clos", "incast"}

// newWorkload returns the named workload at the given size.
func newWorkload(name string, sz size) (*benchWorkload, error) {
	switch name {
	case "rig-mix":
		return rigMix(sz), nil
	case "clos":
		return clos(sz), nil
	case "incast":
		return incast(sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// rigMix is e4's paper mix, once per stack: one 8-core server behind a
// direct link, 64 echo services of 1 us, Zipf(1.1) popularity whose hot
// set rotates every 5 ms, cloud-RPC sizes, Poisson arrivals at 150 krps.
func rigMix(sz size) *benchWorkload {
	w := &benchWorkload{name: "rig-mix"}
	for _, st := range stackKinds {
		stack := st.kind
		w.scenarios = append(w.scenarios, scenario{
			name: st.name, stack: st, transport: rawTransport,
			warm: sz.rigWarm, measure: sz.rigMeasure, drained: true,
			spec: func(seed uint64) cluster.Spec {
				const services = 64
				svcs := make([]cluster.ServiceSpec, services)
				for i := range svcs {
					svcs[i] = cluster.ServiceSpec{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond}
				}
				return cluster.Spec{
					Seed:   seed,
					Direct: true,
					Hosts:  []cluster.HostSpec{{Name: "server", Stack: stack, Cores: 8, Services: svcs}},
					Clients: []cluster.ClientSpec{{
						Name:          "client",
						Size:          workload.CloudRPC(),
						Arrivals:      workload.RatePerSec(150_000),
						Popularity:    workload.NewZipf(services, 1.1),
						ChurnInterval: 5 * sim.Millisecond,
					}},
				}
			},
		})
	}
	return w
}

// clos is e18's top rung: a 3-tier Clos (4 ports per leaf, pods of 8
// leaves under 2 spines, 4 cores) joining sz.closHosts Lauberhorn
// servers to as many clients. Each client sends 64 B echo requests at
// 1.5 krps, Poisson, spread over 4 servers strided across the server
// space, so most requests cross the core tier. It runs serially.
func clos(sz size) *benchWorkload {
	n := sz.closHosts
	spec := func(seed uint64) cluster.Spec {
		sp := cluster.Spec{
			Seed:   seed,
			Fabric: cluster.FabricSpec{Spines: 2, LeafPorts: 4, Cores: 4, PodLeaves: 8},
		}
		for i := 0; i < n; i++ {
			sp.Hosts = append(sp.Hosts, cluster.HostSpec{
				Name: fmt.Sprintf("srv%d", i), Stack: cluster.Lauberhorn, Cores: 1,
				Services: []cluster.ServiceSpec{{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond}},
			})
			targets := make([]cluster.TargetSpec, 4)
			for k := range targets {
				j := (i + k*(n/4)) % n
				targets[k] = cluster.TargetSpec{Host: fmt.Sprintf("srv%d", j), Service: uint32(j + 1)}
			}
			sp.Clients = append(sp.Clients, cluster.ClientSpec{
				Name:     fmt.Sprintf("cli%d", i),
				Targets:  targets,
				Size:     workload.FixedSize{N: 64},
				Arrivals: workload.RatePerSec(1_500),
			})
		}
		return sp
	}
	return &benchWorkload{name: "clos", scenarios: []scenario{{
		name: "clos", stack: lauberhornStack, transport: rawTransport,
		warm: sz.closWarm, measure: sz.closMeasure, drained: true, spec: spec,
	}}}
}

// incast is e21's K=16 column, once per transport: 16 clients each fire
// a burst of four 4 KiB requests every 250 us into one 2-core Lauberhorn
// server through a learning switch, over 10 GbE access links with a
// 100 us queue and a 20 us ECN threshold. Queues overflow, so sent and
// received may differ.
func incast(sz size) *benchWorkload {
	w := &benchWorkload{name: "incast"}
	for _, tk := range transportKinds {
		kind := tk.kind
		w.scenarios = append(w.scenarios, scenario{
			name: tk.name, stack: lauberhornStack, transport: tk,
			warm: sz.incastWarm, measure: sz.incastMeasure,
			spec: func(seed uint64) cluster.Spec {
				sp := cluster.Spec{
					Seed: seed,
					Net: fabric.NetParams{
						Name:         "10GbE access",
						Bandwidth:    1.25,
						PropDelay:    400 * sim.Nanosecond,
						SwitchDelay:  250 * sim.Nanosecond,
						QueueLimit:   100 * sim.Microsecond,
						ECNThreshold: 20 * sim.Microsecond,
					},
					Hosts: []cluster.HostSpec{{
						Name: "server", Stack: cluster.Lauberhorn, Cores: 2,
						Services: []cluster.ServiceSpec{{ID: 1, Port: 9000, Time: 500 * sim.Nanosecond}},
					}},
					Transport: kind,
				}
				for i := 0; i < 16; i++ {
					sp.Clients = append(sp.Clients, cluster.ClientSpec{
						Name:     fmt.Sprintf("client%d", i),
						Size:     workload.FixedSize{N: 4096},
						Arrivals: &workload.Burst{B: 4, Period: 250 * sim.Microsecond},
					})
				}
				return sp
			},
		})
	}
	return w
}
