package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/workload"
)

// TestFramePoolIntegrity recycles 4 KiB frames through a learning-switch
// star under every transport and checks every request byte the server's
// handler sees against the generator's body pattern (body[i] == byte(i)).
// The handler answers with the inverted pattern, so a frame Put while its
// request body is still to be read (the aux bytes reach the worker only
// after dispatch) is rebuilt as a response and shows up as mismatches.
func TestFramePoolIntegrity(t *testing.T) {
	const size = 4096
	resp := make([]byte, size)
	for i := range resp {
		resp[i] = ^byte(i)
	}
	for _, tr := range []Transport{transport.Raw, transport.Retry, transport.ECN, transport.Credit} {
		t.Run(tr.Name(), func(t *testing.T) {
			var checked, bad uint64
			check := func(req []byte) ([]byte, sim.Time) {
				checked++
				if len(req) != size {
					bad++
				}
				for i, b := range req {
					if b != byte(i) {
						bad++
						break
					}
				}
				return resp, 500 * sim.Nanosecond
			}
			sp := Spec{
				Seed: 11,
				Net: fabric.NetParams{
					Name: "10GbE", Bandwidth: 1.25,
					PropDelay: 400 * sim.Nanosecond, SwitchDelay: 250 * sim.Nanosecond,
					QueueLimit: 100 * sim.Microsecond, ECNThreshold: 20 * sim.Microsecond,
				},
				Hosts: []HostSpec{{Name: "srv", Stack: Lauberhorn, Cores: 2, Services: []ServiceSpec{
					{ID: 1, Port: 9000, Handler: check},
				}}},
				Transport: tr,
			}
			for i := 0; i < 8; i++ {
				sp.Clients = append(sp.Clients, ClientSpec{
					Name: fmt.Sprint("c", i), Size: workload.FixedSize{N: size},
					Arrivals: &workload.Burst{B: 4, Period: 250 * sim.Microsecond},
				})
			}
			u := Build(sp)
			u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
			if checked == 0 || bad != 0 {
				t.Fatalf("%d of %d requests reached the handler corrupted", bad, checked)
			}
			if p := u.FramePool(u.S); p.Hits*5 < p.Gets*4 {
				t.Fatalf("pool hit rate %d/%d below 0.8", p.Hits, p.Gets)
			}
		})
	}
}

// TestFramePoolAllocBudget pins the recycling end to end: once warm, an
// echo through one server allocates under 1 KiB of Go heap per request.
// A Lauberhorn host is held to it at 4 KiB on a Direct link and through
// a learning switch (without the pools and scratch buffers, a fresh 4 KiB
// buffer for every frame and body copy makes it 17.6 KB and 22.4 KB).
// The Bypass and Kernel stacks are held to it at 64 B and 4 KiB on a
// Direct link, and to fewer than one malloc per request as well: their
// DMA NIC parses into recycled packets and hands the request frames back
// to the pool, and they build responses from it. When it parsed into a
// fresh Datagram, left each request frame to the collector and the
// stacks built with plain allocations, 4 KiB echo allocated 5,009 B
// (Bypass) and 5,169 B (Kernel) per request, and 64 B echo made 6.9 and
// 10.4 mallocs. They run at 50 krps: the Kernel stack serves about
// 70 krps of 4 KiB echo, so at 100 krps its socket backlog, and with it
// the request frames it holds, grows through the whole window, and every
// new frame of that backlog is a pool miss. The Lauberhorn path still
// copies each line the MESI directory fills or stores, about two mallocs
// per request, so it is held to the byte budget only. The test reads
// process-wide allocation counters, so it must not run in parallel with
// other tests.
func TestFramePoolAllocBudget(t *testing.T) {
	cases := []struct {
		stack  Stack
		size   int
		direct bool
		rate   float64
	}{
		{Lauberhorn, 4096, true, 100_000}, {Lauberhorn, 4096, false, 100_000},
		{Bypass, 64, true, 50_000}, {Bypass, 4096, true, 50_000},
		{Kernel, 64, true, 50_000}, {Kernel, 4096, true, 50_000},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%dB/direct=%v", c.stack.Label(), c.size, c.direct)
		u := Build(Spec{
			Seed:   3,
			Direct: c.direct,
			Hosts:  []HostSpec{echoHost("srv", c.stack, 2, 1, 0, 9000, 500*sim.Nanosecond)},
			Clients: []ClientSpec{{
				Name: "c", Size: workload.FixedSize{N: c.size},
				Arrivals: workload.RatePerSec(c.rate),
			}},
		})
		u.StartClients()
		u.RunUntil(5 * sim.Millisecond)
		g := u.Clients[0].Gen
		sent0 := g.Sent
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u.RunUntil(15 * sim.Millisecond)
		runtime.ReadMemStats(&after)
		sent := g.Sent - sent0
		if float64(sent) < c.rate/200 {
			t.Fatalf("%s: only %d requests in 10 ms", name, sent)
		}
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(sent)
		mallocs := float64(after.Mallocs-before.Mallocs) / float64(sent)
		if bytes >= 1024 {
			t.Errorf("%s: %.0f B allocated per request, want < 1024", name, bytes)
		}
		if c.stack != Lauberhorn && mallocs >= 1 {
			t.Errorf("%s: %.2f mallocs per request, want < 1", name, mallocs)
		}
		t.Logf("%s: %.0f B and %.2f mallocs per request over %d requests", name, bytes, mallocs, sent)
	}
}

// TestRetryDropAllocBudget pins drop recycling end to end: a 4 KiB
// incast through a learning switch under the retry transport, whose
// 10GbE access queue to the server tail-drops most of every burst (and
// most retransmits). Once warm it must allocate under 1 KiB of Go heap
// per request sent. Frames the links drop go back to the pools, and the
// retransmits are pooled copies; when each left a fresh 4 KiB buffer to
// the garbage collector, it allocated 16.5 KB per request. It reads
// process-wide allocation counters, so it must not run in parallel with
// other tests.
func TestRetryDropAllocBudget(t *testing.T) {
	ack := make([]byte, 16)
	sp := Spec{
		Seed: 5,
		Net: fabric.NetParams{
			Name: "10GbE", Bandwidth: 1.25,
			PropDelay: 400 * sim.Nanosecond, SwitchDelay: 250 * sim.Nanosecond,
			QueueLimit: 20 * sim.Microsecond,
		},
		Hosts: []HostSpec{{Name: "srv", Stack: Lauberhorn, Cores: 2, Services: []ServiceSpec{{
			ID: 1, Port: 9000,
			// A short response: the responder caches a copy of each
			// until its done set fills, which would dominate the count.
			Handler: func([]byte) ([]byte, sim.Time) { return ack, 500 * sim.Nanosecond },
		}}}},
		Transport: transport.Retry,
	}
	for i := 0; i < 8; i++ {
		sp.Clients = append(sp.Clients, ClientSpec{
			Name: fmt.Sprint("c", i), Size: workload.FixedSize{N: 4096},
			Arrivals: &workload.Burst{B: 4, Period: 250 * sim.Microsecond},
		})
	}
	u := Build(sp)
	sentAll := func() (n uint64) {
		for _, c := range u.Clients {
			n += c.Gen.Sent
		}
		return n
	}
	// The warm-up outlasts a request's full retransmit schedule (31 ms),
	// so the retransmit masters have reached their steady-state count.
	u.StartClients()
	u.RunUntil(40 * sim.Millisecond)
	sent0, drops0 := sentAll(), u.DroppedFrames()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u.RunUntil(60 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	sent, drops := sentAll()-sent0, u.DroppedFrames()-drops0
	if drops < sent {
		t.Fatalf("%d drops for %d requests: the access queue must drop most of each burst", drops, sent)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(sent); per >= 1024 {
		t.Errorf("%.0f B allocated per request, want < 1024 (%d requests, %d drops)", per, sent, drops)
	} else {
		t.Logf("%.0f B allocated per request over %d requests and %d drops", per, sent, drops)
	}
}

// TestBuildAllocBudget pins what BuildE allocates per machine on a
// 128-machine 3-tier Clos (e18's shape: 64 Lauberhorn servers, 64
// clients each spraying 4 strided targets): under 16 KiB. A dense 16 KiB
// bucket array per generator and NIC histogram makes it 55 KB per
// machine. It reads process-wide allocation counters, so it must not run
// in parallel with other tests.
func TestBuildAllocBudget(t *testing.T) {
	const n = 64
	sp := Spec{Seed: 1, Fabric: FabricSpec{Spines: 2, LeafPorts: 4, Cores: 4, PodLeaves: 8}}
	for i := 0; i < n; i++ {
		sp.Hosts = append(sp.Hosts, HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: Lauberhorn, Cores: 1,
			Services: []ServiceSpec{{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond}},
		})
		targets := make([]TargetSpec, 4)
		for k := range targets {
			j := (i + k*(n/4)) % n
			targets[k] = TargetSpec{Host: fmt.Sprintf("srv%d", j), Service: uint32(j + 1)}
		}
		sp.Clients = append(sp.Clients, ClientSpec{
			Name: fmt.Sprintf("cli%d", i), Targets: targets,
			Size: workload.FixedSize{N: 64}, Arrivals: workload.RatePerSec(1_500),
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u, err := BuildE(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	machines := len(u.Hosts) + len(u.Clients)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(machines); per >= 16<<10 {
		t.Errorf("BuildE allocated %.0f B per machine over %d machines, want < 16 KiB", per, machines)
	} else {
		t.Logf("BuildE allocated %.0f B per machine over %d machines", per, machines)
	}
}
