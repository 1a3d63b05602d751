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

// TestFramePoolAllocBudget pins the recycling end to end: once warm, a
// 4 KiB echo through one Lauberhorn host allocates under 1 KiB of Go
// heap per request, on a Direct link and through a learning switch
// (without the pools and scratch buffers, a fresh 4 KiB buffer for every
// frame and body copy makes it 17.6 KB and 22.4 KB). It reads
// process-wide allocation counters, so it must not run in parallel with
// other tests.
func TestFramePoolAllocBudget(t *testing.T) {
	for _, direct := range []bool{true, false} {
		u := Build(Spec{
			Seed:   3,
			Direct: direct,
			Hosts:  []HostSpec{echoHost("srv", Lauberhorn, 2, 1, 0, 9000, 500*sim.Nanosecond)},
			Clients: []ClientSpec{{
				Name: "c", Size: workload.FixedSize{N: 4096},
				Arrivals: workload.RatePerSec(100_000),
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
		if sent < 500 {
			t.Fatalf("direct=%v: only %d requests in 10 ms", direct, sent)
		}
		if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(sent); per >= 1024 {
			t.Errorf("direct=%v: %.0f B allocated per request, want < 1024", direct, per)
		} else {
			t.Logf("direct=%v: %.0f B allocated per request over %d requests", direct, per, sent)
		}
	}
}
