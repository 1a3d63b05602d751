package core

import (
	"strings"
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	hostAEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 0xA}, IP: wire.IP{10, 0, 0, 10}}
	hostBEP = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 0xB}, IP: wire.IP{10, 0, 0, 11}}
)

// nestedRig builds: generator — switch — host A (frontend) — host B
// (backend). A's frontend handler makes a nested call to B's backend and
// wraps the result.
func nestedRig(t *testing.T) (*sim.Sim, *Host, *Host, *testClient) {
	t.Helper()
	s := sim.New(77)
	sw := fabric.NewSwitch(s)

	attach := func(p fabric.FramePort) *fabric.Link {
		l := fabric.NewLink(s, fabric.Net100G)
		port := sw.AttachPort(l, 1)
		l.Attach(p, port)
		return l
	}

	client := &testClient{s: s, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	client.link = attach(client)

	hostA := NewHost(s, DefaultHostConfig(hostAEP, 1))
	hostA.NIC.AttachLink(attach(hostA.NIC), 0)
	hostB := NewHost(s, DefaultHostConfig(hostBEP, 1))
	hostB.NIC.AttachLink(attach(hostB.NIC), 0)
	hostA.NIC.AddARP(hostBEP.IP, hostBEP.MAC)

	// Backend on B: echo with a prefix.
	hostB.RegisterService(&rpc.ServiceDesc{ID: 20, Name: "backend", Methods: []rpc.MethodDesc{{
		ID: 1, Name: "lookup",
		Handler: func(req []byte) ([]byte, sim.Time) {
			return append([]byte("B:"), req...), 500 * sim.Nanosecond
		},
	}}}, 9100, 0)
	hostB.Start()

	// Frontend on A: async handler calls the backend, wraps the reply.
	hostA.RegisterService(&rpc.ServiceDesc{ID: 10, Name: "frontend", Methods: []rpc.MethodDesc{{
		ID: 1, Name: "get",
		Handler: func(req []byte) ([]byte, sim.Time) { panic("async handler must be used") },
	}}}, 9000, 0)
	hostA.SetAsyncHandler(10, 1, func(tc *kernel.TC, coreID int, req []byte, respond func(uint16, []byte)) {
		tc.RunUser(300*sim.Nanosecond, func() { // frontend pre-processing
			ch := hostA.ClientChanFor(coreID)
			dst := hostBEP
			dst.Port = 9100
			hostA.Call(tc, ch, 20, 1, dst, req, func(status uint16, resp []byte) {
				tc.RunUser(200*sim.Nanosecond, func() { // post-processing
					respond(rpc.StatusOK, append([]byte("A:"), resp...))
				})
			})
		})
	})
	hostA.Start()
	return s, hostA, hostB, client
}

// sendTo lets the test client target an arbitrary host endpoint.
func (c *testClient) sendNested(t *testing.T, dst wire.Endpoint, svc uint32, id uint64, body []byte) {
	t.Helper()
	req := rpc.EncodeRequest(svc, 1, id, 0, body)
	frame, err := wire.BuildUDP(clientEP, dst, uint16(id), req)
	if err != nil {
		t.Fatal(err)
	}
	c.sentAt[id] = c.s.Now()
	c.link.Send(0, frame)
}

func TestNestedRPCEndToEnd(t *testing.T) {
	s, hostA, hostB, client := nestedRig(t)
	s.RunUntil(sim.Millisecond)
	dst := hostAEP
	dst.Port = 9000
	client.sendNested(t, dst, 10, 1, []byte("q"))
	s.RunUntil(50 * sim.Millisecond)
	if len(client.resps) != 1 {
		t.Fatalf("%d responses", len(client.resps))
	}
	if got := string(client.resps[0].Body); got != "A:B:q" {
		t.Fatalf("nested response %q, want A:B:q", got)
	}
	if hostA.NIC.Stats().ClientReqs != 1 || hostA.NIC.Stats().ClientResps != 1 {
		t.Errorf("client stats %+v", hostA.NIC.Stats())
	}
	if hostB.Served(20) != 1 {
		t.Errorf("backend served %d", hostB.Served(20))
	}
	// Plausibility: nested RTT is a handful of microseconds, not a
	// TryAgain period.
	if rtt := client.rtts[1]; rtt > 30*sim.Microsecond || rtt < 4*sim.Microsecond {
		t.Errorf("nested RTT %v implausible", rtt)
	}
}

func TestNestedRPCSequence(t *testing.T) {
	s, hostA, hostB, client := nestedRig(t)
	s.RunUntil(sim.Millisecond)
	dst := hostAEP
	dst.Port = 9000
	const n = 20
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		at := s.Now() + sim.Time(i)*30*sim.Microsecond
		s.At(at, "send", func() {
			client.sendNested(t, dst, 10, 1, []byte{byte(id)})
		})
	}
	s.RunUntil(sim.Second)
	if len(client.resps) != n {
		t.Fatalf("%d/%d nested responses", len(client.resps), n)
	}
	for _, m := range client.resps {
		if !strings.HasPrefix(string(m.Body), "A:B:") {
			t.Fatalf("bad body %q", m.Body)
		}
	}
	if hostB.Served(20) != n {
		t.Errorf("backend served %d", hostB.Served(20))
	}
	if hostA.NIC.Stats().ClientReqs != n {
		t.Errorf("client reqs %d", hostA.NIC.Stats().ClientReqs)
	}
}

func TestNestedRPCWarmLatencyBreakdown(t *testing.T) {
	// Direct call to B must be cheaper than via the frontend, and the
	// nesting overhead must be roughly one extra hop + dispatch, not a
	// full scheduler quantum.
	s, _, _, client := nestedRig(t)
	s.RunUntil(sim.Millisecond)

	dstA := hostAEP
	dstA.Port = 9000
	dstB := hostBEP
	dstB.Port = 9100

	// Warm both paths.
	client.sendNested(t, dstA, 10, 1, []byte("w"))
	s.RunUntil(20 * sim.Millisecond)
	client.sendNested(t, dstB, 20, 2, []byte("w"))
	s.RunUntil(40 * sim.Millisecond)

	client.sendNested(t, dstB, 20, 3, []byte("m"))
	s.RunUntil(60 * sim.Millisecond)
	client.sendNested(t, dstA, 10, 4, []byte("m"))
	s.RunUntil(90 * sim.Millisecond)

	direct := client.rtts[3]
	nested := client.rtts[4]
	if direct == 0 || nested == 0 {
		t.Fatal("missing RTTs")
	}
	if nested <= direct {
		t.Fatalf("nested %v not above direct %v", nested, direct)
	}
	overhead := nested - direct
	if overhead > 15*sim.Microsecond {
		t.Errorf("nesting overhead %v; continuation should be cheap (§6)", overhead)
	}
	t.Logf("direct=%v nested=%v overhead=%v", direct, nested, overhead)
}

func TestClientChanCoreAffinity(t *testing.T) {
	s, hostA, _, _ := nestedRig(t)
	s.RunUntil(sim.Millisecond)
	ch := hostA.OpenClientChan(0)
	// Calling from a thread on another core must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("cross-core Call did not panic")
		}
	}()
	// Fabricate a TC on a different core via a throwaway thread.
	done := false
	hostA.K.Preempt(hostA.Worker(0))
	hostA.NIC.Kick(0)
	s.RunUntil(2 * sim.Millisecond)
	_ = done
	// Directly misuse the API: channel bound to core 0, thread core -1.
	fakeCh := &ClientChan{id: ch.id, coreID: 99}
	hostA.Call(nil2(), fakeCh, 20, 1, hostBEP, nil, func(uint16, []byte) {})
}

// nil2 builds an invalid TC for the misuse test.
func nil2() *kernel.TC { return &kernel.TC{} }

// TestResolveARP pins outbound-call address resolution against the
// cluster's shared table: AddARP's own entries win, peers resolve from
// the shared table, and the host's own IP — present in the shared table —
// still resolves to broadcast, as it did when each NIC held only its
// peers. The shared table is never written.
func TestResolveARP(t *testing.T) {
	n := NewNIC(sim.New(1), DefaultConfig(hostAEP), 1)
	shared := map[wire.IP]wire.MAC{hostAEP.IP: hostAEP.MAC, hostBEP.IP: hostBEP.MAC}
	n.peerARP = shared
	other := wire.IP{10, 0, 0, 99}
	for _, c := range []struct {
		ip   wire.IP
		want wire.MAC
	}{
		{hostBEP.IP, hostBEP.MAC},
		{hostAEP.IP, wire.BroadcastMAC},
		{other, wire.BroadcastMAC},
	} {
		if got := n.resolve(c.ip); got != c.want {
			t.Errorf("resolve(%v) = %v, want %v", c.ip, got, c.want)
		}
	}
	override := wire.MAC{2, 0, 0, 0, 0, 0xEE}
	n.AddARP(hostBEP.IP, override)
	n.AddARP(hostAEP.IP, override)
	if got := n.resolve(hostBEP.IP); got != override {
		t.Errorf("AddARP entry lost to the shared table: got %v", got)
	}
	if got := n.resolve(hostAEP.IP); got != override {
		t.Errorf("AddARP entry for the own IP ignored: got %v", got)
	}
	if len(shared) != 2 || shared[hostBEP.IP] != hostBEP.MAC {
		t.Errorf("shared table written: %v", shared)
	}
}
