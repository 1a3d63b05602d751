package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
)

// propRig builds a multi-service Lauberhorn host and returns helpers for
// randomized request injection.
func propRig(seed uint64, nCores, nSvcs int) (*sim.Sim, *Host, *testClient) {
	s := sim.New(seed)
	h := NewHost(s, DefaultHostConfig(serverEP, nCores))
	link := fabric.NewLink(s, fabric.Net100G)
	client := &testClient{s: s, link: link, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	link.Attach(client, h.NIC)
	h.NIC.AttachLink(link, 1)
	for i := 0; i < nSvcs; i++ {
		id := uint32(i + 1)
		h.RegisterService(&rpc.ServiceDesc{ID: id, Name: fmt.Sprintf("s%d", id),
			Methods: []rpc.MethodDesc{{
				ID: 1,
				Handler: func(req []byte) ([]byte, sim.Time) {
					return req, 300 * sim.Nanosecond
				},
			}}}, 9000+uint16(i), 0)
	}
	h.Start()
	return s, h, client
}

// Property: under any random pattern of services, sizes and inter-arrival
// gaps (moderate load), every request is eventually answered with its
// exact payload.
func TestAllRequestsServedProperty(t *testing.T) {
	type req struct {
		Svc  uint8
		Size uint16
		Gap  uint16 // microseconds, capped
	}
	f := func(reqs []req, seed uint64) bool {
		if len(reqs) > 40 {
			reqs = reqs[:40]
		}
		const nSvcs = 5
		s, h, client := propRig(seed, 2, nSvcs)
		s.RunUntil(sim.Millisecond)
		payloads := map[uint64][]byte{}
		at := s.Now()
		for i, r := range reqs {
			id := uint64(i + 1)
			svc := uint32(int(r.Svc)%nSvcs) + 1
			size := int(r.Size) % 2000
			body := make([]byte, size)
			for j := range body {
				body[j] = byte(j*int(id) + 1)
			}
			payloads[id] = body
			at += sim.Time(r.Gap%200) * sim.Microsecond
			svcCopy, bodyCopy := svc, body
			s.At(at, "send", func() {
				client.send(t, 9000+uint16(svcCopy-1), svcCopy, 1, id, bodyCopy)
			})
		}
		// Generous horizon: even TryAgain-period waits resolve.
		s.RunUntil(at + 100*sim.Millisecond)
		if len(client.resps) != len(reqs) {
			t.Logf("served %d of %d (seed %d)", len(client.resps), len(reqs), seed)
			return false
		}
		for _, m := range client.resps {
			if m.Status != rpc.StatusOK {
				return false
			}
			if !bytes.Equal(m.Body, payloads[m.ID]) {
				t.Logf("payload mismatch for id %d", m.ID)
				return false
			}
		}
		_ = h
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: NIC telemetry arrivals always equal fast+kernel dispatches
// plus still-queued plus dropped, for any served workload at quiescence.
func TestTelemetryConservationProperty(t *testing.T) {
	f := func(nReq uint8, seed uint64) bool {
		n := int(nReq%30) + 1
		s, h, client := propRig(seed, 1, 3)
		s.RunUntil(sim.Millisecond)
		at := s.Now()
		for i := 0; i < n; i++ {
			id := uint64(i + 1)
			svc := uint32(i%3) + 1
			at += 50 * sim.Microsecond
			svcCopy := svc
			s.At(at, "send", func() {
				client.send(t, 9000+uint16(svcCopy-1), svcCopy, 1, id, []byte("x"))
			})
		}
		s.RunUntil(at + 100*sim.Millisecond)
		var arrivals, dispatched, dropped uint64
		for svc := uint32(1); svc <= 3; svc++ {
			tl := h.NIC.Telemetry(svc)
			if tl == nil {
				continue
			}
			arrivals += tl.Arrivals
			dispatched += tl.Fast + tl.ViaKernel
			dropped += tl.Dropped
		}
		return arrivals == uint64(n) && dispatched+dropped == arrivals
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy accounting is conserved — total residency across all
// states equals elapsed time, for every core, under random load.
func TestResidencyConservationProperty(t *testing.T) {
	f := func(nReq uint8, seed uint64) bool {
		n := int(nReq%20) + 1
		s, h, client := propRig(seed, 3, 4)
		s.RunUntil(sim.Millisecond)
		at := s.Now()
		for i := 0; i < n; i++ {
			id := uint64(i + 1)
			svc := uint32(i%4) + 1
			at += 20 * sim.Microsecond
			svcCopy := svc
			s.At(at, "send", func() {
				client.send(t, 9000+uint16(svcCopy-1), svcCopy, 1, id, []byte("y"))
			})
		}
		end := at + 20*sim.Millisecond
		s.RunUntil(end)
		for _, c := range h.K.Cores() {
			var total sim.Time
			for st := 0; st < cpu.NumStates; st++ {
				total += c.Residency(cpu.State(st))
			}
			if total != end {
				t.Logf("core %d residency %v != elapsed %v", c.ID(), total, end)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue overflow drops exactly the excess and never wedges the
// service.
func TestQueueOverflowProperty(t *testing.T) {
	s := sim.New(5)
	cfg := DefaultHostConfig(serverEP, 1)
	cfg.NIC.SvcQueueDepth = 4
	h := NewHost(s, cfg)
	link := fabric.NewLink(s, fabric.Net100G)
	client := &testClient{s: s, link: link, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	link.Attach(client, h.NIC)
	h.NIC.AttachLink(link, 1)
	// A slow service so the queue builds.
	h.RegisterService(&rpc.ServiceDesc{ID: 1, Name: "slow", Methods: []rpc.MethodDesc{{
		ID: 1, Handler: func(req []byte) ([]byte, sim.Time) { return req, 200 * sim.Microsecond },
	}}}, 9000, 0)
	h.Start()
	s.RunUntil(sim.Millisecond)

	// Burst far beyond depth 4 + 1 in service.
	const n = 20
	for i := 0; i < n; i++ {
		client.send(t, 9000, 1, 1, uint64(i+1), []byte("z"))
	}
	s.RunUntil(sim.Second)
	st := h.NIC.Stats()
	if st.RxDropped == 0 {
		t.Fatal("no drops despite tiny queue")
	}
	if uint64(len(client.resps))+st.RxDropped != n {
		t.Fatalf("served %d + dropped %d != %d", len(client.resps), st.RxDropped, n)
	}
	// Service still works after the burst drained.
	client.send(t, 9000, 1, 1, 999, []byte("after"))
	s.RunUntil(2 * sim.Second)
	found := false
	for _, m := range client.resps {
		if m.ID == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("service wedged after overflow")
	}
}

// Property: clipBody returns the first n bytes of inline followed by aux
// as two pieces, which join to exactly what the joined body cut to n
// would be.
func TestClipBodyProperty(t *testing.T) {
	f := func(inline, aux []byte, n uint16) bool {
		joined := append(append([]byte(nil), inline...), aux...)
		k := int(n) % (len(joined) + 8) // also past the end
		want := joined
		if len(want) > k {
			want = want[:k]
		}
		a, b := clipBody(inline, aux, k)
		return bytes.Equal(append(append([]byte(nil), a...), b...), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
