package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/trace"
)

// TestTracerMatchesStatsOnEveryRetirePath runs one core between two
// services through every path that answers a load with Retire or
// TryAgain — the backlog reclaim (RetireCore), the idle-endpoint retire
// in answerLoad, an OS deschedule (Kick) and the timer — and checks the
// tracer counted exactly what Stats counted.
func TestTracerMatchesStatsOnEveryRetirePath(t *testing.T) {
	s := sim.New(21)
	h := NewHost(s, DefaultHostConfig(serverEP, 1))
	link := fabric.NewLink(s, fabric.Net100G)
	client := &testClient{s: s, link: link, sentAt: map[uint64]sim.Time{}, rtts: map[uint64]sim.Time{}}
	link.Attach(client, h.NIC)
	h.NIC.AttachLink(link, 1)
	for i := uint32(1); i <= 2; i++ {
		h.RegisterService(&rpc.ServiceDesc{ID: i, Name: "svc", Methods: []rpc.MethodDesc{{
			ID: 1, Handler: func(req []byte) ([]byte, sim.Time) { return req, 5 * sim.Microsecond },
		}}}, 9000+uint16(i), 0)
	}
	tr := trace.New(s, 4096)
	tr.Enable()
	h.NIC.SetTracer(tr)
	h.Start()
	s.RunUntil(sim.Millisecond)

	// svc1 warms the core; svc2's request then reclaims it (RetireCore).
	client.send(t, 9001, 1, 1, 1, []byte("a"))
	s.RunUntil(5 * sim.Millisecond)
	client.send(t, 9002, 2, 1, 2, []byte("b"))
	s.RunUntil(10 * sim.Millisecond)
	// The core now polls svc2. A svc1 request queued while it serves
	// svc2 makes its next svc2 load retire at once (answerLoad).
	client.send(t, 9002, 2, 1, 3, []byte("c"))
	s.RunUntil(s.Now() + sim.Microsecond)
	client.send(t, 9001, 1, 1, 4, []byte("d"))
	s.RunUntil(20 * sim.Millisecond)
	// Deschedule the parked core (Kick), then idle past a TryAgain timer.
	h.Deschedule(0)
	s.RunUntil(60 * sim.Millisecond)

	if len(client.resps) != 4 {
		t.Fatalf("%d/4 responses", len(client.resps))
	}
	notes := map[string]bool{}
	for _, e := range tr.Events() {
		if e.Kind == trace.Retire || e.Kind == trace.TryAgain {
			notes[e.Kind.String()+"/"+e.Note] = true
		}
	}
	for _, want := range []string{"retire/reclaim", "retire/idle", "tryagain/kick", "tryagain/"} {
		if !notes[want] {
			t.Errorf("no %q event traced; traced %v", want, notes)
		}
	}
	st := h.NIC.Stats()
	if got := tr.Count(trace.Retire); got != st.Retires {
		t.Errorf("tracer counted %d retires, Stats %d", got, st.Retires)
	}
	if got := tr.Count(trace.TryAgain); got != st.TryAgains {
		t.Errorf("tracer counted %d TryAgains, Stats %d", got, st.TryAgains)
	}
}

// TestCoreSlotPanics provokes each per-core invariant the NIC asserts:
// a dispatch onto a core that still owes a response, a recall that finds
// no request in flight, and a recalled line that holds no response. Each
// message names the core and the serial.
func TestCoreSlotPanics(t *testing.T) {
	setup := func() (*NIC, *Endpoint) {
		n := NewNIC(sim.New(1), DefaultConfig(serverEP), 2)
		ep := n.RegisterService(&rpc.ServiceDesc{ID: 1, Methods: []rpc.MethodDesc{{ID: 1}}}, 100, 9000, 0)
		return n, ep
	}
	request := func(n *NIC, ep *Endpoint) *inflight {
		req := n.newInflight()
		req.serial, req.ep, req.method = n.nextSerial, ep, ep.method(1)
		n.nextSerial++
		return req
	}
	mustPanic := func(t *testing.T, f func(), want ...string) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("panic %q does not name %q", msg, w)
				}
			}
		}()
		f()
		t.Error("no panic")
	}
	ignore := func([]byte) {}

	t.Run("dispatch onto a core that owes", func(t *testing.T) {
		n, ep := setup()
		n.dispatchTo(svcCtrl(1, 1, 0), 1, request(n, ep), false, ignore)
		mustPanic(t, func() {
			n.dispatchTo(svcCtrl(1, 1, 1), 1, request(n, ep), false, ignore)
		}, "core 1", "serial 2", "serial 1")
	})
	t.Run("recall finds no request", func(t *testing.T) {
		n, ep := setup()
		req := request(n, ep)
		n.freeInflight(req)
		line, _ := responseLine(nil, n.lineSize(), rpc.StatusOK, 1, nil)
		mustPanic(t, func() { n.transmitResponse(1, 1, req, line) }, "core 1", "serial 1")
	})
	t.Run("line holds no response", func(t *testing.T) {
		n, ep := setup()
		req := request(n, ep)
		idle := markerLine(nil, n.lineSize(), MarkerIdle)
		mustPanic(t, func() { n.transmitResponse(1, req.serial, req, idle) }, "core 1", "serial 1")
		other, _ := responseLine(nil, n.lineSize(), rpc.StatusOK, 9, nil)
		mustPanic(t, func() { n.transmitResponse(1, req.serial, req, other) }, "core 1", "serial 1")
	})
}

// TestStarvedCountTransitions drives one endpoint through each update of
// the starved count. Dispatch never parks a poller on an endpoint with
// queued work, so the waiter-side updates are reached only here.
func TestStarvedCountTransitions(t *testing.T) {
	n := NewNIC(sim.New(1), DefaultConfig(serverEP), 1)
	ep := n.RegisterService(&rpc.ServiceDesc{ID: 1, Methods: []rpc.MethodDesc{{ID: 1}}}, 100, 9000, 0)
	p := &pendingLoad{ep: ep}
	steps := []struct {
		name string
		do   func()
		want int
	}{
		{"push with no poller", func() { n.pushReq(ep, &inflight{}) }, 1},
		{"push again", func() { n.pushReq(ep, &inflight{}) }, 1},
		{"poller parks", func() { n.addWaiter(ep, p) }, 0},
		{"pop under a poller", func() { n.popReq(ep) }, 0},
		{"poller leaves", func() { n.dropWaiter(ep, p) }, 1},
		{"last pop", func() { n.popReq(ep) }, 0},
		{"poller parks on an empty queue", func() { n.addWaiter(ep, p) }, 0},
		{"push under a poller", func() { n.pushReq(ep, &inflight{}) }, 0},
		{"poller leaves queued work", func() { n.dropWaiter(ep, p) }, 1},
	}
	for _, st := range steps {
		st.do()
		if n.starved != st.want {
			t.Fatalf("after %s: starved count %d, want %d", st.name, n.starved, st.want)
		}
	}
}

// Property: the NIC's starved count equals a scan over every endpoint
// (queued work, no poller) after every simulator event, under random
// multi-service load on fewer cores than services.
func TestStarvedCountProperty(t *testing.T) {
	type req struct {
		Svc uint8
		Gap uint16 // nanoseconds, capped
	}
	f := func(reqs []req, seed uint64) bool {
		if len(reqs) > 60 {
			reqs = reqs[:60]
		}
		const nSvcs = 5
		s, h, client := propRig(seed, 2, nSvcs)
		s.RunUntil(sim.Millisecond)
		at := s.Now()
		for i, r := range reqs {
			id := uint64(i + 1)
			svc := uint32(int(r.Svc)%nSvcs) + 1
			at += sim.Time(r.Gap%3000) * sim.Nanosecond
			s.At(at, "send", func() { client.send(t, 9000+uint16(svc-1), svc, 1, id, []byte("x")) })
		}
		end := at + 40*sim.Millisecond
		for s.Now() < end && s.Step() {
			scan := 0
			for _, ep := range h.NIC.epOrder {
				if ep.starved() {
					scan++
				}
			}
			if h.NIC.starved != scan {
				t.Logf("at %v: starved count %d, scan %d (seed %d)", s.Now(), h.NIC.starved, scan, seed)
				return false
			}
		}
		return len(client.resps) == len(reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
