package nicdma

import (
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

var (
	src = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}, Port: 1111}
	dst = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 2222}
)

func frame(t *testing.T, payload []byte, srcPort uint16) []byte {
	t.Helper()
	s := src
	s.Port = srcPort
	f, err := wire.BuildUDP(s, dst, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRxDeliversToQueue(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	n.DeliverFrame(frame(t, []byte("hi"), 1111))
	s.Run()
	if n.Stats().RxFrames != 1 {
		t.Fatalf("rx frames %d", n.Stats().RxFrames)
	}
	d := n.Queue(0).Poll()
	if d == nil || string(d.Payload) != "hi" {
		t.Fatalf("polled %v", d)
	}
	if n.Queue(0).Poll() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestRxLatencyIncludesDMA(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	n := New(s, cfg)
	var at sim.Time
	n.DeliverFrame(frame(t, []byte("x"), 1))
	for s.Step() {
		if n.Stats().RxFrames == 1 && at == 0 {
			at = s.Now()
		}
	}
	want := cfg.NICProcess + cfg.Fabric.DMATransfer(wire.MinFrameLen) + cfg.Fabric.DMAWrite
	if at != want {
		t.Errorf("packet visible at %v, want %v", at, want)
	}
}

func TestRxBadFrameDropped(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	bad := frame(t, []byte("x"), 1)
	bad[20] ^= 0xff
	n.DeliverFrame(bad)
	s.Run()
	if n.Stats().RxBadFrames != 1 || n.Stats().RxFrames != 0 {
		t.Fatalf("stats %+v", n.Stats())
	}
}

func TestRSSSpreadsFlows(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Queues = 4
	n := New(s, cfg)
	for p := uint16(1); p <= 64; p++ {
		n.DeliverFrame(frame(t, []byte("x"), p))
	}
	s.Run()
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		if n.Queue(i).Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Errorf("RSS used only %d/4 queues for 64 flows", nonEmpty)
	}
}

func TestRSSSameFlowSameQueue(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Queues = 8
	n := New(s, cfg)
	for i := 0; i < 10; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 777))
	}
	s.Run()
	withFrames := 0
	for i := 0; i < 8; i++ {
		if n.Queue(i).Len() > 0 {
			withFrames++
			if n.Queue(i).Len() != 10 {
				t.Errorf("queue %d has %d frames", i, n.Queue(i).Len())
			}
		}
	}
	if withFrames != 1 {
		t.Errorf("one flow landed on %d queues", withFrames)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RingSize = 4
	n := New(s, cfg)
	for i := 0; i < 10; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 5))
	}
	s.Run()
	if n.Stats().RxDropped != 6 {
		t.Errorf("dropped %d, want 6", n.Stats().RxDropped)
	}
	if n.Queue(0).Len() != 4 {
		t.Errorf("ring holds %d", n.Queue(0).Len())
	}
}

func TestIRQRaisedOnArrival(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	n := New(s, cfg)
	var irqAt sim.Time
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) { irqAt = s.Now() }
	q.EnableIRQ()
	n.DeliverFrame(frame(t, []byte("x"), 1))
	s.Run()
	if irqAt == 0 {
		t.Fatal("no IRQ")
	}
	want := cfg.NICProcess + cfg.Fabric.DMATransfer(wire.MinFrameLen) + cfg.Fabric.DMAWrite + cfg.Fabric.IRQLatency
	if irqAt != want {
		t.Errorf("IRQ at %v, want %v", irqAt, want)
	}
	if n.Stats().IRQs != 1 {
		t.Errorf("IRQs %d", n.Stats().IRQs)
	}
}

func TestIRQMaskedUntilReenabled(t *testing.T) {
	// NAPI: after one interrupt, further packets must not interrupt until
	// the driver re-enables.
	s := sim.New(1)
	n := New(s, DefaultConfig())
	irqs := 0
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) { irqs++ }
	q.EnableIRQ()
	for i := 0; i < 5; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 1))
	}
	s.Run()
	if irqs != 1 {
		t.Fatalf("%d IRQs before re-enable, want 1", irqs)
	}
	// Drain and re-enable: queue empty, no new IRQ.
	for q.Poll() != nil {
	}
	q.EnableIRQ()
	s.Run()
	if irqs != 1 {
		t.Fatalf("IRQ fired on empty queue")
	}
	// Re-enable with pending packets: immediate IRQ.
	n.DeliverFrame(frame(t, []byte("x"), 1))
	s.Run()
	if irqs != 2 {
		t.Fatalf("IRQ missing after re-enable: %d", irqs)
	}
}

func TestIRQDisabledForPolling(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) { t.Fatal("IRQ in poll mode") }
	q.EnableIRQ()
	q.DisableIRQ()
	n.DeliverFrame(frame(t, []byte("x"), 1))
	s.Run()
	if q.Len() != 1 {
		t.Fatal("packet not delivered in poll mode")
	}
}

func TestIRQCoalescing(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.IRQCoalesce = 50 * sim.Microsecond
	n := New(s, cfg)
	var irqTimes []sim.Time
	q := n.Queue(0)
	q.OnIRQ = func(qq *RxQueue) {
		irqTimes = append(irqTimes, s.Now())
		for qq.Poll() != nil {
		}
		qq.EnableIRQ()
	}
	q.EnableIRQ()
	// Two packets 5us apart: the second IRQ must be pushed past the window.
	n.DeliverFrame(frame(t, []byte("a"), 1))
	s.At(5*sim.Microsecond, "second", func() {
		n.DeliverFrame(frame(t, []byte("b"), 1))
	})
	s.Run()
	if len(irqTimes) != 2 {
		t.Fatalf("%d IRQs", len(irqTimes))
	}
	if gap := irqTimes[1] - irqTimes[0]; gap < cfg.IRQCoalesce {
		t.Errorf("IRQ gap %v below coalesce window %v", gap, cfg.IRQCoalesce)
	}
}

type portSink struct {
	frames int
	s      *sim.Sim
	at     sim.Time
}

func (p *portSink) DeliverFrame([]byte) { p.frames++; p.at = p.s.Now() }

func TestTransmit(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	n := New(s, cfg)
	l := fabric.NewLink(s, fabric.Net100G)
	sink := &portSink{s: s}
	l.Attach(n, sink)
	n.AttachLink(l, 0)

	f := frame(t, []byte("out"), 1)
	n.Transmit(f)
	s.Run()
	if sink.frames != 1 {
		t.Fatal("frame not transmitted")
	}
	if n.Stats().TxFrames != 1 {
		t.Error("tx not counted")
	}
	// Latency ≥ descriptor fetch + payload DMA + process + wire.
	min := cfg.Fabric.DMARead + cfg.Fabric.DMATransfer(len(f)) + cfg.NICProcess
	if sink.at < min {
		t.Errorf("delivered at %v, want >= %v", sink.at, min)
	}
}

func TestTransmitSerializesDMAEngine(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	l := fabric.NewLink(s, fabric.Net100G)
	sink := &portSink{s: s}
	l.Attach(n, sink)
	n.AttachLink(l, 0)

	big := frame(t, make([]byte, 1400), 1)
	n.Transmit(big)
	n.Transmit(big)
	s.Run()
	perFrame := fabric.PCIeX86.DMARead + fabric.PCIeX86.DMATransfer(len(big)) + n.Config().NICProcess
	if sink.at < 2*perFrame {
		t.Errorf("second frame at %v, want >= %v (TX engine must serialize)", sink.at, 2*perFrame)
	}
}

func TestTransmitNoLinkPanics(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Transmit([]byte{1})
}

func TestNewPanics(t *testing.T) {
	s := sim.New(1)
	if catchPanic(func() { New(s, Config{Fabric: fabric.ECI, Queues: 1}) }) == "" {
		t.Error("non-DMA fabric accepted")
	}
	if catchPanic(func() { New(s, Config{Fabric: fabric.PCIeX86, Queues: 0}) }) == "" {
		t.Error("zero queues accepted")
	}
}

func catchPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = "p"
		}
	}()
	f()
	return ""
}

func TestEnzianSlowerThanX86(t *testing.T) {
	// Per-packet receive cost on the Enzian NIC must exceed x86 — the
	// premise of Fig. 2's Enzian-DMA vs x86-DMA gap.
	x86 := DefaultConfig()
	enz := EnzianConfig()
	costX86 := x86.NICProcess + x86.Fabric.DMATransfer(64) + x86.Fabric.DMAWrite + x86.Fabric.IRQLatency
	costEnz := enz.NICProcess + enz.Fabric.DMATransfer(64) + enz.Fabric.DMAWrite + enz.Fabric.IRQLatency
	if costEnz <= 2*costX86 {
		t.Errorf("Enzian per-packet %v vs x86 %v; expected >2x", costEnz, costX86)
	}
}

func TestDoorbellCost(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig())
	if n.DoorbellCost() != fabric.PCIeX86.MMIOWrite {
		t.Error("doorbell cost mismatch")
	}
}

// TestFilterIPDropsForeignFrames pins the switched-fabric RX filter the
// cluster layer arms: frames for another host's IP are discarded before
// DMA; frames for the configured IP (or any frame when the filter is off)
// still land in a queue.
func TestFilterIPDropsForeignFrames(t *testing.T) {
	mk := func(filter wire.IP) *NIC {
		cfg := DefaultConfig()
		cfg.FilterIP = filter
		return New(sim.New(1), cfg)
	}
	// Filter armed with our own IP: accepted.
	n := mk(dst.IP)
	n.DeliverFrame(frame(t, []byte("mine"), 1))
	n.sim.Run()
	if n.Stats().RxFrames != 1 || n.Stats().RxFiltered != 0 {
		t.Fatalf("own frame filtered: %+v", n.Stats())
	}
	// Filter armed with a different IP: dropped, counted, not queued.
	n = mk(wire.IP{10, 0, 0, 99})
	n.DeliverFrame(frame(t, []byte("flooded"), 1))
	n.sim.Run()
	if st := n.Stats(); st.RxFiltered != 1 || st.RxFrames != 0 {
		t.Fatalf("foreign frame not filtered: %+v", st)
	}
	if n.Queue(0).Len() != 0 {
		t.Fatal("filtered frame reached a ring")
	}
	// Filter disabled: everything is accepted (legacy point-to-point
	// behavior).
	n = mk(wire.IP{})
	n.DeliverFrame(frame(t, []byte("any"), 1))
	n.sim.Run()
	if n.Stats().RxFrames != 1 {
		t.Fatal("unfiltered NIC dropped a frame")
	}
}

// TestRingConstantDepth holds an RX ring at constant depth k for many
// poll/arrive cycles: packets leave in arrival order, and the ring's
// backing array stays within twice the depth.
func TestRingConstantDepth(t *testing.T) {
	const cycles = 1000
	for _, depth := range []int{1, 4, 16} {
		s := sim.New(1)
		n := New(s, DefaultConfig())
		q := n.Queue(0)
		seq := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
		sent, got := 0, 0
		for ; sent < depth; sent++ {
			n.DeliverFrame(frame(t, seq(sent), 1))
		}
		s.Run()
		for i := 0; i < cycles; i++ {
			p := q.Poll()
			if p == nil || string(p.Payload) != string(seq(got)) {
				t.Fatalf("depth %d: polled %v, want packet %d", depth, p, got)
			}
			got++
			n.Release(p)
			n.DeliverFrame(frame(t, seq(sent), 1))
			sent++
			s.Run()
			if q.Len() != depth {
				t.Fatalf("depth %d: ring holds %d", depth, q.Len())
			}
		}
		if c := q.ring.Cap(); c > 2*depth {
			t.Errorf("depth %d: ring cap %d, want <= %d", depth, c, 2*depth)
		}
	}
}

// TestReceiveDropsRecycleFrames checks that every frame the NIC drops on
// receipt (unparseable, not addressed to it, ring full) goes back to the
// frame pool once, as does every packet released after a poll, and that
// a packet cannot be released twice.
func TestReceiveDropsRecycleFrames(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RingSize = 2
	cfg.FilterIP = dst.IP
	n := New(s, cfg)
	pool := new(wire.FramePool)
	n.SetPool(pool)

	bad := frame(t, []byte("x"), 1)
	bad[20] ^= 0xff
	n.DeliverFrame(bad)
	foreign, err := wire.BuildUDP(src, wire.Endpoint{MAC: dst.MAC, IP: wire.IP{10, 0, 0, 99}, Port: 2222}, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	n.DeliverFrame(foreign)
	for i := 0; i < 5; i++ {
		n.DeliverFrame(frame(t, []byte("x"), 1))
	}
	s.Run()
	st := n.Stats()
	drops := st.RxBadFrames + st.RxFiltered + st.RxDropped
	if st.RxBadFrames != 1 || st.RxFiltered != 1 || st.RxDropped != 3 {
		t.Fatalf("stats %+v", st)
	}
	if pool.Puts != drops {
		t.Fatalf("%d frames back in the pool after %d drops", pool.Puts, drops)
	}
	q := n.Queue(0)
	for p := q.Poll(); p != nil; p = q.Poll() {
		n.Release(p)
		if p.Frame != nil || p.Payload != nil {
			t.Fatal("released packet still aliases its frame")
		}
		if catchPanic(func() { n.Release(p) }) == "" {
			t.Fatal("second Release of a packet did not panic")
		}
	}
	if pool.Puts != drops+2 {
		t.Fatalf("%d frames back in the pool, want %d", pool.Puts, drops+2)
	}
}
