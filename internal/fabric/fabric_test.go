package fabric

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"lauberhorn/internal/sim"
)

func TestParamsSanity(t *testing.T) {
	for _, p := range []Params{ECI, CXL3, PCIeX86, PCIeEnzian, ECIWithDMA} {
		if p.Name == "" {
			t.Error("unnamed fabric")
		}
		if p.CacheLineSize <= 0 {
			t.Errorf("%s: bad cache line size", p.Name)
		}
		if p.HasCoherence && (p.LineFill <= 0 || p.FetchExclusive <= 0 || p.PerLineStream <= 0) {
			t.Errorf("%s: coherent fabric with zero latencies", p.Name)
		}
		if p.HasDMA && (p.DMAWrite <= 0 || p.DMABandwidth <= 0 || p.IRQLatency <= 0) {
			t.Errorf("%s: DMA fabric with zero latencies", p.Name)
		}
	}
}

func TestRelativeOrdering(t *testing.T) {
	// The paper's core quantitative premise: coherent line interaction is
	// far cheaper than DMA-class interaction, and Enzian PCIe is slower
	// than x86 PCIe.
	if ECI.LineFill >= PCIeX86.MMIORead {
		t.Error("ECI line fill should beat x86 MMIO read")
	}
	if ECI.LineFill >= PCIeX86.DMAWrite+PCIeX86.IRQLatency {
		t.Error("ECI line fill should beat DMA+IRQ")
	}
	if PCIeEnzian.DMAWrite <= PCIeX86.DMAWrite || PCIeEnzian.IRQLatency <= PCIeX86.IRQLatency {
		t.Error("Enzian PCIe should be slower than x86 PCIe")
	}
	if CXL3.LineFill >= ECI.LineFill {
		t.Error("CXL3 should be at least as fast as ECI")
	}
}

func TestLines(t *testing.T) {
	if ECI.Lines(1) != 1 || ECI.Lines(128) != 1 || ECI.Lines(129) != 2 {
		t.Error("ECI line count wrong")
	}
	if CXL3.Lines(64) != 1 || CXL3.Lines(65) != 2 {
		t.Error("CXL3 line count wrong")
	}
}

func TestStreamLines(t *testing.T) {
	if got := ECI.StreamLines(0); got != 0 {
		t.Errorf("StreamLines(0) = %v", got)
	}
	one := ECI.StreamLines(64)
	if one != ECI.LineFill {
		t.Errorf("single line = %v, want %v", one, ECI.LineFill)
	}
	two := ECI.StreamLines(200)
	if two != ECI.LineFill+ECI.PerLineStream {
		t.Errorf("two lines = %v", two)
	}
	// Monotone in size.
	prev := sim.Time(0)
	for n := 64; n <= 16384; n *= 2 {
		v := ECI.StreamLines(n)
		if v < prev {
			t.Fatalf("StreamLines not monotone at %d", n)
		}
		prev = v
	}
}

func TestStreamLinesPanicsWithoutCoherence(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PCIeX86.StreamLines(64)
}

func TestDMATransfer(t *testing.T) {
	small := PCIeX86.DMATransfer(64)
	big := PCIeX86.DMATransfer(4096)
	if small <= PCIeX86.DMAWrite {
		t.Error("DMA transfer missing payload time")
	}
	if big <= small {
		t.Error("DMA transfer not monotone")
	}
	// 4 KiB at 32 B/ns = 128 ns payload time.
	want := PCIeX86.DMAWrite + 128*sim.Nanosecond
	if big != want {
		t.Errorf("DMATransfer(4096) = %v, want %v", big, want)
	}
}

func TestDMATransferPanicsWithoutDMA(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ECI.DMATransfer(64)
}

func TestCrossoverNear4KiB(t *testing.T) {
	// §6: "empirically for Enzian this happens at about 4KiB". The
	// parameter sets must reproduce a cache-line/DMA crossover in the
	// low-KiB range on the Enzian fabric.
	p := ECIWithDMA
	cross := -1
	for n := 128; n <= 65536; n += 128 {
		if p.StreamLines(n) > p.DMATransfer(n)+p.MMIOWrite {
			cross = n
			break
		}
	}
	if cross < 2048 || cross > 8192 {
		t.Fatalf("cache-line/DMA crossover at %d bytes, want ~4KiB", cross)
	}
}

type sink struct {
	frames [][]byte
	times  []sim.Time
	s      *sim.Sim
}

func (k *sink) DeliverFrame(f []byte) {
	k.frames = append(k.frames, f)
	k.times = append(k.times, k.s.Now())
}

func TestLinkDelivery(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Net100G)
	a, b := &sink{s: s}, &sink{s: s}
	l.Attach(a, b)

	frame := make([]byte, 125) // 10 ns serialization at 12.5 B/ns
	l.Send(0, frame)
	s.Run()

	if len(b.frames) != 1 || len(a.frames) != 0 {
		t.Fatalf("delivery wrong: a=%d b=%d", len(a.frames), len(b.frames))
	}
	want := 10*sim.Nanosecond + Net100G.PropDelay + Net100G.SwitchDelay
	if b.times[0] != want {
		t.Errorf("arrival at %v, want %v", b.times[0], want)
	}
	if f, by := l.Stats(0); f != 1 || by != 125 {
		t.Errorf("stats %d/%d", f, by)
	}
}

func TestLinkSerializationQueueing(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Net100G)
	a, b := &sink{s: s}, &sink{s: s}
	l.Attach(a, b)

	// Two 1250-byte frames sent at the same instant: second must queue
	// 100 ns behind the first.
	f1 := make([]byte, 1250)
	f2 := make([]byte, 1250)
	l.Send(0, f1)
	l.Send(0, f2)
	s.Run()

	if len(b.frames) != 2 {
		t.Fatalf("got %d frames", len(b.frames))
	}
	gap := b.times[1] - b.times[0]
	if gap != 100*sim.Nanosecond {
		t.Errorf("inter-arrival gap %v, want 100ns", gap)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Net100G)
	a, b := &sink{s: s}, &sink{s: s}
	l.Attach(a, b)
	l.Send(0, make([]byte, 125))
	l.Send(1, make([]byte, 125))
	s.Run()
	// Directions must not queue behind each other.
	if a.times[0] != b.times[0] {
		t.Errorf("duplex directions interfered: %v vs %v", a.times[0], b.times[0])
	}
}

func TestLinkPanics(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Net100G)
	if err := catchPanic(func() { l.Send(0, nil) }); err == "" {
		t.Error("send on unattached link did not panic")
	}
	l.Attach(&sink{s: s}, &sink{s: s})
	if err := catchPanic(func() { l.Send(2, nil) }); err == "" {
		t.Error("bad side did not panic")
	}
	if err := catchPanic(func() { NewLink(s, NetParams{}) }); err == "" {
		t.Error("zero bandwidth did not panic")
	}
}

// TestReplacePortRefusesInFlight pins ReplacePort's contract: while a
// frame is in flight toward a side, replacing that side's port panics
// (the delivery would land on a port it was never sent to); once the
// frame is delivered, the swap succeeds and the next frame reaches the
// new port.
func TestReplacePortRefusesInFlight(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, Net100G)
	a, old, repl := &sink{s: s}, &sink{s: s}, &sink{s: s}
	l.Attach(a, old)
	l.Send(0, make([]byte, 125))
	if err := catchPanic(func() { l.ReplacePort(1, repl) }); err == "" {
		t.Fatal("ReplacePort with a frame in flight toward side 1 did not panic")
	}
	s.Run()
	if len(old.frames) != 1 {
		t.Fatalf("original port got %d frames, want 1", len(old.frames))
	}
	l.ReplacePort(1, repl)
	l.Send(0, make([]byte, 125))
	s.Run()
	if len(old.frames) != 1 || len(repl.frames) != 1 {
		t.Fatalf("after the swap: original %d frames, new %d, want 1 and 1", len(old.frames), len(repl.frames))
	}
}

func catchPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = "panicked"
		}
	}()
	f()
	return ""
}

// Property: link preserves frame ordering per direction.
func TestLinkOrderProperty(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		s := sim.New(seed)
		l := NewLink(s, Net100G)
		a, b := &sink{s: s}, &sink{s: s}
		l.Attach(a, b)
		for i, sz := range sizes {
			frame := make([]byte, int(sz%1500)+1)
			frame[0] = byte(i)
			l.Send(0, frame)
		}
		s.Run()
		if len(b.frames) != len(sizes) {
			return false
		}
		for i, fr := range b.frames {
			if fr[0] != byte(i) {
				return false
			}
		}
		for i := 1; i < len(b.times); i++ {
			if b.times[i] < b.times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// relay is a port that hands each delivered frame to a function.
type relay func([]byte)

func (r relay) DeliverFrame(f []byte) { r(f) }

// TestLinkInflightConstantDepth holds one direction at three frames in
// flight for 2,000 deliveries by sending a new frame as each one
// arrives. The in-flight queue never drains, so this is the case where a
// queue that rewinds only when empty grows its array with every send:
// frames must still arrive in send order, and the queue's backing array
// must stay within twice the peak depth.
func TestLinkInflightConstantDepth(t *testing.T) {
	const depth, total = 3, 2000
	s := sim.New(1)
	l := NewLink(s, Net100G)
	sent, peak := 0, 0
	send := func() {
		f := make([]byte, 64)
		binary.LittleEndian.PutUint64(f, uint64(sent))
		sent++
		l.Send(0, f)
		peak = max(peak, l.inflight[0].Len())
	}
	var got []uint64
	l.Attach(&sink{s: s}, relay(func(f []byte) {
		got = append(got, binary.LittleEndian.Uint64(f))
		if sent < total {
			send()
		}
	}))
	for range depth {
		send()
	}
	s.Run()
	if len(got) != total {
		t.Fatalf("delivered %d frames, want %d", len(got), total)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("delivery %d carried frame %d: out of order", i, seq)
		}
	}
	if peak != depth {
		t.Fatalf("peak in-flight depth %d, want %d", peak, depth)
	}
	if c := l.inflight[0].Cap(); c > 2*peak {
		t.Fatalf("in-flight queue capacity %d after %d deliveries at depth %d, want <= %d", c, total, peak, 2*peak)
	}
}
