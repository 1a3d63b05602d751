package fabric

import (
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

type portRecorder struct {
	name   string
	frames [][]byte
}

func (p *portRecorder) DeliverFrame(f []byte) { p.frames = append(p.frames, f) }

func macN(n byte) wire.MAC { return wire.MAC{2, 0, 0, 0, 0, n} }

func frameTo(dst, src wire.MAC) []byte {
	f := make([]byte, wire.MinFrameLen)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	return f
}

// swRig builds a 3-host star: hosts a, b, c on ports 0, 1, 2.
func swRig(t *testing.T) (*sim.Sim, *Switch, [3]*portRecorder, [3]*Link) {
	t.Helper()
	s := sim.New(1)
	sw := NewSwitch(s)
	var hosts [3]*portRecorder
	var links [3]*Link
	for i := 0; i < 3; i++ {
		hosts[i] = &portRecorder{name: string(rune('a' + i))}
		links[i] = NewLink(s, Net100G)
		port := sw.AttachPort(links[i], 1)
		links[i].Attach(hosts[i], port)
	}
	return s, sw, hosts, links
}

func TestSwitchFloodsUnknown(t *testing.T) {
	s, sw, hosts, links := swRig(t)
	links[0].Send(0, frameTo(macN(2), macN(1))) // a -> b, b unknown yet
	s.Run()
	if len(hosts[1].frames) != 1 || len(hosts[2].frames) != 1 {
		t.Fatalf("flood delivery: b=%d c=%d", len(hosts[1].frames), len(hosts[2].frames))
	}
	if len(hosts[0].frames) != 0 {
		t.Fatal("flooded back out the ingress port")
	}
	if sw.Flooded != 1 {
		t.Errorf("flooded %d", sw.Flooded)
	}
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	s, sw, hosts, links := swRig(t)
	// b speaks first so the switch learns b's port.
	links[1].Send(0, frameTo(macN(1), macN(2)))
	s.Run()
	// Now a -> b must be unicast.
	links[0].Send(0, frameTo(macN(2), macN(1)))
	s.Run()
	if len(hosts[1].frames) != 1 {
		t.Fatalf("b got %d frames", len(hosts[1].frames))
	}
	for _, f := range hosts[2].frames {
		var dst wire.MAC
		copy(dst[:], f[0:6])
		if dst == macN(2) {
			t.Fatal("c received a unicast not addressed to it")
		}
	}
	if sw.Forwarded != 1 {
		t.Errorf("forwarded %d", sw.Forwarded)
	}
}

func TestSwitchHairpinDropped(t *testing.T) {
	s, sw, hosts, links := swRig(t)
	// Learn a on port 0, then send a frame to a from a's own port.
	links[0].Send(0, frameTo(macN(9), macN(1)))
	s.Run()
	links[0].Send(0, frameTo(macN(1), macN(1)))
	s.Run()
	for i, h := range hosts {
		if i == 0 {
			continue
		}
		for _, f := range h.frames {
			var dst wire.MAC
			copy(dst[:], f[0:6])
			if dst == macN(1) {
				t.Fatal("hairpin frame escaped")
			}
		}
	}
	_ = sw
}

func TestSwitchBroadcastFloods(t *testing.T) {
	s, _, hosts, links := swRig(t)
	links[0].Send(0, frameTo(wire.BroadcastMAC, macN(1)))
	s.Run()
	if len(hosts[1].frames) != 1 || len(hosts[2].frames) != 1 {
		t.Fatal("broadcast not flooded")
	}
}

func TestSwitchRuntFrameIgnored(t *testing.T) {
	s, sw, _, _ := swRig(t)
	sw.ingress(0, []byte{1, 2, 3})
	s.Run()
	if sw.Forwarded != 0 || sw.Flooded != 0 {
		t.Fatal("runt frame forwarded")
	}
}

func TestSwitchThreeWayExchange(t *testing.T) {
	s, sw, hosts, links := swRig(t)
	// Everyone announces, then unicast in all directions.
	for i := 0; i < 3; i++ {
		links[i].Send(0, frameTo(wire.BroadcastMAC, macN(byte(i+1))))
	}
	s.Run()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				links[i].Send(0, frameTo(macN(byte(j+1)), macN(byte(i+1))))
			}
		}
	}
	s.Run()
	// Each host: 2 broadcasts + 2 unicasts.
	for i, h := range hosts {
		if len(h.frames) != 4 {
			t.Errorf("host %d got %d frames, want 4", i, len(h.frames))
		}
	}
	if sw.Forwarded != 6 {
		t.Errorf("forwarded %d, want 6", sw.Forwarded)
	}
}

func TestSwitchNilLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSwitch(sim.New(1)).AttachPort(nil, 0)
}

// TestSwitchFDBLearningAcrossPorts pins the forwarding database across a
// 3-port star: each source MAC is learned on the port it spoke from, the
// Flooded/Forwarded counters account for every frame exactly, and
// re-learning a migrated MAC updates the binding.
func TestSwitchFDBLearningAcrossPorts(t *testing.T) {
	s, sw, _, links := swRig(t)
	if sw.FDBLen() != 0 {
		t.Fatalf("fresh switch knows %d MACs", sw.FDBLen())
	}
	// Each host announces to an unknown destination: 3 floods, 3 learns.
	for i := 0; i < 3; i++ {
		links[i].Send(0, frameTo(macN(9), macN(byte(i+1))))
	}
	s.Run()
	if sw.FDBLen() != 3 {
		t.Fatalf("learned %d MACs, want 3", sw.FDBLen())
	}
	for i := 0; i < 3; i++ {
		port, ok := sw.FDBPort(macN(byte(i + 1)))
		if !ok || port != i {
			t.Errorf("MAC %d learned on port %d (ok=%v), want %d", i+1, port, ok, i)
		}
	}
	if sw.Flooded != 3 || sw.Forwarded != 0 {
		t.Fatalf("counters fwd=%d flood=%d, want 0/3", sw.Forwarded, sw.Flooded)
	}
	// Now every pairwise unicast is forwarded, never flooded.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				links[i].Send(0, frameTo(macN(byte(j+1)), macN(byte(i+1))))
			}
		}
	}
	s.Run()
	if sw.Flooded != 3 || sw.Forwarded != 6 {
		t.Fatalf("counters fwd=%d flood=%d, want 6/3", sw.Forwarded, sw.Flooded)
	}
	// A MAC that moves ports (VM migration style) is re-learned.
	links[2].Send(0, frameTo(macN(2), macN(1)))
	s.Run()
	if port, _ := sw.FDBPort(macN(1)); port != 2 {
		t.Errorf("migrated MAC still on port %d", port)
	}
	if sw.FDBLen() != 3 {
		t.Errorf("re-learning grew the FDB to %d", sw.FDBLen())
	}
}

// TestSwitchFloodCopiesPerPort: a flood hands every egress port its own
// buffer, so the CE mark one backlogged egress link applies in place
// never reaches another port's copy.
func TestSwitchFloodCopiesPerPort(t *testing.T) {
	params := Net100G
	params.ECNThreshold = 100 * sim.Nanosecond
	s := sim.New(1)
	sw := NewSwitch(s)
	var hosts [3]*portRecorder
	var links [3]*Link
	for i := range links {
		hosts[i] = &portRecorder{}
		links[i] = NewLink(s, params)
		links[i].Attach(hosts[i], sw.AttachPort(links[i], 1))
	}
	// 20 × 1500 B queue 2.4 us on switch -> b, still backlogged past the
	// threshold when the flood arrives ~0.66 us later.
	for i := 0; i < 20; i++ {
		links[1].Send(1, txUDPFrame(t, 1500))
	}
	links[0].Send(0, txUDPFrame(t, 64)) // a -> b's MAC, not yet learned: flood
	s.Run()

	if sw.Flooded != 1 || len(hosts[2].frames) != 1 {
		t.Fatalf("flooded %d, c received %d frames, want 1/1", sw.Flooded, len(hosts[2].frames))
	}
	bCopy := hosts[1].frames[len(hosts[1].frames)-1]
	if d, err := wire.ParseUDP(bCopy); err != nil || !wire.IsCE(d.IP.TOS) {
		t.Fatalf("b's flood copy not CE-marked behind its backlog (err %v)", err)
	}
	d, err := wire.ParseUDP(hosts[2].frames[0])
	if err != nil {
		t.Fatalf("c's flood copy unparseable (IP checksum): %v", err)
	}
	if wire.IsCE(d.IP.TOS) {
		t.Fatal("c's flood copy carries the CE mark b's link applied")
	}
	if links[2].Marked(1) != 0 {
		t.Fatalf("link c marked %d frames, want 0", links[2].Marked(1))
	}
	if &bCopy[0] == &hosts[2].frames[0][0] {
		t.Fatal("b and c received the same buffer")
	}
}
