package fabric

import (
	"fmt"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// udpFrame builds a real IPv4/UDP frame so ECMP hashing sees the 5-tuple
// it hashes in production.
func udpFrame(t testing.TB, srcMAC, dstMAC byte, srcPort, dstPort uint16) []byte {
	t.Helper()
	src := wire.Endpoint{MAC: macN(srcMAC), IP: wire.IP{10, 0, 0, srcMAC}, Port: srcPort}
	dst := wire.Endpoint{MAC: macN(dstMAC), IP: wire.IP{10, 0, 0, dstMAC}, Port: dstPort}
	f, err := wire.BuildUDP(src, dst, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// spineLeafRig builds a 2-leaf/nSpines fabric with two machines per
// leaf: recorders a,b on leaf 0 and c,d on leaf 1 (MACs 1..4).
func spineLeafRig(t *testing.T, nSpines int, seed uint64) (*sim.Sim, *Topology, [4]*portRecorder, [4]*Link) {
	t.Helper()
	s := sim.New(1)
	topo := NewTopology(s, TopoSpec{
		Spines: nSpines, LeafPorts: 2,
		Uplink: Net100G, ECMPSeed: seed,
	})
	var hosts [4]*portRecorder
	var links [4]*Link
	for i := 0; i < 4; i++ {
		hosts[i] = &portRecorder{name: string(rune('a' + i))}
		links[i] = NewLink(s, Net100G)
		leaf := topo.Attach(macN(byte(i+1)), links[i], hosts[i])
		if want := i / 2; leaf != want {
			t.Fatalf("machine %d landed on leaf %d, want %d", i, leaf, want)
		}
	}
	return s, topo, hosts, links
}

func TestTopologySpineLeafRoutesWithoutFlooding(t *testing.T) {
	s, topo, hosts, links := spineLeafRig(t, 2, 7)
	// a -> c crosses the spine tier; a -> b stays on leaf 0.
	links[0].Send(0, udpFrame(t, 1, 3, 10000, 9000))
	links[0].Send(0, udpFrame(t, 1, 2, 10001, 9000))
	s.Run()
	if len(hosts[2].frames) != 1 || len(hosts[1].frames) != 1 {
		t.Fatalf("delivery: b=%d c=%d", len(hosts[1].frames), len(hosts[2].frames))
	}
	if len(hosts[3].frames) != 0 {
		t.Fatal("frame leaked to an uninvolved machine")
	}
	for _, sw := range append(append([]*Switch{}, topo.Leaves...), topo.Spines...) {
		if sw.Flooded != 0 {
			t.Fatalf("a statically programmed fabric flooded: %v", sw)
		}
	}
	if topo.Leaves[0].ECMPForwarded != 1 {
		t.Errorf("leaf0 ECMP-forwarded %d frames, want 1 (the cross-leaf one)", topo.Leaves[0].ECMPForwarded)
	}
	if topo.Leaves[0].Forwarded != 1 {
		t.Errorf("leaf0 locally forwarded %d frames, want 1 (the intra-leaf one)", topo.Leaves[0].Forwarded)
	}
}

// TestECMPDeterministicPerFlow is the property test the determinism
// story rests on: for any flow 5-tuple, two identically-specified
// fabrics pick the same spine, repeats of the flow stick to that spine,
// and the ensemble still spreads across spines. A different ECMP seed
// must move at least some flows.
func TestECMPDeterministicPerFlow(t *testing.T) {
	pickSpine := func(seed uint64, srcPort, dstPort uint16) int {
		s, topo, _, links := spineLeafRig(t, 4, seed)
		links[0].Send(0, udpFrame(t, 1, 3, srcPort, dstPort))
		s.Run()
		frames := topo.UplinkFrames()
		spine := -1
		for sp, n := range frames {
			if n != 0 {
				if spine >= 0 {
					t.Fatalf("one flow used two spines: %v", frames)
				}
				spine = sp
			}
		}
		if spine < 0 {
			t.Fatal("flow crossed no spine")
		}
		return spine
	}

	used := make(map[int]bool)
	moved := false
	for i := 0; i < 40; i++ {
		srcPort := uint16(10000 + i*13)
		dstPort := uint16(9000 + i%7)
		a := pickSpine(42, srcPort, dstPort)
		b := pickSpine(42, srcPort, dstPort)
		if a != b {
			t.Fatalf("flow %d: same spec picked spine %d then %d", i, a, b)
		}
		used[a] = true
		if pickSpine(1042, srcPort, dstPort) != a {
			moved = true
		}
	}
	if len(used) < 2 {
		t.Errorf("40 distinct flows all hashed to one spine: no spread")
	}
	if !moved {
		t.Errorf("changing the ECMP seed moved no flow")
	}
}

// TestECMPRepeatsStickToOnePath sends one flow many times and demands a
// single uplink carried all of it.
func TestECMPRepeatsStickToOnePath(t *testing.T) {
	s, topo, hosts, links := spineLeafRig(t, 4, 9)
	for i := 0; i < 32; i++ {
		links[0].Send(0, udpFrame(t, 1, 4, 12345, 9000))
	}
	s.Run()
	if len(hosts[3].frames) != 32 {
		t.Fatalf("delivered %d of 32", len(hosts[3].frames))
	}
	busy := 0
	for _, n := range topo.UplinkFrames() {
		if n > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("one flow spread over %d spines", busy)
	}
}

// TestECMPReroutesAroundDownLink downs the uplink a flow uses and
// demands the flow deterministically lands on a survivor, then returns
// when the link comes back.
func TestECMPReroutesAroundDownLink(t *testing.T) {
	s, topo, hosts, links := spineLeafRig(t, 2, 9)
	send := func() {
		links[0].Send(0, udpFrame(t, 1, 3, 11111, 9000))
		s.Run()
	}
	send()
	before := topo.UplinkFrames()
	spine := 0
	if before[1] > 0 {
		spine = 1
	}
	topo.Uplink(0, spine).SetUp(false)
	send()
	after := topo.UplinkFrames()
	if after[1-spine] == before[1-spine] {
		t.Fatal("flow did not move to the surviving spine")
	}
	topo.Uplink(0, spine).SetUp(true)
	send()
	final := topo.UplinkFrames()
	if final[spine] <= after[spine] {
		t.Fatal("flow did not return to its home spine after recovery")
	}
	if len(hosts[2].frames) != 3 {
		t.Fatalf("delivered %d of 3", len(hosts[2].frames))
	}
}

// TestSpineLeafBlackholesRemoteCut pins the partial-partition behavior
// e19 builds on: when the *destination* leaf's uplink dies, the source
// leaf keeps hashing onto both spines and the dead spine's frames drop.
func TestSpineLeafBlackholesRemoteCut(t *testing.T) {
	s, topo, hosts, links := spineLeafRig(t, 2, 9)
	topo.Uplink(1, 0).SetUp(false) // destination leaf loses spine 0
	delivered, dropped := 0, 0
	for i := 0; i < 64; i++ {
		links[0].Send(0, udpFrame(t, 1, 3, uint16(10000+i), 9000))
	}
	s.Run()
	delivered = len(hosts[2].frames)
	dropped = int(topo.Uplink(1, 0).DroppedTotal())
	if delivered+dropped != 64 {
		t.Fatalf("delivered %d + dropped %d != 64", delivered, dropped)
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("expected a partial blackhole, got delivered=%d dropped=%d", delivered, dropped)
	}
	if topo.Dropped() != uint64(dropped) {
		t.Errorf("topology drop accounting %d != link drops %d", topo.Dropped(), dropped)
	}
}

// TestECMPMinimalDisruption pins the rendezvous-hashing property at a
// spine count where modulo hashing would fail: taking one uplink down
// must remap only the flows that were on it, and every other flow must
// keep its port.
func TestECMPMinimalDisruption(t *testing.T) {
	s := sim.New(1)
	topo := NewTopology(s, TopoSpec{
		Spines: 3, LeafPorts: 1, Uplink: Net100G, ECMPSeed: 5,
	})
	link := NewLink(s, Net100G)
	topo.Attach(macN(1), link, &portRecorder{})
	leaf := topo.Leaves[0]
	access := 3 // ports 0..2 are the uplinks, 3 is the machine

	flows := make([][]byte, 120)
	before := make([]int, len(flows))
	for i := range flows {
		flows[i] = udpFrame(t, 1, 9, uint16(10000+i*7), uint16(9000+i%5))
		before[i] = leaf.ecmpPick(access, flows[i])
	}
	victim := before[0]
	topo.Uplink(0, victim).SetUp(false)
	moved := 0
	for i, f := range flows {
		after := leaf.ecmpPick(access, f)
		if before[i] != victim {
			if after != before[i] {
				t.Fatalf("flow %d moved %d -> %d though its uplink never failed", i, before[i], after)
			}
			continue
		}
		moved++
		if after == victim {
			t.Fatalf("flow %d stayed on the dead uplink", i)
		}
	}
	if moved == 0 {
		t.Fatal("no flow was on the victim uplink; test is vacuous")
	}
	topo.Uplink(0, victim).SetUp(true)
	for i, f := range flows {
		if leaf.ecmpPick(access, f) != before[i] {
			t.Fatalf("flow %d did not return home after recovery", i)
		}
	}
}

func TestTopoSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec TopoSpec
		ok   bool
	}{
		{"good spine-leaf", TopoSpec{Spines: 2, LeafPorts: 4, Uplink: Net100G}, true},
		{"no leaf ports", TopoSpec{Spines: 2, Uplink: Net100G}, false},
		{"no spines", TopoSpec{LeafPorts: 2, Uplink: Net100G}, false},
		{"no uplink bw", TopoSpec{Spines: 2, LeafPorts: 2}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestTopologyGrowsLeavesOnDemand attaches 9 machines at 4 per leaf and
// expects 3 leaves, each fully wired to every spine.
func TestTopologyGrowsLeavesOnDemand(t *testing.T) {
	s := sim.New(1)
	topo := NewTopology(s, TopoSpec{Spines: 3, LeafPorts: 4, Uplink: Net100G})
	for i := 0; i < 9; i++ {
		topo.Attach(macN(byte(i+1)), NewLink(s, Net100G), &portRecorder{name: fmt.Sprint(i)})
	}
	if len(topo.Leaves) != 3 {
		t.Fatalf("%d leaves, want 3", len(topo.Leaves))
	}
	for sp, spine := range topo.Spines {
		// 3 leaves x 1 port each.
		if spine.NumPorts() != 3 {
			t.Errorf("spine %d has %d ports, want 3", sp, spine.NumPorts())
		}
	}
	if topo.Attached() != 9 {
		t.Errorf("Attached() = %d", topo.Attached())
	}
}
