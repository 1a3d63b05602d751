package fabric

import (
	"fmt"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/sim/shard"
)

// clos3Rig builds a 3-tier Clos: PodLeaves leaves per pod, 2 machines per
// leaf, nSpines spines per pod, nCores cores. Machines are recorders with
// MACs 1..n.
func clos3Rig(t *testing.T, machines, nSpines, nCores, podLeaves int, seed uint64) (*sim.Sim, *Topology, []*portRecorder, []*Link) {
	t.Helper()
	s := sim.New(1)
	topo := NewTopology(s, TopoSpec{
		Spines: nSpines, LeafPorts: 2,
		Cores: nCores, PodLeaves: podLeaves,
		Uplink: Net100G, ECMPSeed: seed,
	})
	hosts := make([]*portRecorder, machines)
	links := make([]*Link, machines)
	for i := range hosts {
		hosts[i] = &portRecorder{name: fmt.Sprint(i)}
		links[i] = NewLink(s, Net100G)
		topo.Attach(macN(byte(i+1)), links[i], hosts[i])
	}
	return s, topo, hosts, links
}

func TestTopoSpecValidate3Tier(t *testing.T) {
	cases := []struct {
		name string
		spec TopoSpec
		ok   bool
	}{
		{"good 3-tier", TopoSpec{Spines: 2, LeafPorts: 4, Cores: 2, PodLeaves: 2, Uplink: Net100G}, true},
		{"cores without pod size", TopoSpec{Spines: 2, LeafPorts: 4, Cores: 2, Uplink: Net100G}, false},
		{"pod size without cores", TopoSpec{Spines: 2, LeafPorts: 4, PodLeaves: 2, Uplink: Net100G}, false},
		{"negative cores", TopoSpec{Spines: 2, LeafPorts: 4, Cores: -1, Uplink: Net100G}, false},
		{"negative pod size", TopoSpec{Spines: 2, LeafPorts: 4, Cores: 2, PodLeaves: -2, Uplink: Net100G}, false},
		{"3-tier without spines", TopoSpec{LeafPorts: 4, Cores: 2, PodLeaves: 2, Uplink: Net100G}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestTopology3TierRoutesAcrossCores: with one leaf per pod, every
// cross-leaf frame is cross-pod and must climb leaf -> spine -> core ->
// spine -> leaf, without flooding anywhere.
func TestTopology3TierRoutesAcrossCores(t *testing.T) {
	s, topo, hosts, links := clos3Rig(t, 4, 2, 2, 1, 7)
	if topo.Pods() != 2 || len(topo.Spines) != 4 || len(topo.Cores) != 2 {
		t.Fatalf("shape: pods=%d spines=%d cores=%d", topo.Pods(), len(topo.Spines), len(topo.Cores))
	}
	// 0 -> 2 crosses pods; 0 -> 1 stays on leaf 0.
	links[0].Send(0, udpFrame(t, 1, 3, 10000, 9000))
	links[0].Send(0, udpFrame(t, 1, 2, 10001, 9000))
	s.Run()
	if len(hosts[2].frames) != 1 || len(hosts[1].frames) != 1 || len(hosts[3].frames) != 0 {
		t.Fatalf("delivery: b=%d c=%d d=%d", len(hosts[1].frames), len(hosts[2].frames), len(hosts[3].frames))
	}
	var coreECMP, flooded uint64
	for _, sw := range topo.Cores {
		coreECMP += sw.ECMPForwarded
		flooded += sw.Flooded
	}
	for _, sw := range append(append([]*Switch{}, topo.Leaves...), topo.Spines...) {
		flooded += sw.Flooded
	}
	if coreECMP != 1 {
		t.Errorf("cores ECMP-forwarded %d frames, want 1 (the cross-pod one)", coreECMP)
	}
	if flooded != 0 {
		t.Errorf("a statically programmed 3-tier fabric flooded %d frames", flooded)
	}
	// The cross-pod frame must traverse exactly two core links (up, down).
	var coreHops uint64
	for g := range topo.coreLinks {
		for c := range topo.coreLinks[g] {
			f0, _ := topo.CoreLink(g, c).Stats(0)
			f1, _ := topo.CoreLink(g, c).Stats(1)
			coreHops += f0 + f1
		}
	}
	if coreHops != 2 {
		t.Errorf("core tier carried %d link traversals, want 2", coreHops)
	}
}

// TestTopology3TierECMPBothTiers drives many distinct cross-pod flows and
// checks ECMP is active at both tiers: leaf uplinks to multiple pod
// spines, and spine uplinks to multiple cores, each flow sticking to one
// deterministic path.
func TestTopology3TierECMPBothTiers(t *testing.T) {
	run := func(seed uint64) ([]uint64, []uint64, int) {
		s, topo, hosts, links := clos3Rig(t, 4, 2, 2, 1, seed)
		for i := 0; i < 64; i++ {
			links[0].Send(0, udpFrame(t, 1, 3, uint16(10000+i*13), uint16(9000+i%5)))
		}
		s.Run()
		spineUse := topo.UplinkFrames()
		coreUse := make([]uint64, topo.Spec.Cores)
		for g := range topo.coreLinks {
			for c := range topo.coreLinks[g] {
				f0, _ := topo.CoreLink(g, c).Stats(0)
				f1, _ := topo.CoreLink(g, c).Stats(1)
				coreUse[c] += f0 + f1
			}
		}
		return spineUse, coreUse, len(hosts[2].frames)
	}
	spineUse, coreUse, delivered := run(11)
	if delivered != 64 {
		t.Fatalf("delivered %d of 64", delivered)
	}
	busySpines, busyCores := 0, 0
	for _, n := range spineUse[:2] { // pod 0's spines carry the up leg
		if n > 0 {
			busySpines++
		}
	}
	for _, n := range coreUse {
		if n > 0 {
			busyCores++
		}
	}
	if busySpines < 2 {
		t.Errorf("64 flows used %d of pod 0's spines; leaf-tier ECMP is not spreading", busySpines)
	}
	if busyCores < 2 {
		t.Errorf("64 flows used %d cores; spine-tier ECMP is not spreading", busyCores)
	}
	spineUse2, coreUse2, _ := run(11)
	for i := range spineUse {
		if spineUse[i] != spineUse2[i] {
			t.Fatalf("spine usage not reproducible: %v vs %v", spineUse, spineUse2)
		}
	}
	for i := range coreUse {
		if coreUse[i] != coreUse2[i] {
			t.Fatalf("core usage not reproducible: %v vs %v", coreUse, coreUse2)
		}
	}
}

// TestTopologyShardedMatchesSerial builds the same 3-tier fabric twice —
// serial, and sharded with one Sim per leaf plus a hub — injects the same
// frames, and demands byte-identical delivery sequences. This is the
// fabric-level slice of the repo determinism contract; the cluster layer
// pins the full-universe version.
func TestTopologyShardedMatchesSerial(t *testing.T) {
	type rec struct {
		host int
		at   sim.Time
		data byte
	}
	flows := func(send func(machine int, f []byte), frame func(src, dst byte, sp uint16) []byte) {
		for i := 0; i < 30; i++ {
			src := byte(1 + i%4)
			dst := byte(1 + (i+2)%4)
			send(int(src-1), frame(src, dst, uint16(10000+i*7)))
		}
	}
	spec := TopoSpec{
		Spines: 2, LeafPorts: 2,
		Cores: 2, PodLeaves: 1, Uplink: Net100G, ECMPSeed: 3,
	}

	// Logs are kept per host: a sharded run has no global delivery order
	// across shards (and a shared slice would be a data race), but each
	// host's own delivery sequence must match the serial run exactly.
	runSerial := func() [4][]rec {
		s := sim.New(1)
		topo := NewTopology(s, spec)
		var logs [4][]rec
		links := make([]*Link, 4)
		for i := 0; i < 4; i++ {
			i := i
			links[i] = NewLink(s, Net100G)
			topo.Attach(macN(byte(i+1)), links[i], framePortFunc(func(f []byte) {
				logs[i] = append(logs[i], rec{host: i, at: s.Now(), data: f[len(f)-1]})
			}))
		}
		flows(func(m int, f []byte) {

			s.At(sim.Time(m)*sim.Microsecond, "inject", func() { links[m].Send(0, f) })
		}, func(src, dst byte, sp uint16) []byte { return udpFrame(t, src, dst, sp, 9000) })
		s.RunUntil(sim.Millisecond)
		return logs
	}

	runSharded := func() [4][]rec {
		hub := sim.New(1)
		leafSims := []*sim.Sim{sim.New(1), sim.New(1)}
		x := shard.NewExecutor([]*sim.Sim{leafSims[0], leafSims[1], hub})
		topo := NewTopologySharded(hub, spec, func(l int) *sim.Sim { return leafSims[l] }, x)
		var logs [4][]rec
		links := make([]*Link, 4)
		for i := 0; i < 4; i++ {
			i := i
			ls := leafSims[i/2]
			links[i] = NewLink(ls, Net100G)
			topo.Attach(macN(byte(i+1)), links[i], framePortFunc(func(f []byte) {
				logs[i] = append(logs[i], rec{host: i, at: ls.Now(), data: f[len(f)-1]})
			}))
		}
		flows(func(m int, f []byte) {

			leafSims[m/2].At(sim.Time(m)*sim.Microsecond, "inject", func() { links[m].Send(0, f) })
		}, func(src, dst byte, sp uint16) []byte { return udpFrame(t, src, dst, sp, 9000) })
		x.RunUntil(sim.Millisecond)
		return logs
	}

	serial, sharded := runSerial(), runSharded()
	total := 0
	for h := range serial {
		total += len(serial[h])
		if len(serial[h]) != len(sharded[h]) {
			t.Fatalf("host %d: %d frames sharded vs %d serial", h, len(sharded[h]), len(serial[h]))
		}
		for i := range serial[h] {
			if serial[h][i] != sharded[h][i] {
				t.Fatalf("host %d delivery %d differs: serial %+v sharded %+v", h, i, serial[h][i], sharded[h][i])
			}
		}
	}
	if total == 0 {
		t.Fatal("serial run delivered nothing; test is vacuous")
	}
}

// framePortFunc adapts a func to FramePort.
type framePortFunc func([]byte)

func (f framePortFunc) DeliverFrame(frame []byte) { f(frame) }
