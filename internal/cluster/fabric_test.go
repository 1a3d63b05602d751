package cluster

import (
	"strings"
	"testing"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

// spineLeafSpec is a 2x2 spine-leaf universe: two clients on leaf 0,
// two servers on leaf 1.
func spineLeafSpec(seed uint64, faults ...FaultSpec) Spec {
	return Spec{
		Seed:   seed,
		Fabric: FabricSpec{Spines: 2, LeafPorts: 2},
		Faults: faults,
		Hosts: []HostSpec{
			{Name: "s0", Stack: Lauberhorn, Cores: 2,
				Services: []ServiceSpec{{ID: 1, Port: 9000, Time: sim.Microsecond}}},
			{Name: "s1", Stack: Kernel, Cores: 2,
				Services: []ServiceSpec{{ID: 2, Port: 9001, Time: sim.Microsecond}}},
		},
		Clients: []ClientSpec{
			{Name: "c0", Size: workload.FixedSize{N: 64}, Arrivals: workload.RatePerSec(20_000)},
			{Name: "c1", Size: workload.FixedSize{N: 64}, Arrivals: workload.RatePerSec(20_000)},
		},
	}
}

func TestSpineLeafUniverseServes(t *testing.T) {
	u := Build(spineLeafSpec(7))
	if u.Switch != nil {
		t.Fatal("multi-tier universe still built the star switch")
	}
	if u.Topo == nil {
		t.Fatal("no topology")
	}
	u.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)
	if u.TotalMeasuredServed() == 0 {
		t.Fatal("nothing served across the fabric")
	}
	if u.Hosts[0].Leaf != 1 || u.Hosts[1].Leaf != 1 || u.Clients[0].Leaf != 0 {
		t.Fatalf("leaf placement: hosts %d/%d clients %d",
			u.Hosts[0].Leaf, u.Hosts[1].Leaf, u.Clients[0].Leaf)
	}
	// Both spines must carry traffic: the seeded flow hash spreads 256
	// source ports per client.
	for sp, n := range u.Topo.UplinkFrames() {
		if n == 0 {
			t.Errorf("spine %d carried nothing", sp)
		}
	}
	if u.DroppedFrames() != 0 {
		t.Errorf("healthy fabric dropped %d frames", u.DroppedFrames())
	}
}

func TestSpineLeafDeterministicAcrossBuilds(t *testing.T) {
	run := func() (uint64, string) {
		u := Build(spineLeafSpec(7))
		u.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)
		return u.TotalMeasuredServed(), u.MergedLatency().Summary(float64(sim.Microsecond), "us")
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 || l1 != l2 {
		t.Fatalf("two builds diverged: %d/%d %q vs %q", s1, s2, l1, l2)
	}
}

func TestFaultedUniverseServesLess(t *testing.T) {
	steady := Build(spineLeafSpec(7))
	steady.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)

	// Cut the server leaf's spine-0 uplink for 10ms of the 20ms window:
	// the client leaf keeps hashing onto spine 0 and those requests
	// blackhole.
	cut := Build(spineLeafSpec(7, FaultSpec{
		Kind: FaultLinkDown, Leaf: 1, Spine: 0,
		At: 8 * sim.Millisecond, Duration: 10 * sim.Millisecond,
	}))
	cut.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)

	if cut.TotalMeasuredServed() >= steady.TotalMeasuredServed() {
		t.Fatalf("cut universe served %d, steady %d — no dip",
			cut.TotalMeasuredServed(), steady.TotalMeasuredServed())
	}
	if cut.DroppedFrames() == 0 {
		t.Fatal("cut universe reports no drops")
	}
}

func TestDrainFaultStarvesLeaf(t *testing.T) {
	u := Build(spineLeafSpec(7, FaultSpec{
		Kind: FaultDrain, Leaf: 1, At: 1 * sim.Millisecond, // server leaf, forever
	}))
	u.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)
	if u.TotalMeasuredServed() != 0 {
		t.Fatalf("drained server leaf still served %d", u.TotalMeasuredServed())
	}
	if u.Topo.Leaves[1].Dropped == 0 {
		t.Fatal("drained switch counted no drops")
	}
}

func TestMachineLinkFaultTarget(t *testing.T) {
	u := Build(spineLeafSpec(7, FaultSpec{
		Kind: FaultLinkDown, Machine: "c1", At: 1 * sim.Millisecond,
	}))
	u.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)
	// c1's requests die on its access link from 1ms on; c0 is unaffected.
	if u.Clients[0].Gen.Received == 0 {
		t.Fatal("c0 starved by c1's fault")
	}
	if u.AccessLink("c1").DroppedTotal() == 0 {
		t.Fatal("c1's access link counted no drops")
	}
}

func TestFabricSpecValidation(t *testing.T) {
	base := spineLeafSpec(7)
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"leafports without tiers", func(s *Spec) { s.Fabric = FabricSpec{LeafPorts: 4} },
			"no Spines"},
		{"no leaf ports", func(s *Spec) { s.Fabric.LeafPorts = 0 }, "LeafPorts"},
		{"direct with fabric", func(s *Spec) {
			s.Hosts = s.Hosts[:1]
			s.Clients = s.Clients[:1]
			s.Direct = true
		}, "Direct topology cannot carry"},
		{"unknown fault machine", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDown, Machine: "nope"}}
		}, "unknown machine"},
		{"uplink out of range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDown, Leaf: 9, Spine: 0}}
		}, "targets uplink"},
		{"spine out of range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDown, Leaf: 0, Spine: 5}}
		}, "targets uplink"},
		{"bad flap", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkFlap, Leaf: 0, Spine: 0}}
		}, "flap needs"},
		{"negative flap up", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkFlap, Leaf: 0, Spine: 0,
				At: 15 * sim.Millisecond, DownFor: sim.Millisecond, UpFor: -sim.Millisecond, Cycles: 2}}
		}, "flap needs"},
		{"drain out of range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultDrain, Leaf: 7}}
		}, "drains switch"},
		{"drain missing spine", func(s *Spec) {
			s.Fabric = FabricSpec{}
			s.Faults = []FaultSpec{{Kind: FaultDrain, Leaf: -1, Spine: 0}}
		}, "no"},
		{"negative time", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDown, Machine: "c0", At: -1}}
		}, "negative time"},
	}
	for _, c := range cases {
		sp := base
		sp.Hosts = append([]HostSpec(nil), base.Hosts...)
		sp.Clients = append([]ClientSpec(nil), base.Clients...)
		c.mut(&sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestStarFaultsStillWork pins fault targeting in the legacy
// single-switch fabric: machine access links and a leaf-0 drain.
func TestStarFaultsStillWork(t *testing.T) {
	sp := spineLeafSpec(7, FaultSpec{Kind: FaultDrain, Leaf: 0, At: sim.Millisecond})
	sp.Fabric = FabricSpec{}
	u := Build(sp)
	u.RunMeasured(5*sim.Millisecond, 20*sim.Millisecond)
	if u.TotalMeasuredServed() != 0 {
		t.Fatalf("drained star switch still served %d", u.TotalMeasuredServed())
	}
	if u.Switch.Dropped == 0 {
		t.Fatal("star switch counted no drops")
	}
}
