package cluster

import (
	"fmt"
	"strings"
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// shardedSpec is a spine-leaf scenario big enough to split four ways:
// 4 clients and 4 hosts, two machines per leaf (clients fill leaves 0-1,
// hosts leaves 2-3).
func shardedSpec(shards int) Spec {
	sp := Spec{
		Seed: 99,
		Hosts: []HostSpec{
			echoHost("h0", Lauberhorn, 1, 1, 0, 9000, 500*sim.Nanosecond),
			echoHost("h1", Kernel, 1, 1, 10, 9100, 500*sim.Nanosecond),
			echoHost("h2", Bypass, 1, 1, 20, 9200, 500*sim.Nanosecond),
			echoHost("h3", Lauberhorn, 1, 1, 30, 9300, 500*sim.Nanosecond),
		},
		Fabric: FabricSpec{Spines: 2, LeafPorts: 2},
		Shards: shards,
	}
	for i := 0; i < 4; i++ {
		sp.Clients = append(sp.Clients, ClientSpec{
			Name: fmt.Sprint("c", i), Size: workload.FixedSize{N: 128},
			Arrivals: workload.RatePerSec(25_000),
			Targets:  []TargetSpec{{Host: fmt.Sprint("h", i), Service: uint32(i*10 + 1)}},
		})
	}
	return sp
}

// shardFingerprint runs a universe and reduces it to the counters the
// serial/sharded byte-identity contract pins.
func shardFingerprint(t *testing.T, sp Spec) string {
	t.Helper()
	u := Build(sp)
	if (sp.Shards > 1) != u.Sharded() {
		t.Fatalf("Shards=%d built Sharded()=%v", sp.Shards, u.Sharded())
	}
	u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
	var b strings.Builder
	for _, h := range u.Hosts {
		fmt.Fprintf(&b, "%s served=%d energy=%.6f\n", h.Spec.Name, h.MeasuredServed(), h.MeasuredEnergy())
	}
	for _, c := range u.Clients {
		fmt.Fprintf(&b, "%s sent=%d lat=%d p50=%d p99=%d\n", c.Spec.Name,
			c.MeasuredSent(), c.Gen.Latency.Count(),
			c.Gen.Latency.Percentile(0.5), c.Gen.Latency.Percentile(0.99))
	}
	fmt.Fprintf(&b, "dropped=%d fired=%d\n", u.DroppedFrames(), u.EventsFired())
	return b.String()
}

// TestShardedMatchesSerial is the cluster half of the determinism
// contract: the same Spec run serially and at several shard counts
// (including one that doesn't divide the leaf count, and one larger than
// it) must produce identical served/sent/latency/drop/event counters.
func TestShardedMatchesSerial(t *testing.T) {
	serial := shardFingerprint(t, shardedSpec(0))
	if !strings.Contains(serial, "served=") || strings.Contains(serial, "served=0 ") {
		t.Fatalf("serial run is vacuous:\n%s", serial)
	}
	for _, shards := range []int{2, 3, 4, 8} {
		if got := shardFingerprint(t, shardedSpec(shards)); got != serial {
			t.Errorf("Shards=%d diverges from serial:\nserial:\n%s\nsharded:\n%s", shards, serial, got)
		}
	}
}

// TestSharded3TierWithFaults covers the deeper shape: a 3-tier Clos
// (2 pods x 2 spines, 2 cores) under an uplink flap and a host access
// link cut, serial vs sharded.
func TestSharded3TierWithFaults(t *testing.T) {
	build := func(shards int) Spec {
		sp := shardedSpec(shards)
		sp.Fabric.Cores = 2
		sp.Fabric.PodLeaves = 2
		sp.Faults = []FaultSpec{
			{Kind: FaultLinkFlap, Leaf: 2, Spine: 0, At: 3 * sim.Millisecond,
				DownFor: sim.Millisecond, UpFor: sim.Millisecond, Cycles: 2},
			{Kind: FaultLinkDown, Machine: "h1", At: 4 * sim.Millisecond, Duration: 2 * sim.Millisecond},
		}
		return sp
	}
	serial := shardFingerprint(t, build(0))
	for _, shards := range []int{2, 4} {
		if got := shardFingerprint(t, build(shards)); got != serial {
			t.Errorf("3-tier Shards=%d diverges from serial:\nserial:\n%s\nsharded:\n%s", shards, serial, got)
		}
	}
}

// TestShardValidation pins the spec-level guard rails.
func TestShardValidation(t *testing.T) {
	star := shardedSpec(2)
	star.Fabric = FabricSpec{}
	if err := star.Validate(); err == nil || !strings.Contains(err.Error(), "spine-leaf") {
		t.Errorf("sharded star accepted: %v", err)
	}

	neg := shardedSpec(2)
	neg.Shards = -1
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "negative shard") {
		t.Errorf("negative shards accepted: %v", err)
	}

	inherit := shardedSpec(2)
	inherit.Clients[0].InheritRNG = true
	if err := inherit.Validate(); err == nil || !strings.Contains(err.Error(), "InheritRNG") {
		t.Errorf("InheritRNG under sharding accepted: %v", err)
	}
	inherit.Shards = 0
	if err := inherit.Validate(); err != nil {
		t.Errorf("InheritRNG without sharding rejected: %v", err)
	}

	// Bandwidth without propagation or switching delay is legal serially
	// but un-shardable: the conservative window would be empty.
	lookahead := shardedSpec(2)
	lookahead.Net = fabric.NetParams{Bandwidth: 12.5}
	if err := lookahead.Validate(); err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Errorf("zero-lookahead sharding accepted: %v", err)
	}
}

// TestFramePoolCycles pins the frame-recycling satellite at the cluster
// level: in a routed fabric every client draws request frames from its
// shard's pool and returns consumed responses, so after a steady-state
// run the pools show hits, and buffers migrated from host-built
// responses keep the free lists fed.
func TestFramePoolCycles(t *testing.T) {
	for _, shards := range []int{0, 4} {
		u := Build(shardedSpec(shards))
		u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
		var gets, hits, puts uint64
		for _, s := range u.Sims {
			p := u.FramePool(s)
			if p == nil {
				t.Fatalf("shards=%d: routed fabric without frame pools", shards)
			}
			gets += p.Gets
			hits += p.Hits
			puts += p.Puts
		}
		if gets == 0 || puts == 0 || hits == 0 {
			t.Errorf("shards=%d: pools idle (gets=%d hits=%d puts=%d)", shards, gets, hits, puts)
		}
		if hits*2 < gets {
			t.Errorf("shards=%d: steady-state hit rate %d/%d below half", shards, hits, gets)
		}
	}
	// The learning-switch star replicates floods per port, so its pool
	// cycles too.
	star := shardedSpec(0)
	star.Fabric = FabricSpec{}
	us := Build(star)
	us.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
	p := us.FramePool(us.S)
	if p == nil {
		t.Fatal("learning-switch universe without a frame pool")
	}
	if p.Hits == 0 || p.Hits*2 < p.Gets {
		t.Errorf("learning-switch pool hit rate %d/%d below half", p.Hits, p.Gets)
	}
}

// TestAutoEndpointsWide pins the two-byte auto-addressing: the first 254
// machines keep their historical addresses, and 1500 of each class get
// distinct MACs and IPs with no host/client collision.
func TestAutoEndpointsWide(t *testing.T) {
	if got, want := autoHostEP(0), (wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 1, 1}, IP: wire.IP{10, 0, 1, 1}}); got != want {
		t.Fatalf("autoHostEP(0) = %+v, want %+v", got, want)
	}
	if got, want := autoClientEP(253), (wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 2, 254}, IP: wire.IP{10, 0, 2, 254}}); got != want {
		t.Fatalf("autoClientEP(253) = %+v, want %+v", got, want)
	}
	macs := make(map[wire.MAC]bool)
	ips := make(map[wire.IP]bool)
	for i := 0; i < 1500; i++ {
		for _, ep := range []wire.Endpoint{autoHostEP(i), autoClientEP(i)} {
			if macs[ep.MAC] || ips[ep.IP] {
				t.Fatalf("auto endpoint collision at index %d: %+v", i, ep)
			}
			macs[ep.MAC] = true
			ips[ep.IP] = true
			if ep.IP[3] == 0 {
				t.Fatalf("index %d produced a .0 address: %+v", i, ep)
			}
		}
	}
}
