package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

// The e20 universe is the sharded executor's fixture, not a paper
// experiment: TestE20Claims pins that it computes the same results
// serially and at every shard count, and lhbench -bench's sharding
// section times what those identical runs cost.
//
// Its shape: 16 Lauberhorn servers and 16 clients paired one-to-one
// across a small 3-tier Clos (8 leaves in 4 pods of 2, 2 spines per pod,
// 2 cores), 64 B echo at 20 krps per client. Clients fill the low
// leaves and servers the high ones, so every request crosses at least a
// spine and usually the core tier — the partitioned links are on the
// hot path, not decoration.
const (
	e20Hosts = 16
	e20Rate  = 20_000
)

// E20ShardCounts returns the execution modes the fixture is run in:
// serial (0), then 2/4/8 shards — 8 equals the leaf count, one leaf per
// shard. A fresh slice per call keeps it read-only for concurrent
// callers.
func E20ShardCounts() []int { return []int{0, 2, 4, 8} }

// E20Spec declares the e20 universe at a given shard count, always
// without a transport. Exported because lhbench's -bench mode rebuilds
// exactly this universe per shard count to time it: TestE20Claims pins
// that the *results* are identical, and the BENCH_sim.json sharding
// section records what the identical runs *cost* (the one number that
// may legitimately differ — it depends on host cores, so it stays out of
// stdout).
func E20Spec(shards int) cluster.Spec {
	sp := cluster.Spec{
		Seed: 20,
		Fabric: cluster.FabricSpec{
			Spines:    2,
			LeafPorts: 4,
			Cores:     2,
			PodLeaves: 2,
		},
		Shards: shards,
	}
	for i := 0; i < e20Hosts; i++ {
		sp.Hosts = append(sp.Hosts, cluster.HostSpec{
			Name: fmt.Sprintf("srv%d", i), Stack: cluster.Lauberhorn, Cores: 1,
			Services: []cluster.ServiceSpec{
				{ID: uint32(i + 1), Port: 9000 + uint16(i), Time: sim.Microsecond},
			},
		})
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Size:     workload.FixedSize{N: fig2Body},
			Arrivals: workload.RatePerSec(e20Rate),
		})
	}
	return sp
}

// E20Window is the shared warm-up/measure window; lhbench's sharding
// bench reuses it so the universes it times are exactly the pinned ones.
func E20Window() (warm, dur sim.Time) { return 2 * sim.Millisecond, 10 * sim.Millisecond }
