package experiments

import (
	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
)

// Options are the run options a Runner hands every experiment. The zero
// value runs each experiment exactly as it is declared.
type Options struct {
	// Shards > 1 partitions every spine-leaf universe into that many
	// shards under conservative time windows (0 = serial). Sharding is
	// an execution detail — tables are byte-identical either way — so
	// the option exists to re-run the suite sharded and diff the output
	// against a serial run.
	Shards int
	// Transport interposes a transport scheme on every machine endpoint
	// of a cluster universe whose spec leaves the scheme at
	// transport.Raw (lhbench -run e15 -transport credit). e21 and e22
	// sweep the transport matrix themselves and clear it.
	Transport transport.Kind
}

// build applies the options to sp, builds the universe, and registers
// every simulator — the per-shard Sims and the hub — with m, so sharded
// runs report the same total event counts a serial run does. Only
// spine-leaf universes can shard (partitioning follows leaf boundaries),
// so star and direct specs keep their shard count.
func (o Options) build(m *sim.Meter, sp cluster.Spec) *cluster.Universe {
	if sp.Fabric.Spines > 0 {
		sp.Shards = o.Shards
	}
	if sp.Transport == transport.Raw {
		sp.Transport = o.Transport
	}
	u := cluster.Build(sp)
	for _, s := range u.Sims {
		m.Observe(s)
	}
	return u
}
