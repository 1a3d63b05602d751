package experiments

import (
	"fmt"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/workload"
)

// e24 rig shape: 4 clients fan into a 2-core front service which —
// depending on the row — answers directly, calls through a three-deep
// chain, or fans out to two mid-tier services before responding. All
// shapes run the identical machine set and offered load, so the table
// isolates what the *call graph* does to the client-observed tail: every
// nested hop adds its own service time, network round trip, and queueing
// noise on the root's critical path, and the root cannot respond before
// its slowest child — the classic tail-at-scale amplification.
const (
	e24Clients = 4
	e24Rate    = 10_000
	e24Body    = 64
)

// e24Shapes lists the call-graph rows in presentation order. The first
// row is the no-DAG baseline the amplification column is relative to.
var e24Shapes = []string{"direct", "chain3", "fanout-loose", "fanout-tight"}

// e24Budget is the generous per-edge latency budget no well-behaved
// call should violate.
const e24Budget = 100 * sim.Microsecond

// e24TightBudget is an impossible front->mid budget: it clears spec
// validation (it covers mid's 1 us service time) but sits below any
// achievable round trip once the fabric's propagation and switching
// delays are added, so every call on that edge counts as a violation.
const e24TightBudget = 2 * sim.Microsecond

// E24DAG runs each call-graph shape as its own universe and reports the
// root latency ladder plus the per-edge accounting: nested shapes
// amplify the no-DAG baseline's p99, the loose budgets never trip, and
// the tight row shows the budget machinery catching an edge whose
// round trip cannot meet its contract.
func E24DAG(m *sim.Meter, o Options) *stats.Table {
	t := stats.NewTable("E24 — service dependency DAGs: call-graph shape vs root tail (4 clients, 2-spine Clos)",
		"shape", "completed", "served", "p50 (us)", "p99 (us)", "p99 amp", "edge calls", "violations")
	var basep99 float64
	for _, shape := range e24Shapes {
		u := o.build(m, e24Spec(24, shape))
		u.RunMeasured(2*sim.Millisecond, 10*sim.Millisecond)
		lat := u.MergedLatency()
		p := lat.Percentiles(0.5, 0.99)
		if shape == "direct" {
			basep99 = float64(p[1])
		}
		t.AddRow(shape, lat.Count(), u.TotalMeasuredServed(),
			sim.Time(p[0]).Microseconds(), sim.Time(p[1]).Microseconds(),
			fmt.Sprintf("%.1fx", float64(p[1])/basep99),
			u.DAGCalls(), u.DAGViolations())
	}
	t.AddNote("direct: front answers alone; chain3: front->mid0->back; fanout: front calls mid0 then mid1")
	t.AddNote("p99 amp is relative to the direct row — every hop a shape adds lands on the root's critical path")
	t.AddNote("fanout-tight puts a 2 us budget on front->mid0, below any achievable round trip: the violation")
	t.AddNote("counter flags the broken contract while the loose rows stay at zero")
	return t
}

// e24Spec declares one shape's universe: the machine set, clients, and
// offered load are identical across shapes — only the DAG differs.
func e24Spec(seed uint64, shape string) cluster.Spec {
	sp := cluster.Spec{
		Seed: seed,
		Fabric: cluster.FabricSpec{
			Spines:    2,
			LeafPorts: 4,
		},
		Hosts: []cluster.HostSpec{
			{Name: "front", Stack: cluster.Lauberhorn, Cores: 2,
				Services: []cluster.ServiceSpec{{ID: 1, Port: 9000, Time: 500 * sim.Nanosecond}}},
			{Name: "mid0", Stack: cluster.Lauberhorn, Cores: 1,
				Services: []cluster.ServiceSpec{{ID: 2, Port: 9001, Time: sim.Microsecond}}},
			{Name: "mid1", Stack: cluster.Lauberhorn, Cores: 1,
				Services: []cluster.ServiceSpec{{ID: 3, Port: 9002, Time: sim.Microsecond}}},
			{Name: "back", Stack: cluster.Lauberhorn, Cores: 1,
				Services: []cluster.ServiceSpec{{ID: 4, Port: 9003, Time: 2 * sim.Microsecond}}},
		},
	}
	for i := 0; i < e24Clients; i++ {
		sp.Clients = append(sp.Clients, cluster.ClientSpec{
			Name:     fmt.Sprintf("cli%d", i),
			Size:     workload.FixedSize{N: e24Body},
			Arrivals: workload.Poisson{Mean: sim.Time(float64(sim.Second) / e24Rate)},
			Targets:  []cluster.TargetSpec{{Host: "front", Service: 1}},
		})
	}
	switch shape {
	case "direct":
		// No DAG: front's plain echo service is the baseline.
	case "chain3":
		sp.DAG = &workload.DAG{Nodes: []workload.DAGNode{
			{Name: "front", Host: "front", Service: 1,
				Edges: []workload.DAGEdge{{To: 1, Budget: e24Budget}}},
			{Name: "mid0", Host: "mid0", Service: 2,
				Edges: []workload.DAGEdge{{To: 2, Budget: e24Budget}}},
			{Name: "back", Host: "back", Service: 4},
		}}
	case "fanout-loose", "fanout-tight":
		first := e24Budget
		if shape == "fanout-tight" {
			first = e24TightBudget
		}
		sp.DAG = &workload.DAG{Nodes: []workload.DAGNode{
			{Name: "front", Host: "front", Service: 1,
				Edges: []workload.DAGEdge{{To: 1, Budget: first}, {To: 2, Budget: e24Budget}}},
			{Name: "mid0", Host: "mid0", Service: 2},
			{Name: "mid1", Host: "mid1", Service: 3},
		}}
	default:
		panic("e24: unknown shape " + shape)
	}
	return sp
}
