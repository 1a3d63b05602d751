package experiments

import (
	"fmt"
	"testing"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
)

// TestE18Claims checks the spine-leaf scaling table: rows per stack and
// scale, everything serves, aggregate served grows with scale, and the
// seeded ECMP hash keeps the spines within 25% of each other at every
// rung.
func TestE18Claims(t *testing.T) {
	tb := E18SpineLeaf(nil, Options{})
	scales := E18Scales()
	if len(tb.Rows) != 3*len(scales) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	n := len(scales)
	for s := 0; s < 3; s++ {
		for i := 0; i < n; i++ {
			r := s*n + i
			if get(r, 6) == 0 {
				t.Errorf("row %d served nothing", r)
			}
			if spread := get(r, 7); spread > 1.25 {
				t.Errorf("row %d ECMP spread %.2f > 1.25", r, spread)
			}
			if get(r, 8) <= 0 {
				t.Errorf("row %d reports no peak link backlog", r)
			}
			if i > 0 && get(r, 6) <= get(r-1, 6) {
				t.Errorf("stack %s: served did not grow with scale (%v -> %v)",
					tb.Rows[r][0], get(r-1, 6), get(r, 6))
			}
		}
	}
	// The top rung really is a >= 32-host (64-machine) universe.
	if got := get(n-1, 2); got < 64 {
		t.Errorf("top rung has %v machines, want >= 64", got)
	}
	t.Logf("\n%s", tb)
}

// TestE19Claims checks the fault-injection table: per stack, the flap
// run must stretch the p99 tail, complete fewer RPCs than it served
// (blackholed responses = wasted server work), and report network
// drops, while the steady run drops nothing.
func TestE19Claims(t *testing.T) {
	tb := E19Faults(nil, Options{})
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	for s := 0; s < 3; s++ {
		steady, flap := 2*s, 2*s+1
		name := tb.Rows[steady][0]
		if get(steady, 7) != 0 {
			t.Errorf("%s steady dropped %v frames", name, get(steady, 7))
		}
		if get(flap, 7) == 0 {
			t.Errorf("%s flap dropped nothing", name)
		}
		if get(flap, 3) < 1.3*get(steady, 3) {
			t.Errorf("%s flap p99 %v not well above steady %v", name, get(flap, 3), get(steady, 3))
		}
		if get(flap, 4) >= get(steady, 4) {
			t.Errorf("%s flap completed %v, steady %v — no dip", name, get(flap, 4), get(steady, 4))
		}
		if get(flap, 4) >= get(flap, 5) {
			t.Errorf("%s flap completed %v >= served %v — no wasted work visible",
				name, get(flap, 4), get(flap, 5))
		}
		if get(flap, 8) <= get(steady, 8) {
			t.Errorf("%s flap peak backlog %v not above steady %v — rerouted flows never queued",
				name, get(flap, 8), get(steady, 8))
		}
	}
	t.Logf("\n%s", tb)
}

// TestE18ThreeTierClaims checks the 3-tier ladder: one row per rung,
// everything serves and grows with scale, the top rung really is a
// 1024-machine universe, and ECMP keeps all pods' spines loaded (this
// pins the per-pod spine accounting in Topology.UplinkFrames, which
// once credited every pod's frames to pod 0).
func TestE18ThreeTierClaims(t *testing.T) {
	tb := E18ThreeTier(nil, Options{})
	scales := E18ThreeTierScales()
	if len(tb.Rows) != len(scales) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	for i := range scales {
		if get(i, 7) == 0 {
			t.Errorf("rung %d served nothing", i)
		}
		if i > 0 && get(i, 7) <= get(i-1, 7) {
			t.Errorf("served did not grow with scale (%v -> %v)", get(i-1, 7), get(i, 7))
		}
		if get(i, 2) == 0 || get(i, 3) == 0 {
			t.Errorf("rung %d reports no pods/spines", i)
		}
		if spread := get(i, 8); spread > 1.6 {
			t.Errorf("rung %d ECMP spread %.2f > 1.6 (an idle spine renders as inf)", i, spread)
		}
	}
	if got := get(len(scales)-1, 1); got < 1024 {
		t.Errorf("top rung has %v machines, want >= 1024", got)
	}
	t.Logf("\n%s", tb)
}

// TestE20Claims pins the sharded-execution equivalence table: one row
// per execution mode, the sims column showing real partitioning
// (shards + hub), and every results column byte-identical down the
// table — the cross-simulator determinism contract rendered as data.
func TestE20Claims(t *testing.T) {
	tb := e20Table()
	counts := E20ShardCounts()
	if len(tb.Rows) != len(counts) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if tb.Rows[0][0] != "serial" || tb.Rows[0][1] != "1" {
		t.Fatalf("serial row malformed: %v", tb.Rows[0])
	}
	for i, shards := range counts[1:] {
		r := tb.Rows[i+1]
		if r[0] != fmt.Sprint(shards) || r[1] != fmt.Sprint(shards+1) {
			t.Errorf("row %d: shards/sims = %s/%s, want %d/%d", i+1, r[0], r[1], shards, shards+1)
		}
	}
	var v float64
	if _, err := sscan(tb.Rows[0][4], &v); err != nil || v == 0 {
		t.Fatalf("serial row served %q", tb.Rows[0][4])
	}
	for r := 1; r < len(tb.Rows); r++ {
		for c := 2; c < len(tb.Rows[0]); c++ {
			if tb.Rows[r][c] != tb.Rows[0][c] {
				t.Errorf("row %d col %d: %q differs from serial %q", r, c, tb.Rows[r][c], tb.Rows[0][c])
			}
		}
	}
	t.Logf("\n%s", tb)
}

// e20Table runs the E20Spec universe serially and at each of
// E20ShardCounts, one row per mode. Every column except "shards" and
// "sims" must be identical down the table: partitioning a universe
// across simulators under conservative time windows changes where events
// execute, never what they compute.
func e20Table() *stats.Table {
	t := stats.NewTable("E20 — sharded execution equivalence: one universe, serial vs 2/4/8 shards (16x16 machines, 3-tier Clos)",
		"shards", "sims", "events fired", "sent", "served", "completed", "p50 (us)", "p99 (us)", "net drops")
	for _, shards := range E20ShardCounts() {
		u := cluster.Build(E20Spec(shards))
		u.RunMeasured(E20Window())
		lat := u.MergedLatency()
		p := lat.Percentiles(0.5, 0.99)
		label := "serial"
		if shards > 0 {
			label = fmt.Sprint(shards)
		}
		t.AddRow(label, len(u.Sims), u.EventsFired(),
			u.TotalMeasuredSent(), u.TotalMeasuredServed(), lat.Count(),
			sim.Time(p[0]).Microseconds(),
			sim.Time(p[1]).Microseconds(),
			u.DroppedFrames())
	}
	return t
}

// TestShardedExperimentsStdoutIdentical is the -shards half of the
// determinism acceptance gate: rendering the fabric, transport, and
// open-loop workload experiments with Options.Shards at 2 and 4 must
// reproduce the serial tables byte for byte (CI repeats the same diff
// over the full suite via lhbench -shards; non-fabric experiments never
// read the option, e22's spine-leaf transport universes must shard as
// cleanly as raw e19's, and e23/e24 prove the stateful arrival
// processes and DAG execution survive sharding).
func TestShardedExperimentsStdoutIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	exps, err := Select("e18,e19,e21,e22,e23,e24")
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) string {
		results := (&Runner{Workers: 1, Options: Options{Shards: shards}}).Run(exps)
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("shards=%d: %s failed: %v", shards, r.Experiment.ID, r.Err)
			}
		}
		return renderAll(results)
	}
	serial := run(0)
	if serial == "" {
		t.Fatal("no output")
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != serial {
			t.Errorf("-shards %d diverges from serial tables", shards)
		}
	}
}

// TestFabricExperimentsSerialParallelIdentical is the e18/e19 half of
// the determinism acceptance gate: a serial and a 4-way parallel run of
// both experiments must render byte-identical tables.
func TestFabricExperimentsSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	exps, err := Select("e18,e19")
	if err != nil {
		t.Fatal(err)
	}
	serial := (&Runner{Workers: 1}).Run(exps)
	parallel := (&Runner{Workers: 4}).Run(exps)
	for _, r := range append(serial, parallel...) {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Experiment.ID, r.Err)
		}
	}
	a, b := renderAll(serial), renderAll(parallel)
	if a == "" || a != b {
		t.Fatalf("serial and parallel fabric tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}
