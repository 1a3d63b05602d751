package experiments

import (
	"strings"
	"testing"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

func TestE3Claims(t *testing.T) {
	tb := E3LoadLatency(nil)
	rates := E3Rates()
	// Rows: 4 per stack in order Lauberhorn, Bypass, Kernel.
	if len(tb.Rows) != 3*len(rates) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	n := len(rates)
	for i := 0; i < n; i++ {
		lhP50, byP50, knP50 := get(i, 2), get(n+i, 2), get(2*n+i, 2)
		if !(lhP50 < byP50 && byP50 < knP50) {
			t.Errorf("rate %v: p50 ordering broken: %v %v %v", rates[i], lhP50, byP50, knP50)
		}
		lhP99, byP99 := get(i, 3), get(n+i, 3)
		if lhP99 >= byP99 {
			t.Errorf("rate %v: Lauberhorn p99 %v not below bypass %v", rates[i], lhP99, byP99)
		}
	}
	// The kernel stack must be saturated at the top rate (goodput gap).
	served, sent := get(3*n-1, 4), get(3*n-1, 5)
	if served > 0.9*sent {
		t.Errorf("kernel not saturated at top rate: served %v of %v", served, sent)
	}
	// Cycles per request: Lauberhorn ~half of bypass, far below kernel.
	lhCyc, byCyc, knCyc := get(0, 6), get(n, 6), get(2*n, 6)
	if !(lhCyc < byCyc && byCyc < knCyc) {
		t.Errorf("cycles/req ordering: %v %v %v", lhCyc, byCyc, knCyc)
	}
	t.Logf("\n%s", tb)
}

func TestE3ThroughputOrdering(t *testing.T) {
	tb := E3Throughput(nil)
	var rps [3]float64
	for i := 0; i < 3; i++ {
		if _, err := sscan(tb.Rows[i][1], &rps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !(rps[0] > rps[1] && rps[1] > rps[2]) {
		t.Fatalf("peak throughput ordering broken: %v", rps)
	}
	// Paper: "better than the fastest kernel-bypass approaches".
	if rps[0] < 1.5*rps[1] {
		t.Errorf("Lauberhorn peak %v not well above bypass %v", rps[0], rps[1])
	}
	t.Logf("\n%s", tb)
}

func TestE4Claims(t *testing.T) {
	tb := E4DynamicMix(nil)
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	lhP99, byP99, knP99 := get(0, 2), get(1, 2), get(2, 2)
	// Static bypass binding must blow the tail by orders of magnitude.
	if byP99 < 50*lhP99 {
		t.Errorf("bypass p99 %v not >> Lauberhorn %v under dynamic mix", byP99, lhP99)
	}
	// Lauberhorn keeps the dynamic-mix tail below even the kernel stack.
	if lhP99 >= knP99 {
		t.Errorf("Lauberhorn p99 %v above kernel %v", lhP99, knP99)
	}
	// And uses far fewer cycles than the kernel stack.
	lhCyc, knCyc := get(0, 6), get(2, 6)
	if lhCyc >= knCyc/2 {
		t.Errorf("Lauberhorn cycles/req %v not well below kernel %v", lhCyc, knCyc)
	}
	// Per-request energy, as e16 checks it: the statically provisioned
	// bypass cores spin through the idle share of the mix.
	lhE, byE := get(0, 7), get(1, 7)
	if byE < 2*lhE {
		t.Errorf("bypass uJ/req %v not well above Lauberhorn %v", byE, lhE)
	}
	t.Logf("\n%s", tb)
}

func TestE10Claims(t *testing.T) {
	tb := E10Ablation(nil)
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	fullServed, fullSent := get(0, 3), get(0, 4)
	if fullServed < 0.99*fullSent {
		t.Errorf("full system dropped requests: %v/%v", fullServed, fullSent)
	}
	noSchedServed := get(1, 3)
	if noSchedServed > 0.7*fullServed {
		t.Errorf("static binding served %v; expected starvation vs %v", noSchedServed, fullServed)
	}
	fullCyc, swCyc := get(0, 5), get(2, 5)
	if swCyc <= fullCyc {
		t.Errorf("software codec cycles %v not above full system %v", swCyc, fullCyc)
	}
	t.Logf("\n%s", tb)
}

func TestE10Fabrics(t *testing.T) {
	tb := E10Fabrics(nil)
	var eci, cxl float64
	sscan(tb.Rows[0][1], &eci)
	sscan(tb.Rows[1][1], &cxl)
	if cxl >= eci {
		t.Errorf("CXL3 RTT %v not below ECI %v", cxl, eci)
	}
	t.Logf("\n%s", tb)
}

func TestE6BusTraffic(t *testing.T) {
	tb := E6BusTraffic(nil)
	var tryAgains float64
	sscan(tb.Rows[0][1], &tryAgains)
	// 15ms period over 1s idle on one kernel line: ~66 TryAgains.
	if tryAgains < 50 || tryAgains > 80 {
		t.Errorf("idle TryAgains %v, want ~66", tryAgains)
	}
	t.Logf("\n%s", tb)
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, e := range All() {
		tables := e.Run(nil, Options{})
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", e.ID)
		}
		for _, tb := range tables {
			out := tb.String()
			if !strings.Contains(out, "==") || len(tb.Rows) == 0 {
				t.Errorf("%s produced empty table %q", e.ID, tb.Title)
			}
		}
	}
}

// TestE2ConsistentWithMeasuredCycles cross-validates the analytic per-step
// table (E2) against the measured per-request cycle count (an E3-style
// rig): the measured overhead beyond the handler must match E2's host
// total within tolerance. This ties the breakdown table to the simulation
// rather than letting the two drift apart.
func TestE2ConsistentWithMeasuredCycles(t *testing.T) {
	r := StackRig(cluster.Lauberhorn, 7, 1, 1, sim.Microsecond, workload.FixedSize{N: fig2Body},
		workload.RatePerSec(50_000), nil)
	r.U.RunMeasured(20*sim.Millisecond, 50*sim.Millisecond)
	measured := r.CyclesPerRequest()
	const handlerCycles = 2500.0 // 1us at 2.5GHz
	overheadNs := (measured - handlerCycles) / 2.5

	tb := E2Breakdown(nil)
	var analyticNs float64
	if _, err := sscan(tb.Rows[len(tb.Rows)-1][3], &analyticNs); err != nil {
		t.Fatal(err)
	}
	if overheadNs < analyticNs*0.5 || overheadNs > analyticNs*2.5 {
		t.Fatalf("measured per-request overhead %.0fns inconsistent with E2 analytic %.0fns",
			overheadNs, analyticNs)
	}
	t.Logf("measured overhead %.0fns vs analytic %.0fns", overheadNs, analyticNs)
}
