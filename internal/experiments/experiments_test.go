package experiments

import (
	"fmt"
	"strings"
	"testing"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/workload"
)

func TestE1Fig2Shape(t *testing.T) {
	tb := E1Fig2(nil)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Parse the symmetric column: ECI < x86 < Enzian.
	var vals []float64
	for _, row := range tb.Rows {
		var v float64
		if _, err := fmtSscan(row[2], &v); err != nil {
			t.Fatalf("bad value %q", row[2])
		}
		vals = append(vals, v)
	}
	eci, x86, enz := vals[0], vals[1], vals[2]
	if !(eci < x86 && x86 < enz) {
		t.Fatalf("Fig2 ordering broken: ECI=%v x86=%v Enzian=%v", eci, x86, enz)
	}
	// Rough factors from the paper: x86/ECI >= 3, Enzian/ECI >= 7.
	if x86/eci < 3 {
		t.Errorf("x86/ECI ratio %.1f, want >= 3", x86/eci)
	}
	if enz/eci < 7 {
		t.Errorf("Enzian/ECI ratio %.1f, want >= 7", enz/eci)
	}
	t.Logf("\n%s", tb)
}

func TestE2BreakdownTotals(t *testing.T) {
	tb := E2Breakdown(nil)
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "TOTAL" {
		t.Fatal("no total row")
	}
	var linux, byp, lh float64
	fmtSscan(last[1], &linux)
	fmtSscan(last[2], &byp)
	fmtSscan(last[3], &lh)
	if !(lh < byp && byp < linux) {
		t.Fatalf("breakdown ordering: lh=%v byp=%v linux=%v", lh, byp, linux)
	}
	// "Essentially zero": Lauberhorn's host cost must be tens of ns.
	if lh > 100 {
		t.Errorf("Lauberhorn host cost %vns; paper claims essentially zero", lh)
	}
	t.Logf("\n%s", tb)
}

func TestE5CrossoverNear4KiB(t *testing.T) {
	tb := E5SizeCrossover(nil)
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "crossover at 4096 bytes") ||
			strings.Contains(n, "crossover at 2048 bytes") ||
			strings.Contains(n, "crossover at 8192 bytes") {
			found = true
		}
	}
	if !found {
		t.Fatalf("crossover not in 2-8KiB: %v", tb.Notes)
	}
	t.Logf("\n%s", tb)
}

func TestE9AllVerdicts(t *testing.T) {
	tb := E9ModelCheck(nil)
	okCount, bugCount := 0, 0
	for _, row := range tb.Rows {
		if !strings.Contains(row[0], "bug") {
			if row[4] != "OK" {
				t.Errorf("correct config verdict %q", row[4])
			}
			okCount++
		} else {
			if row[4] == "OK" {
				t.Errorf("bug config %q passed", row[0])
			}
			bugCount++
		}
	}
	if okCount < 5 || bugCount < 4 {
		t.Fatalf("row counts %d/%d", okCount, bugCount)
	}
	t.Logf("\n%s", tb)
}

func TestE11MajoritySmall(t *testing.T) {
	tb := E11SizeDist(nil)
	if len(tb.Rows) < 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	t.Logf("\n%s", tb)
}

func TestE6IdleCost(t *testing.T) {
	tb := E6IdleCost(nil)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	var lhE, bypE float64
	fmtSscan(tb.Rows[0][1], &lhE)
	fmtSscan(tb.Rows[1][1], &bypE)
	if lhE >= bypE/2 {
		t.Errorf("Lauberhorn idle energy %vJ not well below bypass %vJ", lhE, bypE)
	}
	t.Logf("\n%s", tb)
}

func TestE7Deschedule(t *testing.T) {
	tb := E7Deschedule(nil)
	var unblock float64
	fmtSscan(tb.Rows[0][1], &unblock)
	if unblock <= 0 || unblock > 100 {
		t.Errorf("unblock latency %vus implausible", unblock)
	}
	t.Logf("\n%s", tb)
}

func TestE8Tables(t *testing.T) {
	tb := E8SchedUpdate(nil)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	tb2 := E8Simulated(nil)
	if len(tb2.Rows) != 3 {
		t.Fatalf("%d sim rows", len(tb2.Rows))
	}
	t.Logf("\n%s\n%s", tb, tb2)
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("%d experiments", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if ByID("e5") == nil || ByID("nope") != nil {
		t.Error("ByID broken")
	}
}

func TestRigSmoke(t *testing.T) {
	// A small end-to-end run on each stack to keep the rigs honest.
	size := workload.FixedSize{N: 40}
	for _, stack := range []cluster.Stack{cluster.Lauberhorn, cluster.Bypass, cluster.Kernel} {
		r := StackRig(stack, 2, 2, 2, 0, size, workload.RatePerSec(20000), nil)
		r.U.RunMeasured(5*sim.Millisecond, 10*sim.Millisecond)
		if r.MeasuredServed() == 0 {
			t.Errorf("%s served nothing", r.Label)
		}
		if r.Gen.Latency.Count() == 0 {
			t.Errorf("%s recorded no latencies", r.Label)
		}
		if r.CyclesPerRequest() <= 0 {
			t.Errorf("%s cycles/req = 0", r.Label)
		}
	}
}

// fmtSscan parses a table cell as float64.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%g", v)
}
