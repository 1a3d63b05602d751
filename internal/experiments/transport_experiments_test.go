package experiments

import (
	"testing"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/transport"
)

// tget parses table cell (r, c) as a float, failing the test on junk.
func tget(t *testing.T, rows [][]string, r, c int) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(rows[r][c], &v); err != nil {
		t.Fatalf("row %d col %d %q", r, c, rows[r][c])
	}
	return v
}

// TestE21Claims pins the incast matrix: every scheme serves at every
// fan-in, raw collapses at the top rung (drops, goodput well below
// offered) while credit's receiver pacing never overflows the queue and
// beats raw's goodput — the headline transport claim — and each scheme's
// mechanism column (retransmits, marks) engages exactly where it should.
func TestE21Claims(t *testing.T) {
	tb := E21Transport(nil, Options{})
	ks := E21Ks()
	schemes := transport.All()
	if len(tb.Rows) != len(schemes)*len(ks) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// row layout: scheme-major, K-minor; columns: 0 transport, 1 clients,
	// 2 offered, 3 goodput, 4 p50, 5 p99, 6 completed, 7 retrans,
	// 8 marks, 9 net drops.
	row := func(name string, k int) int {
		for s, e := range schemes {
			if e.Name == name {
				return s*len(ks) + k
			}
		}
		t.Fatalf("no scheme %q in registry", name)
		return -1
	}
	for r := range tb.Rows {
		if tget(t, tb.Rows, r, 6) == 0 {
			t.Errorf("row %d (%s, K=%s) completed nothing", r, tb.Rows[r][0], tb.Rows[r][1])
		}
	}
	top := len(ks) - 1
	rawTop, retryTop := row("raw", top), row("retry", top)
	ecnTop, creditTop := row("ecn", top), row("credit", top)

	// Raw collapses: the fabric drops frames and goodput lands well below
	// offered load.
	if tget(t, tb.Rows, rawTop, 9) == 0 {
		t.Error("raw dropped nothing at the top fan-in — no collapse to recover from")
	}
	if g, o := tget(t, tb.Rows, rawTop, 3), tget(t, tb.Rows, rawTop, 2); g > 0.8*o {
		t.Errorf("raw goodput %.1f not well below offered %.1f", g, o)
	}
	// Credit never overflows and carries more goodput than raw — the
	// acceptance claim.
	if tget(t, tb.Rows, creditTop, 9) != 0 {
		t.Errorf("credit dropped %v frames; receiver pacing should bound the queue",
			tget(t, tb.Rows, creditTop, 9))
	}
	if cg, rg := tget(t, tb.Rows, creditTop, 3), tget(t, tb.Rows, rawTop, 3); cg <= rg {
		t.Errorf("credit goodput %.1f <= raw %.1f at the largest fan-in", cg, rg)
	}
	// Mechanisms engage in the right rows: only retry retransmits, and
	// only under collapse; the marking links feed the ecn rows.
	if tget(t, tb.Rows, retryTop, 7) == 0 {
		t.Error("retry never retransmitted at the top fan-in")
	}
	for k := 0; k < len(ks); k++ {
		if v := tget(t, tb.Rows, row("raw", k), 7); v != 0 {
			t.Errorf("raw K=%d reports %v retransmits", ks[k], v)
		}
	}
	if tget(t, tb.Rows, ecnTop, 8) == 0 {
		t.Error("ecn saw no marks at the top fan-in")
	}
	if ed, rd := tget(t, tb.Rows, ecnTop, 9), tget(t, tb.Rows, rawTop, 9); ed >= rd {
		t.Errorf("ecn drops %v not below raw %v — window cuts did nothing", ed, rd)
	}
	t.Logf("\n%s", tb)
}

// TestE22Claims pins the partition matrix: the raw flap row shows the
// e19 wasted-work gap (blackholed well above zero), the retry flap row
// collapses it to ~0 by retransmitting into the dup cache, the
// congestion schemes cannot, every steady row drops nothing, and every
// flap stretches the tail.
func TestE22Claims(t *testing.T) {
	tb := E22TransportFaults(nil, Options{})
	schemes := transport.All()
	if len(tb.Rows) != 2*len(schemes) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// row layout: scheme-major, {steady, flap}-minor; columns: 0
	// transport, 1 fault, 2 p50, 3 p99, 4 completed, 5 served,
	// 6 blackholed, 7 retrans, 8 marks, 9 net drops.
	row := func(name string, flap int) int {
		for s, e := range schemes {
			if e.Name == name {
				return 2*s + flap
			}
		}
		t.Fatalf("no scheme %q in registry", name)
		return -1
	}
	for s := range schemes {
		steady, flap := 2*s, 2*s+1
		name := tb.Rows[steady][0]
		if tget(t, tb.Rows, steady, 4) == 0 {
			t.Errorf("%s steady completed nothing", name)
		}
		if v := tget(t, tb.Rows, steady, 9); v != 0 {
			t.Errorf("%s steady dropped %v frames", name, v)
		}
		if pf, ps := tget(t, tb.Rows, flap, 3), tget(t, tb.Rows, steady, 3); pf <= ps {
			t.Errorf("%s flap p99 %v not above steady %v", name, pf, ps)
		}
	}
	rawBlack := tget(t, tb.Rows, row("raw", 1), 6)
	if rawBlack <= 50 {
		t.Errorf("raw flap blackholed only %v — the partition signature is gone", rawBlack)
	}
	retryBlack := tget(t, tb.Rows, row("retry", 1), 6)
	if retryBlack > rawBlack/10 || retryBlack < -10 {
		t.Errorf("retry flap blackholed %v, want ~0 (raw loses %v)", retryBlack, rawBlack)
	}
	if tget(t, tb.Rows, row("retry", 1), 7) == 0 {
		t.Error("retry flap row shows no retransmits")
	}
	// The marking uplinks feed every flap row's marks column.
	if tget(t, tb.Rows, row("ecn", 1), 8) == 0 {
		t.Error("ecn flap row saw no marks despite marking uplinks")
	}
	t.Logf("\n%s", tb)
}

// TestTransportOverrideChangesE15 pins the -transport plumbing end to
// end: Options.Transport reaches a cluster experiment's universe (credit
// pacing leaves its stats fingerprint on e15's universes), and e15 run
// without options renders the same tables twice.
func TestTransportOverrideChangesE15(t *testing.T) {
	u := Options{Transport: transport.Credit}.build(nil, incastSpec(15, cluster.Lauberhorn, 4))
	if u.Spec.Transport != transport.Credit {
		t.Fatalf("option did not reach the spec: transport %d", int(u.Spec.Transport))
	}
	u.RunMeasured(2*sim.Millisecond, 8*sim.Millisecond)
	if u.TransportStats() == (transport.Stats{}) {
		t.Error("option set but the universe shows no transport activity")
	}

	if a, b := E15Incast(nil, Options{}).String(), E15Incast(nil, Options{}).String(); a != b {
		t.Error("two option-free e15 runs render different tables")
	}
}
