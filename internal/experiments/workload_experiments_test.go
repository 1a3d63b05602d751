package experiments

import (
	"testing"
)

// TestE23Claims pins the open-loop knee and the burstiness claim: the
// Poisson ladder's tail explodes as offered load crosses service
// capacity (top rung p99 at least 20x the bottom rung's), served
// saturates at the top while sent keeps growing (the open-loop
// signature — a closed-loop client would slow down instead), and the
// MMPP and diurnal rows land far above the Poisson row of the *same
// mean rate*: mean offered load does not determine the tail once
// arrivals cluster.
func TestE23Claims(t *testing.T) {
	tb := E23OpenLoop(nil, Options{})
	rows := e23Arrivals()
	if len(tb.Rows) != len(rows) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(rows))
	}
	// columns: 0 arrivals, 1 mean offered, 2 sent, 3 completed,
	// 4 served, 5 p50, 6 p99.
	idx := func(label string) int {
		for i, r := range rows {
			if r.Label == label {
				return i
			}
		}
		t.Fatalf("no row %q", label)
		return -1
	}
	for r := range tb.Rows {
		if tget(t, tb.Rows, r, 3) == 0 {
			t.Errorf("row %d (%s) completed nothing", r, tb.Rows[r][0])
		}
	}
	bottom, mid, top := idx("poisson 50k"), idx("poisson 180k"), idx("poisson 260k")

	// The knee: the top rung's p99 dwarfs the bottom rung's.
	if lo, hi := tget(t, tb.Rows, bottom, 6), tget(t, tb.Rows, top, 6); hi < 20*lo {
		t.Errorf("top-rung p99 %.1f us not >= 20x bottom-rung %.1f us — no knee", hi, lo)
	}
	// Open loop: past the knee, sent keeps growing while served is
	// pinned at capacity.
	if sent, served := tget(t, tb.Rows, top, 2), tget(t, tb.Rows, top, 4); sent < 1.15*served {
		t.Errorf("top rung sent %.0f not well above served %.0f — generator is not open loop", sent, served)
	}
	// Burstiness: same mean, fatter tail.
	midP99 := tget(t, tb.Rows, mid, 6)
	for _, burst := range []string{"mmpp 60k/300k", "diurnal 60k/300k"} {
		r := idx(burst)
		if off := tget(t, tb.Rows, r, 1); off != e23MeanRate {
			t.Errorf("%s offered %.0f krps, want %d", burst, off, e23MeanRate)
		}
		if p99 := tget(t, tb.Rows, r, 6); p99 <= 1.5*midP99 {
			t.Errorf("%s p99 %.1f us not well above poisson-180k p99 %.1f us", burst, p99, midP99)
		}
	}
	t.Logf("\n%s", tb)
}

// TestE24Claims pins the DAG tail amplification: every nested shape
// multiplies the direct baseline's p99, edges record exactly the nested
// traffic (the direct row has none), the loose budgets never trip, and
// the impossible fanout-tight budget flags essentially every call on
// its edge.
func TestE24Claims(t *testing.T) {
	tb := E24DAG(nil, Options{})
	if len(tb.Rows) != len(e24Shapes) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(e24Shapes))
	}
	// columns: 0 shape, 1 completed, 2 served, 3 p50, 4 p99, 5 amp,
	// 6 edge calls, 7 violations.
	idx := func(shape string) int {
		for i, s := range e24Shapes {
			if s == shape {
				return i
			}
		}
		t.Fatalf("no shape %q", shape)
		return -1
	}
	for r := range tb.Rows {
		if tget(t, tb.Rows, r, 1) == 0 {
			t.Errorf("shape %s completed nothing", tb.Rows[r][0])
		}
	}
	direct := idx("direct")
	if calls := tget(t, tb.Rows, direct, 6); calls != 0 {
		t.Errorf("direct shape recorded %.0f edge calls", calls)
	}
	directP99 := tget(t, tb.Rows, direct, 4)
	for _, shape := range []string{"chain3", "fanout-loose", "fanout-tight"} {
		r := idx(shape)
		if p99 := tget(t, tb.Rows, r, 4); p99 <= 2*directP99 {
			t.Errorf("%s p99 %.1f us does not amplify direct %.1f us", shape, p99, directP99)
		}
		if calls := tget(t, tb.Rows, r, 6); calls == 0 {
			t.Errorf("%s recorded no edge calls", shape)
		}
	}
	for _, shape := range []string{"chain3", "fanout-loose"} {
		if v := tget(t, tb.Rows, idx(shape), 7); v != 0 {
			t.Errorf("%s has %.0f violations under 100us budgets", shape, v)
		}
	}
	tight := idx("fanout-tight")
	v, completed := tget(t, tb.Rows, tight, 7), tget(t, tb.Rows, tight, 1)
	if v < 0.9*completed {
		t.Errorf("fanout-tight flagged %.0f of %.0f calls; a 2us budget is unmeetable", v, completed)
	}
	t.Logf("\n%s", tb)
}
