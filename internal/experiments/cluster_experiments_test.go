package experiments

import (
	"testing"
)

// TestE15Claims checks the incast experiment's shape and the tail
// behavior it exists to show: per stack the p99 grows (weakly) with fan-in,
// and at the largest K the stacks keep the paper's ordering.
func TestE15Claims(t *testing.T) {
	tb := E15Incast(nil, Options{})
	ks := E15Ks()
	if len(tb.Rows) != 3*len(ks) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	n := len(ks)
	for s := 0; s < 3; s++ {
		first, last := get(s*n, 4), get(s*n+n-1, 4)
		if last < first {
			t.Errorf("stack %s: p99 shrank under incast: %v -> %v", tb.Rows[s*n][0], first, last)
		}
		for i := 0; i < n; i++ {
			if get(s*n+i, 5) == 0 {
				t.Errorf("row %d served nothing", s*n+i)
			}
		}
	}
	// At the top of the ladder: Lauberhorn tail <= bypass tail <= kernel tail.
	lh, by, kn := get(n-1, 4), get(2*n-1, 4), get(3*n-1, 4)
	if !(lh <= by && by <= kn) {
		t.Errorf("p99 ordering at max fan-in broken: lh=%v byp=%v kern=%v", lh, by, kn)
	}
	t.Logf("\n%s", tb)
}

// TestE16Claims checks the mixed-stack cluster breakdown: every host
// serves, the Zipf skew concentrates work on the Lauberhorn host, and
// the TOTAL row adds up.
func TestE16Claims(t *testing.T) {
	tb := E16Cluster(nil, Options{})
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(r, c int) float64 {
		var v float64
		if _, err := sscan(tb.Rows[r][c], &v); err != nil {
			t.Fatalf("row %d col %d %q", r, c, tb.Rows[r][c])
		}
		return v
	}
	lh, by, kn, total := get(0, 2), get(1, 2), get(2, 2), get(3, 2)
	if lh == 0 || by == 0 || kn == 0 {
		t.Fatalf("a host served nothing: %v %v %v", lh, by, kn)
	}
	if total != lh+by+kn {
		t.Errorf("TOTAL %v != %v+%v+%v", total, lh, by, kn)
	}
	// Zipf(1.2) over 8 targets puts ~77%% of probability on ranks 1-4,
	// which all live on the Lauberhorn host.
	if lh < by+kn {
		t.Errorf("skew not visible: lh=%v vs others=%v", lh, by+kn)
	}
	// Per-request energy: the statically provisioned bypass host burns
	// far more than Lauberhorn under skewed (i.e. partly idle) load.
	lhE, byE := get(0, 6), get(1, 6)
	if byE < 2*lhE {
		t.Errorf("bypass uJ/req %v not well above Lauberhorn %v", byE, lhE)
	}
	t.Logf("\n%s", tb)
}

// TestClusterExperimentsDeterministic runs e15 and e16 twice and demands
// identical tables — the acceptance gate for "deterministic at any
// -parallel width" reduced to its root cause (tables are pure functions
// of the seeds).
func TestClusterExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, id := range []string{"e15", "e16"} {
		e := ByID(id)
		a := e.Run(nil, Options{})
		b := e.Run(nil, Options{})
		if len(a) != len(b) {
			t.Fatalf("%s: table count differs", id)
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s table %d differs between runs:\n%s\n---\n%s", id, i, a[i], b[i])
			}
		}
	}
}
