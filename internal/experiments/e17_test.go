package experiments

import (
	"testing"

	"lauberhorn/internal/stackdrv"
)

// TestE17Claims pins the §6 hybrid claim end to end, from a declarative
// cluster.Spec: below the DMA threshold the Hybrid stack matches
// Lauberhorn (identical cache-line path), above it the DMA fallback
// beats pure cache-line streaming. It also pins the
// registry-driven shape: one row per sweep-registered stack, every one
// serving traffic.
func TestE17Claims(t *testing.T) {
	tb := E17HybridCluster(nil)

	sweep := 0
	for _, ent := range stackdrv.All() {
		if ent.Sweep {
			sweep++
		}
	}
	if sweep < 4 {
		t.Fatalf("only %d sweep-registered stacks; Hybrid missing?", sweep)
	}
	if len(tb.Rows) != sweep {
		t.Fatalf("%d rows for %d sweep stacks", len(tb.Rows), sweep)
	}

	get := func(row []string, c int) float64 {
		var v float64
		if _, err := sscan(row[c], &v); err != nil {
			t.Fatalf("col %d %q: %v", c, row[c], err)
		}
		return v
	}
	byName := make(map[string][]string, len(tb.Rows))
	for _, row := range tb.Rows {
		byName[row[0]] = row
		if get(row, 5) == 0 {
			t.Errorf("stack %s served nothing", row[0])
		}
	}
	lh, hyb := byName["Lauberhorn"], byName["Hybrid"]
	if lh == nil || hyb == nil {
		t.Fatalf("missing Lauberhorn/Hybrid rows: %v", tb.Rows)
	}

	// Below the threshold the two stacks run the same data path: small
	// bodies must match within the jitter large-body interleaving causes.
	lhSmall, hybSmall := get(lh, 1), get(hyb, 1)
	if hybSmall > 1.15*lhSmall || hybSmall < 0.85*lhSmall {
		t.Errorf("hybrid small p50 %vus does not match Lauberhorn %vus", hybSmall, lhSmall)
	}
	// Above it the DMA fallback must win clearly.
	lhLarge, hybLarge := get(lh, 3), get(hyb, 3)
	if hybLarge >= 0.95*lhLarge {
		t.Errorf("hybrid large p50 %vus does not beat pure cache-line %vus", hybLarge, lhLarge)
	}
	t.Logf("\n%s", tb)
}

// TestE17Deterministic runs e17 twice and demands identical tables, the
// property the parallel harness and the CI determinism diff rest on.
func TestE17Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	a, b := E17HybridCluster(nil), E17HybridCluster(nil)
	if a.String() != b.String() {
		t.Fatalf("e17 differs between runs:\n%s\n---\n%s", a, b)
	}
}
