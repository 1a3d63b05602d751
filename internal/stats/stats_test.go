package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lauberhorn/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram returns non-zero stats")
	}
	if h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile != 0")
	}
	if h.Summary(1, "") != "no samples" {
		t.Fatal("empty summary wrong")
	}
}

func TestHistogramSingle(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	if h.Count() != 1 || h.Min() != 12345 || h.Max() != 12345 {
		t.Fatalf("single-sample stats wrong: count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.Percentile(q)
		if math.Abs(float64(v)-12345) > 12345*0.04 {
			t.Errorf("Percentile(%v) = %d, want ~12345", q, v)
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below the sub-bucket count are stored exactly.
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if p := h.Percentile(0.5); p < 14 || p > 17 {
		t.Errorf("median of 0..31 = %d, want ~15-16", p)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: min=%d", h.Min())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	r := sim.NewRNG(3)
	var raw []float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Exp(100000) // mean 100k "ps"
		raw = append(raw, v)
		h.Record(int64(v))
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(n))]
		got := float64(h.Percentile(q))
		if math.Abs(got-exact)/exact > 0.05 {
			t.Errorf("P%.1f = %.0f, exact %.0f (err > 5%%)", q*100, got, exact)
		}
	}
	if math.Abs(h.Mean()-100000)/100000 > 0.02 {
		t.Errorf("mean %.0f, want ~100000", h.Mean())
	}
}

func TestHistogramRecordN(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 7; i++ {
		a.Record(500)
	}
	b.RecordN(500, 7)
	b.RecordN(999, 0) // no-op
	if a.Count() != b.Count() || a.Mean() != b.Mean() {
		t.Fatal("RecordN differs from repeated Record")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 100; i++ {
		a.Record(i * 10)
	}
	for i := int64(101); i <= 200; i++ {
		b.Record(i * 10)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != 200 {
		t.Fatalf("merged count %d, want 200", a.Count())
	}
	if a.Min() != 10 || a.Max() != 2000 {
		t.Fatalf("merged min/max %d/%d, want 10/2000", a.Min(), a.Max())
	}
	if p := a.Percentile(0.5); math.Abs(float64(p)-1000) > 60 {
		t.Errorf("merged median %d, want ~1000", p)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestHistogramSummaryFormat(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	s := h.Summary(1000, "ns")
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "ns") {
		t.Fatalf("summary %q missing fields", s)
	}
}

// Property: percentile is monotone in q and bounded by min/max.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32, seed uint64) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		for _, s := range samples {
			h.Record(int64(s))
		}
		prev := h.Percentile(0)
		for q := 0.05; q <= 1.0; q += 0.05 {
			v := h.Percentile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(0) >= h.Min() && h.Percentile(1) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket relative error is bounded (~ 1/32).
func TestBucketErrorProperty(t *testing.T) {
	f := func(v uint32) bool {
		x := int64(v)
		h := NewHistogram()
		h.Record(x)
		// force interior-quantile path with three samples
		h.Record(x)
		h.Record(x)
		got := h.Percentile(0.5)
		if x == 0 {
			return got == 0
		}
		err := math.Abs(float64(got-x)) / float64(x)
		return err <= 1.0/16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatal("initial EWMA non-zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation %v, want 10", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("after 20: %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("after 15: %v, want 15", e.Value())
	}
}

func TestEWMABadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Demo", "name", "value", "unit")
	tb.AddRow("alpha", 1.5, "us")
	tb.AddRow("beta", 12, "us")
	tb.AddNote("seed %d", 42)
	s := tb.String()
	for _, want := range []string{"Demo", "alpha", "1.5", "beta", "12", "note: seed 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "1.500") {
		t.Error("trailing zeros not trimmed")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:   "1.5",
		2.0:   "2",
		0.125: "0.125",
		0:     "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
