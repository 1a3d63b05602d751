package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// denseHistogram is the layout Histogram had before it stored a window:
// all numBuckets counts allocated up front. It is the reference the
// differential tests hold the windowed histogram to.
type denseHistogram struct {
	counts   []uint64
	count    uint64
	sum      float64
	min, max int64
	maxIdx   int
}

func newDense() *denseHistogram {
	return &denseHistogram{
		counts: make([]uint64, numBuckets),
		min:    math.MaxInt64,
		max:    math.MinInt64,
		maxIdx: -1,
	}
}

func (h *denseHistogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.counts[i] += n
	h.maxIdx = max(h.maxIdx, i)
	h.count += n
	h.sum += float64(v) * float64(n)
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

func (h *denseHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.counts[i]++
	h.maxIdx = max(h.maxIdx, i)
	h.count++
	h.sum += float64(v)
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

func (h *denseHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *denseHistogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func (h *denseHistogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

func (h *denseHistogram) Percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q*float64(h.count) + 0.5)
	rank = min(max(rank, 1), h.count)
	var seen uint64
	for i := 0; i <= h.maxIdx; i++ {
		seen += h.counts[i]
		if seen >= rank {
			return min(max(bucketMid(i), h.min), h.max)
		}
	}
	return h.max
}

// Percentiles is the per-quantile loop: TestPercentilesMatchPercentile
// pins the single-scan version against exactly this.
func (h *denseHistogram) Percentiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = h.Percentile(q)
	}
	return out
}

func (h *denseHistogram) Merge(other *denseHistogram) {
	if other.count == 0 {
		return
	}
	for i := 0; i <= other.maxIdx; i++ {
		h.counts[i] += other.counts[i]
	}
	h.maxIdx = max(h.maxIdx, other.maxIdx)
	h.count += other.count
	h.sum += other.sum
	h.min = min(h.min, other.min)
	h.max = max(h.max, other.max)
}

func (h *denseHistogram) Reset() {
	clear(h.counts[:h.maxIdx+1])
	h.count, h.sum = 0, 0
	h.min, h.max, h.maxIdx = math.MaxInt64, math.MinInt64, -1
}

func (h *denseHistogram) Summary(div float64, unit string) string {
	if h.count == 0 {
		return "no samples"
	}
	p := h.Percentiles(0.50, 0.90, 0.99, 0.999)
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f%s min=%.2f%s p50=%.2f%s p90=%.2f%s p99=%.2f%s p99.9=%.2f%s max=%.2f%s",
		h.count,
		h.Mean()/div, unit,
		float64(h.Min())/div, unit,
		float64(p[0])/div, unit,
		float64(p[1])/div, unit,
		float64(p[2])/div, unit,
		float64(p[3])/div, unit,
		float64(h.Max())/div, unit)
	return b.String()
}

// diffQuantiles are TestPercentilesMatchPercentile's quantiles: unsorted
// on purpose, with a duplicate and out-of-range values.
var diffQuantiles = []float64{0.999, -0.1, 0.5, 0, 0.001, 1.7, 0.25, 0.5, 0.9, 1, 0.99}

// Histogram operations the differential tests replay against both
// layouts, each on histogram a or b of a pair.
const (
	opRecord = iota
	opRecordN
	opMerge // the other histogram of the pair into this one
	opReset
)

type histOp struct {
	kind, target int // target 0 is histogram a, 1 is b
	v            int64
	n            uint64 // RecordN's repeat count
}

// opLen is one encoded op: a header byte (kind in bits 0-1, target in bit
// 2, bits 3-7 a right shift in steps of two applied to the value, so that
// fuzzed bytes reach every magnitude), the RecordN count, and the value
// as a big-endian int64.
const opLen = 10

func decodeOps(data []byte) []histOp {
	ops := make([]histOp, 0, len(data)/opLen)
	for ; len(data) >= opLen; data = data[opLen:] {
		hdr := data[0]
		ops = append(ops, histOp{
			kind:   int(hdr & 3),
			target: int(hdr>>2) & 1,
			n:      uint64(data[1]),
			v:      int64(binary.BigEndian.Uint64(data[2:])) >> (2 * (hdr >> 3)),
		})
	}
	return ops
}

func encodeOps(ops ...histOp) []byte {
	var data []byte
	for _, op := range ops {
		data = append(data, byte(op.kind|op.target<<2), byte(op.n))
		data = binary.BigEndian.AppendUint64(data, uint64(op.v))
	}
	return data
}

// windowEvents records which window movements a run of ops exercised.
type windowEvents struct {
	widenBelow, widenAbove, mergeDisjoint, mergeOverlap bool
}

// replayOps applies ops to a windowed pair and a dense pair and fails t
// at the first op after which an observable of its target differs.
func replayOps(t *testing.T, ops []histOp) windowEvents {
	t.Helper()
	var ev windowEvents
	h := [2]*Histogram{NewHistogram(), NewHistogram()}
	d := [2]*denseHistogram{newDense(), newDense()}
	for step, op := range ops {
		w, ref := h[op.target], d[op.target]
		lo, hi := w.lo, w.lo+len(w.counts)
		switch op.kind {
		case opRecord:
			w.Record(op.v)
			ref.Record(op.v)
		case opRecordN:
			w.RecordN(op.v, op.n)
			ref.RecordN(op.v, op.n)
		case opMerge:
			o := h[1-op.target]
			if o.count > 0 && hi > lo {
				if o.lo >= hi || o.lo+len(o.counts) <= lo {
					ev.mergeDisjoint = true
				} else {
					ev.mergeOverlap = true
				}
			}
			w.Merge(o)
			ref.Merge(d[1-op.target])
		case opReset:
			w.Reset()
			ref.Reset()
		}
		if hi > lo {
			ev.widenBelow = ev.widenBelow || w.lo < lo
			ev.widenAbove = ev.widenAbove || w.lo+len(w.counts) > hi
		}
		// Only the target changed: Merge leaves its argument alone.
		if err := compareDense(w, ref); err != nil {
			t.Fatalf("after op %d %+v: %v", step, op, err)
		}
	}
	return ev
}

// compareDense reports the first observable on which h and ref differ,
// or a broken window invariant.
func compareDense(h *Histogram, ref *denseHistogram) error {
	if h.lo%subBuckets != 0 || len(h.counts)%subBuckets != 0 {
		return fmt.Errorf("window [%d, +%d) not in whole magnitude groups", h.lo, len(h.counts))
	}
	if h.count > 0 && (bucketIndex(h.min) < h.lo || h.maxIdx >= h.lo+len(h.counts)) {
		return fmt.Errorf("window [%d, +%d) misses occupied buckets %d..%d",
			h.lo, len(h.counts), bucketIndex(h.min), h.maxIdx)
	}
	if h.Count() != ref.count || h.Mean() != ref.Mean() || h.Min() != ref.Min() || h.Max() != ref.Max() {
		return fmt.Errorf("count/mean/min/max %d/%v/%d/%d, dense %d/%v/%d/%d",
			h.Count(), h.Mean(), h.Min(), h.Max(), ref.count, ref.Mean(), ref.Min(), ref.Max())
	}
	got, want := h.Percentiles(diffQuantiles...), ref.Percentiles(diffQuantiles...)
	for i, q := range diffQuantiles {
		if p := h.Percentile(q); p != want[i] || got[i] != want[i] {
			return fmt.Errorf("quantile %v: Percentile %d, Percentiles %d, dense %d", q, p, got[i], want[i])
		}
	}
	if s, ref := h.Summary(1000, "ns"), ref.Summary(1000, "ns"); s != ref {
		return fmt.Errorf("Summary %q, dense %q", s, ref)
	}
	return nil
}

// randomOps draws an op sequence whose values mix the corner cases (0,
// negatives, math.MaxInt64) with exact small values, latency-scale
// values and every magnitude, so windows widen in both directions and
// the pair's windows are sometimes disjoint and sometimes overlap.
func randomOps(r *rand.Rand, n int) []histOp {
	ops := make([]histOp, n)
	for i := range ops {
		op := histOp{target: r.Intn(2), n: uint64(r.Intn(4))}
		switch k := r.Intn(20); {
		case k < 13:
			op.kind = opRecord
		case k < 16:
			op.kind = opRecordN
		case k < 19:
			op.kind = opMerge
		default:
			op.kind = opReset
		}
		switch r.Intn(8) {
		case 0:
			op.v = 0
		case 1:
			op.v = -r.Int63n(1000) - 1
		case 2:
			op.v = math.MaxInt64
		case 3:
			op.v = r.Int63n(subBuckets)
		case 4:
			op.v = r.Int63n(100_000_000)
		default:
			op.v = r.Int63() >> r.Intn(63)
		}
		ops[i] = op
	}
	return ops
}

// TestHistogramMatchesDense replays seeded random op sequences against
// the windowed and the dense layout and requires every observable to
// match after every op.
func TestHistogramMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(2048))
	var seen windowEvents
	for trial := 0; trial < 100; trial++ {
		ev := replayOps(t, randomOps(r, 1+r.Intn(100)))
		seen.widenBelow = seen.widenBelow || ev.widenBelow
		seen.widenAbove = seen.widenAbove || ev.widenAbove
		seen.mergeDisjoint = seen.mergeDisjoint || ev.mergeDisjoint
		seen.mergeOverlap = seen.mergeOverlap || ev.mergeOverlap
	}
	if seen != (windowEvents{true, true, true, true}) {
		t.Fatalf("sequences missed a window movement: %+v", seen)
	}
}

// FuzzHistogram decodes arbitrary bytes into an op sequence and replays
// it against both layouts. Its seeds are the corner cases, so a plain go
// test replays them.
func FuzzHistogram(f *testing.F) {
	rec := func(target int, v int64) histOp { return histOp{kind: opRecord, target: target, v: v} }
	recN := func(target int, v int64, n uint64) histOp {
		return histOp{kind: opRecordN, target: target, v: v, n: n}
	}
	merge := func(into int) histOp { return histOp{kind: opMerge, target: into} }
	reset := func(target int) histOp { return histOp{kind: opReset, target: target} }
	for _, ops := range [][]histOp{
		{rec(0, 0), rec(0, 0), rec(0, 31)},
		{rec(0, -5), recN(0, -1, 3), rec(0, 7)},
		{rec(0, math.MaxInt64), recN(0, math.MaxInt64, 255), rec(0, 0)},
		{recN(0, 1000, 0), rec(0, 1000)},
		// Widen above, then below, then both at once through a merge.
		{rec(0, 1_000_000), rec(0, 1<<40), rec(0, 3), rec(1, 1<<62), rec(1, 0), merge(0)},
		// Disjoint windows merged both ways, then an overlapping merge.
		{rec(0, 100), rec(1, 1<<50), merge(0), merge(1), rec(1, 120), merge(0)},
		// Overlapping windows, one inside the other.
		{rec(0, 10), rec(0, 1<<30), rec(1, 1<<20), merge(0), merge(1)},
		// Merge into an empty histogram, and of an empty one.
		{rec(1, 5_000_000), merge(0), merge(1), reset(1), merge(0)},
		// Reset keeps the window; later samples land in and outside it.
		{rec(0, 1<<33), rec(0, 1<<35), reset(0), rec(0, 1<<34), rec(0, 1), reset(0), reset(0)},
	} {
		f.Add(encodeOps(ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replayOps(t, decodeOps(data))
	})
}

// TestHistogramAllocs pins the allocation contract: NewHistogram
// allocates only the struct, and recording or merging inside the window
// allocates nothing.
func TestHistogramAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { histSink = NewHistogram() }); n != 1 {
		t.Errorf("NewHistogram makes %v allocations, want 1", n)
	}
	h, other := NewHistogram(), NewHistogram()
	h.Record(1_000_000)
	other.Record(1_500_000)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(1_999_999)
		h.RecordN(1_000_001, 3)
	}); n != 0 {
		t.Errorf("in-window Record/RecordN make %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Merge(other) }); n != 0 {
		t.Errorf("Merge inside the window makes %v allocations, want 0", n)
	}
}

var histSink *Histogram

func BenchmarkNewHistogram(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		histSink = NewHistogram()
	}
}

// BenchmarkHistogramRecord records latency-scale samples (1-100 us in
// picoseconds) that the window already covers.
func BenchmarkHistogramRecord(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, 1024)
	h := NewHistogram()
	for i := range vals {
		vals[i] = 1_000_000 + r.Int63n(99_000_000)
		h.Record(vals[i])
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		h.Record(vals[i%len(vals)])
		i++
	}
}
