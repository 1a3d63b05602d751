// Package stats provides the measurement primitives used by every
// experiment in this repository: log-bucketed latency histograms with
// percentile queries, streaming mean/variance accumulators, and simple
// counters. Recording is allocation-free once a histogram's window covers
// the sample; a histogram widens at most once per magnitude group.
//
// Determinism invariants: bucketing is a pure function of the recorded
// value, percentiles and merges are independent of record order, and
// Table renders rows exactly as added — so any table built from the same
// samples is byte-identical, which is what the harness's serial-vs-
// parallel diffs rest on.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram records non-negative int64 samples (typically latencies in
// picoseconds) into log2 buckets with linear sub-buckets, in the style of
// HDR histograms. With subBits = 5 the relative error of any recorded value
// is below ~3%, which is ample for percentile reporting.
//
// The bucket layout spans all of int64 (numBuckets buckets, 16 KiB of
// counts), but a histogram stores only a window of it, in whole magnitude
// groups of subBuckets buckets (256 B each). NewHistogram allocates no
// counts; the first sample allocates its group, and a sample outside the
// window widens it to the union of whole groups, copying the counts. The
// window never shrinks, and buckets outside it are zero by construction,
// so a latency histogram whose samples span a few powers of two holds a
// few hundred bytes to a couple of KiB. The zero Histogram is not usable;
// call NewHistogram.
type Histogram struct {
	// counts holds buckets [lo, lo+len(counts)); lo is a multiple of
	// subBuckets and len(counts) is too.
	counts []uint64
	lo     int
	count  uint64
	sum    float64
	min    int64
	max    int64
	// maxIdx is the highest occupied bucket index (-1 when empty), so
	// percentile scans stop at the occupied part of the window.
	maxIdx int
}

const (
	subBits    = 5
	subBuckets = 1 << subBits
	// 64 magnitude buckets x subBuckets sub-buckets covers the full int64
	// range.
	numBuckets = 64 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		min:    math.MaxInt64,
		max:    math.MinInt64,
		maxIdx: -1,
	}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	mag := 64 - bits.LeadingZeros64(u|1) // position of highest set bit, >=1
	if mag <= subBits {
		return int(u)
	}
	shift := uint(mag - subBits - 1)
	sub := int(u>>shift) & (subBuckets - 1)
	return (mag-subBits)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket i; used to convert
// bucket indices back to representative values.
func bucketLow(i int) int64 {
	group := i / subBuckets
	sub := i % subBuckets
	if group == 0 { // first magnitude group is exact
		return int64(sub)
	}
	shift := uint(group - 1)
	return (int64(subBuckets) + int64(sub)) << shift
}

// bucketMid returns a representative (midpoint) value for bucket i.
func bucketMid(i int) int64 {
	lo := bucketLow(i)
	var hi int64
	if i+1 < numBuckets {
		hi = bucketLow(i + 1)
	} else {
		hi = lo
	}
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo-1)/2
}

// Record adds one sample. Negative samples are clamped to zero.
//
//lhlint:hotpath
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if j := uint(i - h.lo); j < uint(len(h.counts)) {
		h.counts[j]++
	} else {
		h.widen(i, i)
		h.counts[i-h.lo]++
	}
	if i > h.maxIdx {
		h.maxIdx = i
	}
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds n identical samples.
//
//lhlint:hotpath
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if j := uint(i - h.lo); j < uint(len(h.counts)) {
		h.counts[j] += n
	} else {
		h.widen(i, i)
		h.counts[i-h.lo] += n
	}
	if i > h.maxIdx {
		h.maxIdx = i
	}
	h.count += n
	h.sum += float64(v) * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// widen grows the window to cover buckets first..last: the union of the
// magnitude groups it holds and those of first and last. The counts move
// to a fresh slice; the window never shrinks.
func (h *Histogram) widen(first, last int) {
	lo := first &^ (subBuckets - 1)
	hi := (last | (subBuckets - 1)) + 1
	if len(h.counts) > 0 {
		lo = min(lo, h.lo)
		hi = max(hi, h.lo+len(h.counts))
	}
	counts := make([]uint64, hi-lo)
	if len(h.counts) > 0 {
		copy(counts[h.lo-lo:], h.counts)
	}
	h.counts, h.lo = counts, lo
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of recorded samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at quantile q in [0, 1]. Exact recorded
// extremes are returned for q=0 and q=1; interior quantiles are bucket
// midpoints (≤3% relative error).
func (h *Histogram) Percentile(q float64) int64 {
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
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i := h.lo; i <= h.maxIdx; i++ {
		seen += h.counts[i-h.lo]
		if seen >= rank {
			return h.clampMid(i)
		}
	}
	return h.max
}

// clampMid returns bucket i's midpoint clamped into the recorded range.
func (h *Histogram) clampMid(i int) int64 {
	m := bucketMid(i)
	if m < h.min {
		m = h.min
	}
	if m > h.max {
		m = h.max
	}
	return m
}

// Percentiles returns the values at the given quantiles, each identical
// to the corresponding Percentile call, computed in a single scan of the
// occupied part of the window rather than one rescan per quantile. The
// result is positionally aligned with qs; qs need not be sorted.
func (h *Histogram) Percentiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if h.count == 0 || len(qs) == 0 {
		return out
	}
	ranks := make([]uint64, len(qs))
	order := make([]int, 0, len(qs))
	for i, q := range qs {
		if q <= 0 {
			out[i] = h.min
			continue
		}
		if q >= 1 {
			out[i] = h.max
			continue
		}
		r := uint64(q*float64(h.count) + 0.5)
		if r < 1 {
			r = 1
		}
		if r > h.count {
			r = h.count
		}
		ranks[i] = r
		order = append(order, i)
	}
	// Ascending rank order (insertion sort: qs is a handful of values).
	for i := 1; i < len(order); i++ {
		o := order[i]
		j := i - 1
		for j >= 0 && ranks[order[j]] > ranks[o] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = o
	}
	var seen uint64
	k := 0
	for i := h.lo; i <= h.maxIdx && k < len(order); i++ {
		seen += h.counts[i-h.lo]
		for k < len(order) && seen >= ranks[order[k]] {
			out[order[k]] = h.clampMid(i)
			k++
		}
	}
	for ; k < len(order); k++ {
		out[order[k]] = h.max
	}
	return out
}

// Merge adds all samples from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if other.lo < h.lo || other.maxIdx >= h.lo+len(h.counts) {
		h.widen(other.lo, other.maxIdx)
	}
	dst := h.counts[other.lo-h.lo:]
	for i, c := range other.counts[:other.maxIdx+1-other.lo] {
		dst[i] += c
	}
	if other.maxIdx > h.maxIdx {
		h.maxIdx = other.maxIdx
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram, keeping its window.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
	h.maxIdx = -1
}

// Summary reports the common percentile set as a formatted string, scaling
// raw samples by div and suffixing unit (e.g. div=1000, unit="ns" for
// picosecond samples).
func (h *Histogram) Summary(div float64, unit string) string {
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
