// Package workload generates RPC load for the experiments: arrival
// processes (Poisson, fixed-rate, bursty MMPP, piecewise diurnal rate
// curves), message-size distributions including a cloud-RPC mixture
// modelled on the characterization the paper cites [23] ("the great
// majority of RPC requests and responses are small"), Zipf service
// popularity, open- and closed-loop client generators that drive a
// server over a fabric.Link and collect latency histograms, and service
// dependency DAG specs (DAG) the cluster builder lowers onto hosts.
//
// Determinism invariants: all randomness comes from seeded sim.RNG
// streams. A generator with Config.Seed set draws a private stream that
// is a pure function of that seed — independent of construction order
// and of every other generator — which is what lets multi-client
// clusters add or remove machines without perturbing anyone else's
// arrivals, sizes, or popularity draws.
package workload

import (
	"fmt"
	"math"
	"sort"

	"lauberhorn/internal/sim"
)

// SizeDist draws request body sizes.
type SizeDist interface {
	Sample(r *sim.RNG) int
	String() string
}

// FixedSize always returns N.
type FixedSize struct{ N int }

// Sample returns the fixed size.
func (f FixedSize) Sample(*sim.RNG) int { return f.N }

// String describes the distribution.
func (f FixedSize) String() string { return fmt.Sprintf("fixed(%dB)", f.N) }

// Validate rejects a negative size.
func (f FixedSize) Validate() error {
	if f.N < 0 {
		return fmt.Errorf("workload: FixedSize N %d must be >= 0", f.N)
	}
	return nil
}

// UniformSize draws uniformly from [Min, Max].
type UniformSize struct{ Min, Max int }

// Sample returns a uniform sample.
func (u UniformSize) Sample(r *sim.RNG) int {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + r.Intn(u.Max-u.Min+1)
}

// String describes the distribution.
func (u UniformSize) String() string { return fmt.Sprintf("uniform(%d-%dB)", u.Min, u.Max) }

// Validate rejects a negative Min, which Sample can return. Min > Max is
// allowed: Sample then always returns Min.
func (u UniformSize) Validate() error {
	if u.Min < 0 {
		return fmt.Errorf("workload: UniformSize Min %d must be >= 0", u.Min)
	}
	return nil
}

// LogNormalSize draws log-normally distributed sizes clamped to
// [Min, Max].
type LogNormalSize struct {
	Mu, Sigma float64
	Min, Max  int
}

// Sample returns a clamped log-normal sample.
func (l LogNormalSize) Sample(r *sim.RNG) int {
	v := int(r.LogNormal(l.Mu, l.Sigma))
	if v < l.Min {
		v = l.Min
	}
	if l.Max > 0 && v > l.Max {
		v = l.Max
	}
	return v
}

// String describes the distribution.
func (l LogNormalSize) String() string {
	return fmt.Sprintf("lognormal(mu=%.2g,sigma=%.2g)", l.Mu, l.Sigma)
}

// MixtureSize draws from weighted size points — used for the cloud-RPC
// mixture.
type MixtureSize struct {
	Sizes   []int
	Weights []float64
	cdf     []float64
	name    string
}

// NewMixtureSize builds a mixture; weights are normalized.
func NewMixtureSize(name string, sizes []int, weights []float64) *MixtureSize {
	if len(sizes) == 0 || len(sizes) != len(weights) {
		panic("workload: bad mixture")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("workload: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("workload: zero total weight")
	}
	m := &MixtureSize{Sizes: sizes, Weights: weights, name: name}
	acc := 0.0
	for _, w := range weights {
		acc += w / total
		m.cdf = append(m.cdf, acc)
	}
	return m
}

// Sample draws one size.
func (m *MixtureSize) Sample(r *sim.RNG) int {
	return m.Sizes[m.SampleIndex(r)]
}

// SampleIndex draws the index of one size point. Mixtures are a handful
// of points, so the inverse-CDF lookup is an inlineable linear scan (the
// smallest i with cdf[i] >= u, exactly what a binary search would find)
// rather than a sort.Search call per request.
func (m *MixtureSize) SampleIndex(r *sim.RNG) int {
	u := r.Float64()
	for i, c := range m.cdf {
		if c >= u {
			return i
		}
	}
	return len(m.Sizes) - 1
}

// String describes the distribution.
func (m *MixtureSize) String() string { return m.name }

// Validate rejects a negative size point.
func (m *MixtureSize) Validate() error {
	for _, n := range m.Sizes {
		if n < 0 {
			return fmt.Errorf("workload: MixtureSize %q size %d must be >= 0", m.name, n)
		}
	}
	return nil
}

// CloudRPC returns the request-size mixture used by the experiments,
// shaped after the cloud-scale RPC characterization the paper cites [23]:
// the bulk of requests are at or below a few hundred bytes, with a thin
// heavy tail. Sizes above the single-frame payload are clamped by the
// generator.
func CloudRPC() *MixtureSize {
	return NewMixtureSize("cloud-rpc",
		[]int{16, 64, 128, 256, 512, 1024, 1400},
		[]float64{0.22, 0.30, 0.20, 0.12, 0.08, 0.05, 0.03})
}

// ArrivalDist draws inter-arrival gaps.
type ArrivalDist interface {
	Next(r *sim.RNG) sim.Time
	String() string
}

// FixedRate emits arrivals with constant spacing.
type FixedRate struct{ Interval sim.Time }

// Next returns the constant interval.
func (f FixedRate) Next(*sim.RNG) sim.Time { return f.Interval }

// String describes the process.
func (f FixedRate) String() string { return fmt.Sprintf("fixed(%v)", f.Interval) }

// Validate rejects a non-positive interval: a zero gap never advances
// time, and a negative one schedules into the past.
func (f FixedRate) Validate() error {
	if f.Interval <= 0 {
		return fmt.Errorf("workload: FixedRate Interval %v must be > 0", f.Interval)
	}
	return nil
}

// Poisson emits arrivals with exponential inter-arrival times.
type Poisson struct{ Mean sim.Time }

// Next returns an exponential gap.
func (p Poisson) Next(r *sim.RNG) sim.Time {
	t := r.ExpTime(p.Mean)
	if t < sim.Nanosecond {
		t = sim.Nanosecond
	}
	return t
}

// String describes the process.
func (p Poisson) String() string { return fmt.Sprintf("poisson(mean=%v)", p.Mean) }

// Validate rejects a non-positive mean, which Next would otherwise turn
// into one arrival per nanosecond.
func (p Poisson) Validate() error {
	if p.Mean <= 0 {
		return fmt.Errorf("workload: Poisson Mean %v must be > 0", p.Mean)
	}
	return nil
}

// MMPP is a two-state Markov-modulated Poisson process: a bursty arrival
// stream alternating between a calm and a hot state. State holding
// times are exponentially distributed with means CalmPeriod/HotPeriod —
// a true modulating Markov chain (memoryless dwell), which is what the
// goodness-of-fit suite verifies. A state change takes effect on the
// first arrival after the drawn dwell elapses, so observed dwell times
// overshoot the drawn ones by one partial gap. Stateful: do not share
// one MMPP between clients or Specs.
type MMPP struct {
	CalmMean, HotMean     sim.Time
	CalmPeriod, HotPeriod sim.Time
	inHot                 bool
	stateLeft             sim.Time
}

// Next returns the next inter-arrival gap, advancing the modulating
// state.
func (m *MMPP) Next(r *sim.RNG) sim.Time {
	if m.stateLeft <= 0 {
		m.inHot = !m.inHot
		period := m.CalmPeriod
		if m.inHot {
			period = m.HotPeriod
		}
		m.stateLeft = r.ExpTime(period)
		if m.stateLeft < sim.Nanosecond {
			m.stateLeft = sim.Nanosecond
		}
	}
	mean := m.CalmMean
	if m.inHot {
		mean = m.HotMean
	}
	gap := r.ExpTime(mean)
	if gap < sim.Nanosecond {
		gap = sim.Nanosecond
	}
	m.stateLeft -= gap
	return gap
}

// Hot reports whether the modulating chain is currently in the hot
// state (for dwell-time goodness-of-fit tests).
func (m *MMPP) Hot() bool { return m.inHot }

// String describes the process.
func (m *MMPP) String() string {
	return fmt.Sprintf("mmpp(calm=%v,hot=%v)", m.CalmMean, m.HotMean)
}

// Validate rejects a non-positive mean in either state, which Next would
// otherwise turn into one arrival per nanosecond.
func (m *MMPP) Validate() error {
	if m.CalmMean <= 0 || m.HotMean <= 0 {
		return fmt.Errorf("workload: MMPP CalmMean %v and HotMean %v must be > 0", m.CalmMean, m.HotMean)
	}
	return nil
}

// Burst emits B near-simultaneous arrivals every Period — the
// synchronized fan-in shape incast experiments drive, where many
// clients fire at once and collide in a receiver's queue. Within a
// burst arrivals are spaced Gap apart (zero = 1ns, back-to-back at
// simulator resolution); the remainder of the Period follows the last
// arrival of the burst. Stateful: do not share one Burst between
// clients or Specs.
type Burst struct {
	B      int
	Period sim.Time
	// Gap spaces arrivals inside a burst (0 = 1ns).
	Gap sim.Time

	started bool
	left    int
}

// Next returns the gap to the next arrival, advancing the burst state:
// the first burst is anchored one intra-burst gap after Start, each
// later burst exactly one Period after the previous anchor.
func (b *Burst) Next(*sim.RNG) sim.Time {
	n := b.B
	if n < 1 {
		n = 1
	}
	gap := b.Gap
	if gap <= 0 {
		gap = sim.Nanosecond
	}
	if !b.started {
		b.started = true
		b.left = n - 1
		return gap
	}
	if b.left > 0 {
		b.left--
		return gap
	}
	b.left = n - 1
	rest := b.Period - sim.Time(n-1)*gap
	if rest < sim.Nanosecond {
		rest = sim.Nanosecond
	}
	return rest
}

// String describes the process.
func (b *Burst) String() string {
	return fmt.Sprintf("burst(%dx every %v)", b.B, b.Period)
}

// Validate rejects a non-positive Period, which Next would otherwise turn
// into one arrival per nanosecond.
func (b *Burst) Validate() error {
	if b.Period <= 0 {
		return fmt.Errorf("workload: Burst Period %v must be > 0", b.Period)
	}
	return nil
}

// RatePerSec converts requests/second into a Poisson process.
func RatePerSec(rps float64) Poisson {
	if rps <= 0 {
		panic("workload: non-positive rate")
	}
	return Poisson{Mean: sim.Time(float64(sim.Second) / rps)}
}

// Zipf samples indices in [0, N) with probability ∝ 1/(i+1)^S.
type Zipf struct {
	N   int
	S   float64
	cdf []float64
}

// NewZipf precomputes the CDF.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: zipf needs n > 0")
	}
	z := &Zipf{N: n, S: s}
	var total float64
	pmf := make([]float64, n)
	for i := 0; i < n; i++ {
		pmf[i] = 1 / math.Pow(float64(i+1), s)
		total += pmf[i]
	}
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += pmf[i] / total
		z.cdf = append(z.cdf, acc)
	}
	return z
}

// Sample draws one index.
func (z *Zipf) Sample(r *sim.RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= z.N {
		i = z.N - 1
	}
	return i
}

// Prob returns the probability of index i.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
