package workload

import (
	"fmt"

	"lauberhorn/internal/sim"
)

// RatePhase is one piece of a diurnal rate curve: for Dur of simulated
// time the base arrival rate is multiplied by Mult.
type RatePhase struct {
	Dur  sim.Time
	Mult float64
}

// Diurnal modulates a Poisson arrival process with a piecewise-constant
// rate curve that cycles through Phases forever: while phase k is
// active, gaps are exponential with mean Mean/Mult[k]. The process has
// no access to the simulated clock, so it tracks its position on the
// curve by accumulating the gaps it hands out; a gap drawn near a phase
// boundary is sampled entirely at the old phase's rate (the curve is
// piecewise-constant at arrival granularity, the standard discretization
// for diurnal load replay). Stateful: do not share one Diurnal between
// clients or Specs — the cluster builder hands each client its own RNG
// stream, and each client must own its own curve position.
type Diurnal struct {
	// Mean is the base mean inter-arrival gap (what Mult = 1 yields).
	Mean sim.Time
	// Phases is the repeating rate curve; every phase needs Dur > 0 and
	// Mult > 0.
	Phases []RatePhase

	pos     int      // index of the active phase
	left    sim.Time // time remaining in the active phase
	started bool
}

// Next returns an exponential gap at the active phase's rate and
// advances the curve position by that gap. It panics with Validate's
// error on a curve Validate rejects.
func (d *Diurnal) Next(r *sim.RNG) sim.Time {
	if !d.started {
		if err := d.Validate(); err != nil {
			panic(err)
		}
		d.started = true
		d.left = d.Phases[0].Dur
	}
	mean := sim.Time(float64(d.Mean) / d.Phases[d.pos].Mult)
	if mean < sim.Nanosecond {
		mean = sim.Nanosecond
	}
	gap := r.ExpTime(mean)
	if gap < sim.Nanosecond {
		gap = sim.Nanosecond
	}
	d.left -= gap
	for d.left <= 0 {
		d.pos = (d.pos + 1) % len(d.Phases)
		d.left += d.Phases[d.pos].Dur
	}
	return gap
}

// Validate rejects a non-positive Mean, which Next would otherwise turn
// into one arrival per nanosecond, a curve with no phases, and a phase
// without a positive Dur and Mult.
func (d *Diurnal) Validate() error {
	if d.Mean <= 0 {
		return fmt.Errorf("workload: Diurnal Mean %v must be > 0", d.Mean)
	}
	if len(d.Phases) == 0 {
		return fmt.Errorf("workload: Diurnal curve has no phases")
	}
	for i, p := range d.Phases {
		if p.Dur <= 0 || p.Mult <= 0 {
			return fmt.Errorf("workload: Diurnal phase %d needs Dur > 0 and Mult > 0, has %v and %v", i, p.Dur, p.Mult)
		}
	}
	return nil
}

// Phase returns the index of the currently active phase (for tests that
// bucket arrivals by curve position).
func (d *Diurnal) Phase() int { return d.pos }

// String describes the process.
func (d *Diurnal) String() string {
	return fmt.Sprintf("diurnal(mean=%v,%d phases)", d.Mean, len(d.Phases))
}
