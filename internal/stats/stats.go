package stats

// EWMA is an exponentially weighted moving average, used by the NIC's load
// estimator. Alpha in (0, 1] weights the newest observation.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics if
// alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds in a new sample.
//
//lhlint:hotpath
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }
