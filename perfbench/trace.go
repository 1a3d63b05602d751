package main

import "time"

// span is one timed call the benchmark made into a layer.
type span struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	// Start and End are nanoseconds since the tracer's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent indexes the enclosing span, -1 for a root.
	Parent int `json:"parent"`
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced repetitions run the
// same code without reading the clock for spans.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.origin).Nanoseconds(), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
}
