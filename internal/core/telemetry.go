package core

import (
	"fmt"
	"sort"
	"strings"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/trace"
)

// This file implements the §6 "support for tracing, debugging, and
// statistics" the paper calls out as benefiting from close NIC/OS
// integration: the NIC, sitting on every request, keeps per-service
// telemetry (arrival rates, queueing delay, dispatch-path mix) that the
// OS reads for free over the kernel control channel — no packet sampling
// or host-side instrumentation on the data path.

// SvcTelemetry is the NIC's per-service view.
type SvcTelemetry struct {
	Svc       uint32
	Name      string
	Arrivals  uint64
	Fast      uint64 // dispatched straight into a stalled user load
	ViaKernel uint64 // dispatched through a kernel loop (process switch)
	Queued    uint64 // had to wait in NIC SRAM
	Dropped   uint64
	// QueueDelay is the time requests spent queued before dispatch (ps
	// samples).
	QueueDelay *stats.Histogram
	// RateEWMA is the smoothed arrival rate estimate in requests/second.
	RateEWMA float64

	rate      *stats.EWMA
	lastAt    sim.Time
	haveFirst bool
}

// newTelemetry allocates ep's telemetry record on its first request.
func newTelemetry(ep *Endpoint) *SvcTelemetry {
	ep.tel = &SvcTelemetry{
		Svc:        ep.Svc,
		Name:       fmt.Sprintf("svc%d", ep.Svc),
		QueueDelay: stats.NewHistogram(),
		rate:       stats.NewEWMA(0.05),
	}
	return ep.tel
}

// noteArrival records a decoded request for a service.
func (n *NIC) noteArrival(ep *Endpoint) {
	tl := ep.tel
	if tl == nil {
		tl = newTelemetry(ep)
	}
	tl.Arrivals++
	now := n.sim.Now()
	if tl.haveFirst && now > tl.lastAt {
		gap := (now - tl.lastAt).Seconds()
		tl.rate.Observe(1 / gap)
		tl.RateEWMA = tl.rate.Value()
	}
	tl.haveFirst = true
	tl.lastAt = now
}

// noteDispatch records how a request reached a core and its queueing
// delay.
func (n *NIC) noteDispatch(req *inflight, kernel bool) {
	tl := req.ep.tel
	if kernel {
		tl.ViaKernel++
	} else {
		tl.Fast++
	}
	delay := n.sim.Now() - req.arriveAt
	if delay > 0 {
		tl.QueueDelay.Record(int64(delay))
	} else {
		tl.QueueDelay.Record(0)
	}
}

// Telemetry returns the NIC's view of one service (nil if it has seen no
// traffic).
func (n *NIC) Telemetry(svc uint32) *SvcTelemetry {
	if ep := n.endpoints[svc]; ep != nil {
		return ep.tel
	}
	return nil
}

// TelemetryReport renders all services' telemetry, sorted by service ID —
// what an operator would read through the kernel control channel.
func (n *NIC) TelemetryReport() string {
	var tls []*SvcTelemetry
	for _, ep := range n.epOrder {
		if ep.tel != nil {
			tls = append(tls, ep.tel)
		}
	}
	sort.Slice(tls, func(i, j int) bool { return tls[i].Svc < tls[j].Svc })
	var b strings.Builder
	fmt.Fprintf(&b, "lauberhorn NIC telemetry (%d services)\n", len(tls))
	for _, tl := range tls {
		p := tl.QueueDelay.Percentiles(0.5, 0.99)
		fmt.Fprintf(&b, "  svc %-4d arrivals=%-7d fast=%-7d kernel=%-6d queued=%-6d dropped=%-4d rate=%.0f/s qdelay{p50=%v p99=%v}\n",
			tl.Svc, tl.Arrivals, tl.Fast, tl.ViaKernel, tl.Queued, tl.Dropped,
			tl.RateEWMA,
			sim.Time(p[0]),
			sim.Time(p[1]))
	}
	return b.String()
}

// SetTracer attaches a trace ring buffer; the NIC emits dispatch, rx/tx,
// TryAgain and Retire events into it when enabled.
func (n *NIC) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// emit traces an event if a tracer is attached.
func (n *NIC) emit(kind trace.Kind, a, b uint64, note string) {
	if n.tracer != nil {
		n.tracer.Emit(kind, a, b, note)
	}
}
