package main

import (
	"fmt"
	"runtime"
	"time"

	"lauberhorn/internal/cluster"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/transport"
)

// fingerprint is the deterministic result of one scenario: the same
// code, spec and seed must reproduce it exactly.
type fingerprint struct {
	Events      uint64 `json:"events"`
	Sent        uint64 `json:"sent"`
	Received    uint64 `json:"received"`
	Served      uint64 `json:"served"`
	P50ps       int64  `json:"p50_ps"`
	P99ps       int64  `json:"p99_ps"`
	Drops       uint64 `json:"drops"`
	Marks       uint64 `json:"marks"`
	Retransmits uint64 `json:"retransmits"`
}

// outcome is what one scenario run produced.
type outcome struct {
	fp        fingerprint
	errors    uint64
	peak      sim.Time
	transport transport.Stats
	// setup is the time in cluster.BuildE; run is the time from
	// RunMeasured to the last result read; collect is the result reads
	// alone.
	setup, run, collect time.Duration
	// heapMB is HeapAlloc after a forced GC, the universe still live.
	heapMB float64
	// counters are read only in traced repetitions.
	counters *counters
	err      error
}

// runScenario builds and runs one scenario and reads its results. A
// panic anywhere in the simulation becomes the outcome's error.
func runScenario(sc *scenario, seed uint64, tr *tracer, parent int) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%s: panic: %v", sc.name, r)
		}
	}()
	spec := sc.spec(seed)

	b := tr.begin("cluster.BuildE", "cluster", parent)
	t0 := time.Now()
	u, err := cluster.BuildE(spec)
	out.setup = time.Since(t0)
	tr.end(b)
	if err != nil {
		out.err = fmt.Errorf("%s: BuildE: %w", sc.name, err)
		return out
	}

	t1 := time.Now()
	r := tr.begin("Universe.RunMeasured", "cluster", parent)
	u.RunMeasured(sc.warm, sc.measure)
	tr.end(r)
	c := tr.begin("cluster.collect", "stats", parent)
	t2 := time.Now()
	collect(u, &out)
	out.collect = time.Since(t2)
	tr.end(c)
	out.run = time.Since(t1)

	g := tr.begin("runtime.GC", "go", parent)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	tr.end(g)
	if tr != nil {
		out.counters = readCounters(u, &out)
	}
	runtime.KeepAlive(u)
	return out
}

// collect makes the result reads a harness makes after a run: the
// universe's aggregators and the merged latency percentiles.
func collect(u *cluster.Universe, out *outcome) {
	out.fp.Drops = u.DroppedFrames()
	out.fp.Marks = u.ECNMarks()
	out.peak = u.PeakNetBacklog()
	out.transport = u.TransportStats()
	out.fp.Retransmits = out.transport.Retransmits
	p := u.MergedLatency().Percentiles(0.5, 0.99)
	out.fp.P50ps, out.fp.P99ps = p[0], p[1]
	out.fp.Events = u.EventsFired()
	out.fp.Served = u.TotalMeasuredServed()
	for _, c := range u.Clients {
		out.fp.Sent += c.Gen.Sent
		out.fp.Received += c.Gen.Received
		out.errors += c.Gen.Errors
	}
}

// check applies the output check to one outcome: conservation always,
// and the recorded fingerprint when one exists (golden may be nil).
func check(sc *scenario, o *outcome, golden *fingerprint) error {
	fp := o.fp
	switch {
	case o.errors > 0:
		return fmt.Errorf("%s: %d generator errors", sc.name, o.errors)
	case fp.Received > fp.Sent:
		return fmt.Errorf("%s: received %d > sent %d", sc.name, fp.Received, fp.Sent)
	case sc.drained && fp.Sent != fp.Received:
		return fmt.Errorf("%s: sent %d != received %d after the drain", sc.name, fp.Sent, fp.Received)
	case golden != nil && fp != *golden:
		return fmt.Errorf("%s: fingerprint %+v, recorded %+v", sc.name, fp, *golden)
	}
	return nil
}

// counters are the layer counters of the universes of one repetition,
// summed over its scenarios. They are exact and repeat run to run.
type counters struct {
	SimEvents, SimCancelled uint64

	FabricFrames, FabricBytes uint64
	Flooded, Decisions        uint64
	Drops, Marks              uint64
	PeakBacklog               sim.Time

	PoolGets, PoolHits uint64

	CoreRx, Fast, Kern, Soft, TryAgains uint64
	Backlog                             *stats.Histogram
	MesiFills, MesiRecalls, MesiInvals  uint64

	KernelCS, KernelPreempt, KernelIRQ, KernelIPI uint64
	DMAIRQ, DMARxDropped                          uint64

	Transport transport.Stats

	Sent, Received, Errors uint64
}

// readCounters reads every layer's exported counters off a run universe,
// taking the aggregates collect already read from its outcome.
func readCounters(u *cluster.Universe, o *outcome) *counters {
	c := &counters{Backlog: stats.NewHistogram()}
	for _, s := range u.Sims {
		c.SimEvents += s.Fired()
		c.SimCancelled += s.Cancelled()
		if p := u.FramePool(s); p != nil {
			c.PoolGets += p.Gets
			c.PoolHits += p.Hits
		}
	}

	eachLink(u, func(l *fabric.Link) {
		for side := 0; side < 2; side++ {
			f, b := l.Stats(side)
			c.FabricFrames += f
			c.FabricBytes += b
		}
	})
	eachSwitch(u, func(sw *fabric.Switch) {
		c.Flooded += sw.Flooded
		c.Decisions += sw.Forwarded + sw.ECMPForwarded + sw.Flooded
	})
	c.Drops, c.Marks, c.PeakBacklog = o.fp.Drops, o.fp.Marks, o.peak

	for _, h := range u.Hosts {
		ks := h.K.Stats()
		c.KernelCS += ks.ContextSwitches
		c.KernelPreempt += ks.Preemptions
		c.KernelIRQ += ks.IRQs
		c.KernelIPI += ks.IPIs
		if h.LH != nil {
			ns := h.LH.NIC.Stats()
			c.CoreRx += ns.RxFrames
			c.Fast += ns.FastDispatch
			c.Kern += ns.KernDispatch
			c.Soft += ns.SoftNotify
			c.TryAgains += ns.TryAgains
			c.Backlog.Merge(ns.Backlog)
			ds := h.LH.NIC.Directory().Stats()
			c.MesiFills += ds.Fills.Value()
			c.MesiRecalls += ds.Recalls.Value()
			c.MesiInvals += ds.Invalidations.Value()
		}
		if h.NICDMA != nil {
			ds := h.NICDMA.Stats()
			c.DMAIRQ += ds.IRQs
			c.DMARxDropped += ds.RxDropped
		}
	}
	c.Transport = o.transport
	c.Sent, c.Received, c.Errors = o.fp.Sent, o.fp.Received, o.errors
	return c
}

// add folds another universe's counters into c: sums for counts, the
// maximum for high-water marks.
func (c *counters) add(o *counters) {
	c.SimEvents += o.SimEvents
	c.SimCancelled += o.SimCancelled
	c.FabricFrames += o.FabricFrames
	c.FabricBytes += o.FabricBytes
	c.Flooded += o.Flooded
	c.Decisions += o.Decisions
	c.Drops += o.Drops
	c.Marks += o.Marks
	c.PeakBacklog = max(c.PeakBacklog, o.PeakBacklog)
	c.PoolGets += o.PoolGets
	c.PoolHits += o.PoolHits
	c.CoreRx += o.CoreRx
	c.Fast += o.Fast
	c.Kern += o.Kern
	c.Soft += o.Soft
	c.TryAgains += o.TryAgains
	c.Backlog.Merge(o.Backlog)
	c.MesiFills += o.MesiFills
	c.MesiRecalls += o.MesiRecalls
	c.MesiInvals += o.MesiInvals
	c.KernelCS += o.KernelCS
	c.KernelPreempt += o.KernelPreempt
	c.KernelIRQ += o.KernelIRQ
	c.KernelIPI += o.KernelIPI
	c.DMAIRQ += o.DMAIRQ
	c.DMARxDropped += o.DMARxDropped
	c.Transport.Add(o.Transport)
	c.Sent += o.Sent
	c.Received += o.Received
	c.Errors += o.Errors
}

// eachLink visits every distinct link of the universe: access links and
// the Clos's inter-switch links (leaf-spine uplinks and spine-core links).
func eachLink(u *cluster.Universe, fn func(*fabric.Link)) {
	seen := make(map[*fabric.Link]bool)
	visit := func(l *fabric.Link) {
		if !seen[l] {
			seen[l] = true
			fn(l)
		}
	}
	for _, h := range u.Hosts {
		visit(h.Link)
	}
	for _, c := range u.Clients {
		visit(c.Link)
	}
	if t := u.Topo; t != nil && t.Spec.Spines > 0 {
		for l := range t.Leaves {
			for s := 0; s < t.Spec.Spines; s++ {
				visit(t.Uplink(l, s))
			}
		}
		if t.Spec.ThreeTier() {
			for g := range t.Spines {
				for c := range t.Cores {
					visit(t.CoreLink(g, c))
				}
			}
		}
	}
}

// eachSwitch visits every switch of the universe.
func eachSwitch(u *cluster.Universe, fn func(*fabric.Switch)) {
	if u.Switch != nil {
		fn(u.Switch)
	}
	if t := u.Topo; t != nil {
		for _, tier := range [][]*fabric.Switch{t.Leaves, t.Spines, t.Cores} {
			for _, sw := range tier {
				fn(sw)
			}
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
