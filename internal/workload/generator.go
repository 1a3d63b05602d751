package workload

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/wire"
)

// Target is one RPC service the generator can hit.
type Target struct {
	Port    uint16
	Service uint32
	Method  uint16
	Size    SizeDist
	// Flags are RPC header flags set on every request (e.g.
	// rpc.FlagEncrypted to exercise the NIC's decrypt pipeline stage).
	Flags uint16
	// Server, when non-zero, overrides Config.Server for this target, so
	// one generator can spray requests across the hosts of a multi-server
	// cluster (the destination port still comes from Port).
	Server wire.Endpoint
}

// Config parameterizes a generator.
type Config struct {
	// Client/Server are the wire endpoints; the generator varies the
	// client source port per virtual flow.
	Client wire.Endpoint
	Server wire.Endpoint

	Targets []Target
	// Popularity picks among Targets (nil = uniform; use NewZipf for
	// skew).
	Popularity *Zipf

	// Arrivals drives open-loop generation.
	Arrivals ArrivalDist
	// Flows is the number of distinct source ports cycled through (RSS
	// entropy).
	Flows int

	// ChurnInterval, when positive, re-permutes which concrete target
	// each popularity rank maps to at this period: the hot set drifts
	// over time, modelling the churning service mixes of §1/§5.2. The
	// popularity *shape* (e.g. Zipf skew) is unchanged; only the
	// identities rotate.
	ChurnInterval sim.Time

	// Seed, when non-zero, gives the generator its own RNG stream derived
	// from this value alone instead of splitting the simulation RNG. A
	// seeded generator draws a stream that is a pure function of Seed —
	// independent of how many other generators exist and of construction
	// order — which is what lets a multi-client cluster stay deterministic
	// while clients are added or removed. Zero keeps the legacy behavior
	// (split the sim RNG in construction order).
	Seed uint64

	// Frames, when non-nil, recycles frame buffers: requests draw from
	// the pool and consumed responses return to it (the generator is the
	// response's terminal consumer — its parse scratch is strictly
	// write-before-read). Only arm this where unicast delivery is
	// single-copy (Direct links, routed fabrics); see wire.FramePool's
	// ownership contract.
	Frames *wire.FramePool
}

// Generator is an open-loop RPC client: it fires requests per the arrival
// process regardless of completions — the standard methodology for
// latency-vs-load curves — and records per-request round-trip latencies.
type Generator struct {
	s    *sim.Sim
	cfg  Config
	link *fabric.Link
	side int
	rng  *sim.RNG

	nextID   uint64
	inflight map[uint64]pendingReq
	stopped  bool

	// churn state: rank -> target index permutation.
	churnPerm   []int
	lastChurnAt sim.Time
	churnEpochs uint64

	// sizeFn holds each target's body-size sampler, bound to its concrete
	// distribution at construction so the send path dispatches through a
	// func value instead of the SizeDist itable. Nil means no body.
	sizeFn []func(*sim.RNG) int

	// Reused staging scratch: responses parse into rxScr/msgScr, request
	// bodies and encodings build in bodyScr/reqScr (BuildUDP copies the
	// payload into the frame), so the steady-state send/receive paths
	// allocate only the frame itself.
	rxScr   wire.Datagram
	msgScr  rpc.Message
	bodyScr []byte
	reqScr  []byte

	// Latency is the aggregate RTT histogram (picoseconds).
	Latency *stats.Histogram
	// PerTarget holds one histogram per target index.
	PerTarget []*stats.Histogram
	Sent      uint64
	Received  uint64
	Errors    uint64
}

type pendingReq struct {
	at     sim.Time
	target int
}

// NewGenerator builds a generator attached to side `side` of the link.
func NewGenerator(s *sim.Sim, cfg Config, link *fabric.Link, side int) *Generator {
	if len(cfg.Targets) == 0 {
		panic("workload: no targets")
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 64
	}
	var rng *sim.RNG
	if cfg.Seed != 0 {
		// A private stream: do not touch the sim RNG at all, so seeded
		// generators can be added or removed without perturbing anyone
		// else's randomness.
		rng = sim.NewRNG(cfg.Seed)
	} else {
		rng = s.Rand().Split()
	}
	g := &Generator{
		s:        s,
		cfg:      cfg,
		link:     link,
		side:     side,
		rng:      rng,
		nextID:   1,
		inflight: make(map[uint64]pendingReq),
		Latency:  stats.NewHistogram(),
	}
	for _, t := range cfg.Targets {
		g.PerTarget = append(g.PerTarget, stats.NewHistogram())
		var fn func(*sim.RNG) int
		if t.Size != nil {
			fn = t.Size.Sample
		}
		g.sizeFn = append(g.sizeFn, fn)
	}
	return g
}

// DeliverFrame implements fabric.FramePort: record a response. A frame
// addressed to this generator dies here — every alias it takes (rxScr's
// payload, msgScr's body) is scratch overwritten before its next read —
// so with a pool armed it is returned to the free list.
//
//lhlint:hotpath
func (g *Generator) DeliverFrame(frame []byte) {
	if g.consume(frame) {
		g.cfg.Frames.Put(frame)
	}
}

// consume processes one delivered frame and reports whether this
// generator was its single terminal consumer (frames for other machines
// — flood copies, foreign traffic — must never be recycled).
//
//lhlint:hotpath
func (g *Generator) consume(frame []byte) bool {
	d := &g.rxScr
	if err := wire.ParseUDPInto(frame, d); err != nil {
		return false
	}
	if d.IP.Dst != g.cfg.Client.IP {
		// Switched fabrics flood frames for unlearned MACs; a frame for
		// another machine must not be matched against our in-flight IDs
		// (all generators number requests from 1).
		return false
	}
	m := &g.msgScr
	if err := rpc.DecodeInto(d.Payload, m); err != nil || m.IsRequest() {
		return false
	}
	p, ok := g.inflight[m.ID]
	if !ok {
		return true
	}
	delete(g.inflight, m.ID)
	g.Received++
	if m.Status != rpc.StatusOK {
		g.Errors++
		return true
	}
	rtt := int64(g.s.Now() - p.at)
	g.Latency.Record(rtt)
	g.PerTarget[p.target].Record(rtt)
	return true
}

// Start begins open-loop generation until stop time (0 = forever). Call
// after attaching the link.
func (g *Generator) Start(until sim.Time) {
	if g.cfg.Arrivals == nil {
		panic("workload: open-loop generator needs an arrival process")
	}
	var fire func()
	fire = func() {
		if g.stopped || (until > 0 && g.s.Now() >= until) {
			return
		}
		g.SendOne()
		g.s.After(g.cfg.Arrivals.Next(g.rng), "workload-arrival", fire)
	}
	g.s.After(g.cfg.Arrivals.Next(g.rng), "workload-first", fire)
}

// Stop halts generation.
func (g *Generator) Stop() { g.stopped = true }

// Outstanding reports requests without responses yet.
func (g *Generator) Outstanding() int { return len(g.inflight) }

// SendOne fires a single request immediately and returns its ID.
func (g *Generator) SendOne() uint64 {
	ti := 0
	if g.cfg.Popularity != nil {
		ti = g.cfg.Popularity.Sample(g.rng)
		if ti >= len(g.cfg.Targets) {
			ti = len(g.cfg.Targets) - 1
		}
	} else if len(g.cfg.Targets) > 1 {
		ti = g.rng.Intn(len(g.cfg.Targets))
	}
	return g.SendTo(g.churned(ti))
}

// churned maps a popularity rank to the current target identity,
// re-shuffling the mapping every ChurnInterval.
func (g *Generator) churned(rank int) int {
	if g.cfg.ChurnInterval <= 0 {
		return rank
	}
	now := g.s.Now()
	if g.churnPerm == nil || now-g.lastChurnAt >= g.cfg.ChurnInterval {
		g.churnPerm = g.rng.Perm(len(g.cfg.Targets))
		g.lastChurnAt = now
		g.churnEpochs++
	}
	return g.churnPerm[rank]
}

// ChurnEpochs reports how many times the rank→target mapping rotated.
func (g *Generator) ChurnEpochs() uint64 { return g.churnEpochs }

// SendTo fires a request at a specific target index.
//
//lhlint:hotpath
func (g *Generator) SendTo(ti int) uint64 {
	t := g.cfg.Targets[ti]
	size := 0
	if fn := g.sizeFn[ti]; fn != nil {
		size = fn(g.rng)
	}
	if size > wire.MaxUDPPayload-rpc.HeaderLen {
		size = wire.MaxUDPPayload - rpc.HeaderLen
	}
	if cap(g.bodyScr) < size {
		// Every body is a prefix of one constant pattern, so the scratch
		// is filled once, when it grows.
		g.bodyScr = make([]byte, size)
		for i := range g.bodyScr {
			g.bodyScr[i] = byte(i)
		}
	}
	body := g.bodyScr[:size]
	id := g.nextID
	g.nextID++
	g.reqScr = rpc.AppendMessage(g.reqScr[:0],
		rpc.Header{Kind: rpc.KindRequest, Service: t.Service, Method: t.Method, ID: id, Flags: t.Flags}, body)
	req := g.reqScr
	src := g.cfg.Client
	src.Port = 10000 + uint16(int(id)%g.cfg.Flows)
	dst := g.cfg.Server
	if t.Server != (wire.Endpoint{}) {
		dst = t.Server
	}
	dst.Port = t.Port
	frame, err := g.cfg.Frames.BuildUDP(src, dst, uint16(id), req)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	g.inflight[id] = pendingReq{at: g.s.Now(), target: ti}
	g.Sent++
	g.link.Send(g.side, frame)
	return id
}

// ClosedLoop is a fixed-concurrency client: N virtual clients each send
// one request and wait for its response before sending the next — the
// standard methodology for peak-throughput measurement.
type ClosedLoop struct {
	*Generator
	concurrency int
	think       sim.Time
}

// NewClosedLoop builds a closed-loop client with the given concurrency
// and optional think time between response and next request.
func NewClosedLoop(s *sim.Sim, cfg Config, link *fabric.Link, side int, concurrency int, think sim.Time) *ClosedLoop {
	if concurrency <= 0 {
		panic("workload: concurrency must be positive")
	}
	return &ClosedLoop{Generator: NewGenerator(s, cfg, link, side), concurrency: concurrency, think: think}
}

// Start launches the virtual clients.
func (c *ClosedLoop) Start() {
	for i := 0; i < c.concurrency; i++ {
		c.sendNext()
	}
}

func (c *ClosedLoop) sendNext() {
	if c.stopped {
		return
	}
	c.SendOne()
}

// DeliverFrame records the response and triggers the next request for
// that virtual client.
func (c *ClosedLoop) DeliverFrame(frame []byte) {
	before := c.Received + c.Errors
	c.Generator.DeliverFrame(frame)
	if c.Received+c.Errors == before {
		return // not one of ours
	}
	if c.think > 0 {
		c.s.After(c.think, "closedloop-think", c.sendNext)
	} else {
		c.sendNext()
	}
}

// SetChurn sets the churn interval; call before Start.
func (g *Generator) SetChurn(d sim.Time) { g.cfg.ChurnInterval = d }
