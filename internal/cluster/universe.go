package cluster

import (
	"fmt"

	"lauberhorn/internal/core"
	"lauberhorn/internal/cpu"
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/sim/shard"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/transport"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// Universe is a built Spec. In a serial build every machine shares one
// simulator (S); a sharded build (Spec.Shards > 1 over a spine-leaf
// fabric) places each leaf's machines on a shard simulator and keeps the
// spine/core hub on S, running them in lockstep conservative windows
// through RunUntil.
type Universe struct {
	// S is the hub simulator: the whole universe in a serial build, the
	// spine/core tier in a sharded one. Code that runs the universe must
	// use Universe.RunUntil (not S.RunUntil) so sharded universes
	// advance every shard.
	S    *sim.Sim
	Spec Spec
	// Sims lists every simulator: just S when serial, shard Sims first
	// and S (the hub) last when sharded.
	Sims []*sim.Sim
	// Switch is the single learning switch joining the machines (nil for
	// Direct and for multi-tier fabrics).
	Switch *fabric.Switch
	// Topo is the multi-tier routed fabric (nil unless Spec.Fabric asks
	// for spine-leaf or ring).
	Topo    *fabric.Topology
	Hosts   []*Host
	Clients []*Client
	// DAGEdges aggregates Spec.DAG's nested calls, one entry per edge in
	// node-declaration order (nil without a DAG).
	DAGEdges []*DAGEdgeStat

	shardSims []*sim.Sim
	exec      *shard.Executor
	// pools are the per-Sim frame free lists (see wire.FramePool's
	// ownership contract).
	pools  map[*sim.Sim]*wire.FramePool
	byName map[string]*Host
}

// FramePool returns the frame free list of the given Sim, or nil for a
// Sim outside the universe.
func (u *Universe) FramePool(s *sim.Sim) *wire.FramePool { return u.pools[s] }

// Sharded reports whether the universe runs on multiple shard Sims.
func (u *Universe) Sharded() bool { return u.exec != nil }

// leafSim is the shard simulator leaf l's subtree lives on.
func (u *Universe) leafSim(l int) *sim.Sim {
	return u.shardSims[l%len(u.shardSims)]
}

// simFor places the machine with the given attach index (clients first,
// then hosts) on its simulator.
func (u *Universe) simFor(attachIdx int) *sim.Sim {
	if u.exec == nil {
		return u.S
	}
	return u.leafSim(attachIdx / u.Spec.Fabric.LeafPorts)
}

// RunUntil advances the whole universe to t: the single simulator when
// serial, every shard in conservative lockstep windows when sharded.
// All simulators sit exactly at t afterwards.
func (u *Universe) RunUntil(t sim.Time) {
	if u.exec != nil {
		u.exec.RunUntil(t)
		return
	}
	u.S.RunUntil(t)
}

// EventsFired sums fired events across every simulator — the
// denominator-independent progress measure e20 meters speedup with.
func (u *Universe) EventsFired() uint64 {
	var n uint64
	for _, s := range u.Sims {
		n += s.Fired()
	}
	return n
}

// Host is one built server machine.
type Host struct {
	Spec HostSpec
	EP   wire.Endpoint
	// Link is the host's network link; LinkSide is the side its NIC
	// occupies (1 on a Direct link, 0 behind a switch).
	Link     *fabric.Link
	LinkSide int
	// Leaf is the index of the host's access switch (0 outside
	// multi-tier fabrics).
	Leaf  int
	Label string

	// Inst is the host's provisioned stack driver; the builder drives it
	// through the stackdrv lifecycle and experiments may reach past it
	// for driver-specific state.
	Inst stackdrv.Instance
	// K is the host kernel (all stacks have one).
	K *kernel.Kernel
	// LH is the Lauberhorn host (nil for stacks whose driver does not
	// expose one; populated via an optional-interface assertion).
	LH *core.Host
	// NICDMA is the descriptor-ring NIC (nil for stacks whose driver does
	// not expose one; populated via an optional-interface assertion).
	NICDMA *nicdma.NIC
	// Trans is the host's transport instance (nil when Spec.Transport is
	// a pass-through scheme like Raw).
	Trans transport.Instance

	// sim is the simulator the host's whole stack lives on: the shard
	// Sim of its leaf in a sharded universe, Universe.S otherwise.
	sim *sim.Sim

	measuredServed uint64
	measuredEnergy float64
}

// Sim returns the simulator the host lives on.
func (h *Host) Sim() *sim.Sim { return h.sim }

// Client is one built load-generating machine.
type Client struct {
	Spec ClientSpec
	EP   wire.Endpoint
	Gen  *workload.Generator
	Link *fabric.Link
	// Leaf is the index of the client's access switch (0 outside
	// multi-tier fabrics).
	Leaf int
	// TargetHosts[i] names the host behind Gen's target i, for per-host
	// result aggregation.
	TargetHosts []string
	// Trans is the client's transport instance (nil for pass-through
	// schemes).
	Trans transport.Instance

	// port is the frame port the link delivers into: the generator, or
	// the transport's wrapper around it (Direct builds attach it in
	// phase 3, so it is kept here).
	port fabric.FramePort

	measuredSent uint64
}

// newHost builds the host's stack substrate through its registered
// driver (phase 1: no links, no services, no events, no randomness).
func newHost(u *Universe, spec *HostSpec, index int) *Host {
	h := &Host{Spec: *spec, EP: spec.Endpoint, Label: spec.Stack.Label()}
	h.sim = u.simFor(len(u.Spec.Clients) + index)
	if h.EP == (wire.Endpoint{}) {
		h.EP = autoHostEP(index)
	}
	ent, ok := stackdrv.Lookup(spec.Stack)
	if !ok {
		// Validate already rejected unknown kinds; this guards direct
		// misuse of newHost.
		panic(fmt.Sprintf("cluster: unknown stack %d", int(spec.Stack)))
	}
	svcs := make([]stackdrv.Service, len(spec.Services))
	for i, ss := range spec.Services {
		svcs[i] = stackdrv.Service{ID: ss.ID, Port: ss.Port, MinWorkers: ss.MinWorkers, Desc: ss.desc()}
	}
	h.Inst = ent.New(stackdrv.HostParams{
		Sim: h.sim, HostName: spec.Name, Endpoint: h.EP, Cores: spec.Cores,
		Services: svcs, NIC: spec.NIC,
		Fabric: u.Spec.fabricInfo(len(u.Spec.Clients) + index),
		Pool:   u.pools[h.sim],
	})
	h.K = h.Inst.Kernel()
	// Optional driver views: experiments reach for the concrete
	// Lauberhorn host (async handlers, ablations) and the DMA NIC
	// (filter/queue statistics) when the driver has them.
	if v, ok := h.Inst.(interface{ LauberhornHost() *core.Host }); ok {
		h.LH = v.LauberhornHost()
	}
	if v, ok := h.Inst.(interface{ DMANIC() *nicdma.NIC }); ok {
		h.NICDMA = v.DMANIC()
	}
	return h
}

// attachLink wires the host to the network (phase 3).
func (h *Host) attachLink(u *Universe, net fabric.NetParams) {
	h.Trans = u.newTransport(h.sim, h.EP)
	switch {
	case u.Spec.Direct:
		// The single client already owns the link; the host takes side 1,
		// exactly as the hand-wired rigs did.
		h.Link = u.Clients[0].Link
		h.LinkSide = 1
		h.Link.Attach(u.Clients[0].port, wrapPort(h.Trans, h.Inst.FramePort()))
	case u.Topo != nil:
		h.Link = u.newLink(h.sim, net)
		h.LinkSide = 0
		h.Leaf = u.Topo.Attach(h.EP.MAC, h.Link, wrapPort(h.Trans, h.Inst.FramePort()))
	default:
		h.Link = u.newLink(u.S, net)
		h.LinkSide = 0
		port := u.Switch.AttachPort(h.Link, 1)
		h.Link.Attach(wrapPort(h.Trans, h.Inst.FramePort()), port)
	}
	if h.Trans != nil {
		h.Trans.BindLink(h.Link, h.LinkSide)
	}
	h.Inst.AttachLink(h.Link, h.LinkSide)
}

// Served returns requests completed by the host across all its services.
func (h *Host) Served() uint64 {
	var n uint64
	for _, ss := range h.Spec.Services {
		n += h.ServedFor(ss.ID)
	}
	return n
}

// ServedFor returns requests completed for one service ID, or panics
// when the host does not export it — misnaming a service in an
// experiment is the same programming error as misnaming a host.
func (h *Host) ServedFor(svc uint32) uint64 {
	n, ok := h.Inst.ServedFor(svc)
	if !ok {
		panic(fmt.Sprintf("cluster: host %q exports no service %d", h.Spec.Name, svc))
	}
	return n
}

// Cores exposes the host's CPU cores for residency/energy accounting.
func (h *Host) Cores() []*cpu.Core { return h.K.Cores() }

// Energy returns total host CPU energy in joules under the default power
// model.
func (h *Host) Energy() float64 {
	return cpu.TotalEnergy(h.Cores(), cpu.DefaultPowerModel())
}

// BusyTime sums user+kernel residency across the host's cores.
func (h *Host) BusyTime() sim.Time {
	var t sim.Time
	for _, c := range h.Cores() {
		t += c.BusyTime()
	}
	return t
}

// CyclesPerRequest returns busy cycles per served request.
func (h *Host) CyclesPerRequest() float64 {
	served := h.Served()
	if served == 0 {
		return 0
	}
	var cyc float64
	for _, c := range h.Cores() {
		cyc += c.Cycles(c.BusyTime())
	}
	return cyc / float64(served)
}

// MeasuredServed returns requests the host completed inside the
// measurement window of the last Universe.RunMeasured.
func (h *Host) MeasuredServed() uint64 { return h.measuredServed }

// MeasuredEnergy returns joules the host's cores burned over the same
// span MeasuredServed counts (measurement window plus the bounded
// drain), so energy-per-request ratios compare like with like instead of
// folding warmup energy in.
func (h *Host) MeasuredEnergy() float64 { return h.measuredEnergy }

// newClient builds a client machine: its link (and switch port), its
// generator, and the attachment between them (phase 2).
func newClient(u *Universe, spec *ClientSpec, index int, net fabric.NetParams) *Client {
	c := &Client{Spec: *spec, EP: spec.Endpoint}
	if c.EP == (wire.Endpoint{}) {
		c.EP = autoClientEP(index)
	}
	s := u.simFor(index)

	// Resolve targets: an empty list means every service on every host.
	specTargets := spec.Targets
	if len(specTargets) == 0 {
		for _, h := range u.Hosts {
			for _, ss := range h.Spec.Services {
				specTargets = append(specTargets, TargetSpec{Host: h.Spec.Name, Service: ss.ID})
			}
		}
	}
	// The wire targets: the first target's host is the generator's
	// primary server; targets on other hosts carry per-target endpoint
	// overrides.
	primary := u.byName[specTargets[0].Host]
	targets := make([]workload.Target, 0, len(specTargets))
	for _, ts := range specTargets {
		host := u.byName[ts.Host]
		var ss *ServiceSpec
		for i := range host.Spec.Services {
			if host.Spec.Services[i].ID == ts.Service {
				ss = &host.Spec.Services[i]
				break
			}
		}
		size := ts.Size
		if size == nil {
			size = spec.Size
		}
		t := workload.Target{
			Port:    ss.Port,
			Service: ss.ID,
			Method:  1,
			Size:    size,
			Flags:   ts.Flags,
		}
		if host != primary {
			t.Server = host.EP
		}
		c.TargetHosts = append(c.TargetHosts, host.Spec.Name)
		targets = append(targets, t)
	}

	flows := spec.Flows
	if flows <= 0 {
		flows = 256
	}
	cfg := workload.Config{
		Client:        c.EP,
		Server:        primary.EP,
		Targets:       targets,
		Arrivals:      spec.Arrivals,
		Popularity:    spec.Popularity,
		Flows:         flows,
		ChurnInterval: spec.ChurnInterval,
		Frames:        u.pools[s],
	}
	if !spec.InheritRNG {
		cfg.Seed = DeriveSeed(u.Spec.Seed, index)
	}

	c.Link = u.newLink(s, net)
	c.Trans = u.newTransport(s, c.EP)
	switch {
	case u.Spec.Direct:
		c.Gen = workload.NewGenerator(s, cfg, c.Link, 0)
		c.port = wrapPort(c.Trans, c.Gen)
		// The host attaches the far side in phase 3.
	case u.Topo != nil:
		c.Gen = workload.NewGenerator(s, cfg, c.Link, 0)
		c.Leaf = u.Topo.Attach(c.EP.MAC, c.Link, wrapPort(c.Trans, c.Gen))
	default:
		port := u.Switch.AttachPort(c.Link, 1)
		c.Gen = workload.NewGenerator(s, cfg, c.Link, 0)
		c.Link.Attach(wrapPort(c.Trans, c.Gen), port)
	}
	if c.Trans != nil {
		c.Trans.BindLink(c.Link, 0)
	}
	return c
}

// newLink builds a machine's access link on s. Access links are never
// split, so both sides recycle the frames they drop into s's pool.
func (u *Universe) newLink(s *sim.Sim, net fabric.NetParams) *fabric.Link {
	l := fabric.NewLink(s, net)
	p := u.pools[s]
	l.SetPool(0, p)
	l.SetPool(1, p)
	return l
}

// newTransport provisions one endpoint's transport instance, or nil for
// pass-through schemes (Raw) — nil means the build wires the exact
// pre-transport path, with no tap and no port wrapper.
func (u *Universe) newTransport(s *sim.Sim, ep wire.Endpoint) transport.Instance {
	e, ok := transport.Lookup(u.Spec.Transport)
	if !ok {
		// Validate already rejected unknown kinds; this guards direct
		// misuse of the constructors.
		panic(fmt.Sprintf("cluster: unknown transport %d", int(u.Spec.Transport)))
	}
	if e.New == nil {
		return nil
	}
	return e.New(transport.Params{Sim: s, Self: ep, Pool: u.pools[s]})
}

// wrapPort interposes the transport's receive half around a machine's
// frame port (identity when the machine has no transport).
func wrapPort(tr transport.Instance, inner fabric.FramePort) fabric.FramePort {
	if tr == nil {
		return inner
	}
	return tr.WrapPort(inner)
}

// MeasuredSent returns requests the client sent inside the measurement
// window of the last Universe.RunMeasured.
func (c *Client) MeasuredSent() uint64 { return c.measuredSent }

// AccessLink returns the named machine's (host or client) access link,
// or panics — fault targets are validated with the spec, so a miss here
// is a programming error.
func (u *Universe) AccessLink(name string) *fabric.Link {
	if h, ok := u.byName[name]; ok {
		return h.Link
	}
	for _, c := range u.Clients {
		if c.Spec.Name == name {
			return c.Link
		}
	}
	panic(fmt.Sprintf("cluster: no machine %q", name))
}

// scheduleFault lowers one validated FaultSpec onto the simulator.
func (u *Universe) scheduleFault(f FaultSpec) {
	if f.Kind == FaultDrain {
		var sw *fabric.Switch
		switch {
		case f.Leaf < 0:
			sw = u.Topo.Spines[f.Spine]
		case u.Topo != nil:
			sw = u.Topo.Leaves[f.Leaf]
		default:
			sw = u.Switch
		}
		until := sim.Time(0)
		if f.Duration > 0 {
			until = f.At + f.Duration
		}
		// The switch's own simulator: a leaf switch lives on its shard's
		// Sim in a sharded universe.
		fabric.ScheduleDrain(sw.Sim(), sw, f.At, until)
		return
	}
	var l *fabric.Link
	interSwitch := false
	switch {
	case f.Machine != "":
		l = u.AccessLink(f.Machine)
	case u.Spec.Fabric.RingSwitches > 0:
		l = u.Topo.RingLink(f.Leaf)
		interSwitch = true
	default:
		l = u.Topo.Uplink(f.Leaf, f.Spine)
		interSwitch = true
	}
	var faults []fabric.LinkFault
	switch f.Kind {
	case FaultLinkDown:
		faults = []fabric.LinkFault{{At: f.At, Up: false}}
		if f.Duration > 0 {
			faults = append(faults, fabric.LinkFault{At: f.At + f.Duration, Up: true})
		}
	case FaultLinkFlap:
		faults = fabric.Flap(f.At, f.DownFor, f.UpFor, f.Cycles)
	}
	if interSwitch {
		// Inter-switch links toggle per side on each side's own Sim —
		// serial universes use the same form so the per-shard event
		// sequences of a sharded build match the serial ones exactly.
		fabric.ScheduleLinkFaultsSided(l, faults)
		return
	}
	// An access link lives wholly on one machine's Sim (both Sim(0) and
	// Sim(1) name it).
	fabric.ScheduleLinkFaults(l.Sim(0), l, faults)
}

// DroppedFrames sums every frame the universe's network lost: inside the
// fabric (drained switches, dead ECMP groups, downed or full inter-switch
// links), on each machine's access link, and at each host NIC's carrier
// check (frames the driver refused to transmit toward a downed link,
// which never reach the link's own counters). It is the "lost" column a
// fault experiment reports next to served counts.
func (u *Universe) DroppedFrames() uint64 {
	var n uint64
	if u.Topo != nil {
		n += u.Topo.Dropped()
	}
	if u.Switch != nil {
		n += u.Switch.Dropped
	}
	seen := make(map[*fabric.Link]bool)
	for _, h := range u.Hosts {
		if !seen[h.Link] {
			seen[h.Link] = true
			n += h.Link.DroppedTotal()
		}
		if h.LH != nil {
			n += h.LH.NIC.Stats().TxNoCarrier
		}
		if h.NICDMA != nil {
			n += h.NICDMA.Stats().TxNoCarrier
		}
	}
	for _, c := range u.Clients {
		if !seen[c.Link] {
			seen[c.Link] = true
			n += c.Link.DroppedTotal()
		}
	}
	return n
}

// eachLink visits every distinct link in the universe — access links
// (host and client, deduplicated for Direct) plus, through the visitor
// the Topology exposes, nothing extra here: fabric-interior links are
// aggregated by the Topology's own counters.
func (u *Universe) eachLink(fn func(*fabric.Link)) {
	seen := make(map[*fabric.Link]bool)
	for _, h := range u.Hosts {
		if !seen[h.Link] {
			seen[h.Link] = true
			fn(h.Link)
		}
	}
	for _, c := range u.Clients {
		if !seen[c.Link] {
			seen[c.Link] = true
			fn(c.Link)
		}
	}
}

// ECNMarks sums CE marks applied by every link in the universe: the
// fabric's inter-switch links plus each machine's access link. Zero
// unless NetParams.ECNThreshold armed marking somewhere.
func (u *Universe) ECNMarks() uint64 {
	var n uint64
	if u.Topo != nil {
		n += u.Topo.Marked()
	}
	u.eachLink(func(l *fabric.Link) { n += l.MarkedTotal() })
	return n
}

// PeakNetBacklog is the worst transmit-queue depth (as serialization
// time) any link direction in the universe reached — the congestion
// high-water mark a fault or incast experiment reports next to drops.
func (u *Universe) PeakNetBacklog() sim.Time {
	var peak sim.Time
	note := func(b sim.Time) {
		if b > peak {
			peak = b
		}
	}
	if u.Topo != nil {
		note(u.Topo.PeakBacklog())
	}
	u.eachLink(func(l *fabric.Link) {
		note(l.PeakBacklog(0))
		note(l.PeakBacklog(1))
	})
	return peak
}

// TransportStats sums transport counters across every machine's
// instance (all zero for pass-through schemes).
func (u *Universe) TransportStats() transport.Stats {
	var st transport.Stats
	for _, h := range u.Hosts {
		if h.Trans != nil {
			st.Add(h.Trans.Stats())
		}
	}
	for _, c := range u.Clients {
		if c.Trans != nil {
			st.Add(c.Trans.Stats())
		}
	}
	return st
}

// Host returns the built host with the given spec name, or panics —
// misnaming a host in an experiment is a programming error.
func (u *Universe) Host(name string) *Host {
	h, ok := u.byName[name]
	if !ok {
		panic(fmt.Sprintf("cluster: no host %q", name))
	}
	return h
}

// StartClients begins open-loop generation on every client that has an
// arrival process, returning how many it started (clients without one
// are driven manually, e.g. the nested-RPC experiment).
func (u *Universe) StartClients() int {
	started := 0
	for _, c := range u.Clients {
		if c.Spec.Arrivals != nil {
			c.Gen.Start(0)
			started++
		}
	}
	return started
}

// RunMeasured warms the universe for warm, resets every client's latency
// statistics, runs for measure, stops the clients, and drains in-flight
// responses (bounded). It is the one measurement protocol: the
// single-server experiment rigs are universes too.
func (u *Universe) RunMeasured(warm, measure sim.Time) {
	if u.StartClients() == 0 {
		panic("cluster: RunMeasured on a universe with no open-loop clients")
	}
	u.RunUntil(warm)
	hostServed0 := make([]uint64, len(u.Hosts))
	hostEnergy0 := make([]float64, len(u.Hosts))
	for i, h := range u.Hosts {
		hostServed0[i] = h.Served()
		hostEnergy0[i] = h.Energy()
	}
	clientSent0 := make([]uint64, len(u.Clients))
	for i, c := range u.Clients {
		clientSent0[i] = c.Gen.Sent
		c.Gen.Latency.Reset()
		for _, hist := range c.Gen.PerTarget {
			hist.Reset()
		}
	}
	for _, e := range u.DAGEdges {
		e.Lat.Reset()
		e.Violations = 0
	}
	u.RunUntil(warm + measure)
	for _, c := range u.Clients {
		c.Gen.Stop()
	}
	u.RunUntil(warm + measure + 20*sim.Millisecond)
	for i, h := range u.Hosts {
		h.measuredServed = h.Served() - hostServed0[i]
		h.measuredEnergy = h.Energy() - hostEnergy0[i]
	}
	for i, c := range u.Clients {
		c.measuredSent = c.Gen.Sent - clientSent0[i]
	}
}

// MergedLatency merges every client's RTT histogram into one.
func (u *Universe) MergedLatency() *stats.Histogram {
	out := stats.NewHistogram()
	for _, c := range u.Clients {
		out.Merge(c.Gen.Latency)
	}
	return out
}

// HostLatency merges, across all clients, the per-target RTT histograms
// of targets served by the named host.
func (u *Universe) HostLatency(name string) *stats.Histogram {
	out := stats.NewHistogram()
	for _, c := range u.Clients {
		for i, hn := range c.TargetHosts {
			if hn == name {
				out.Merge(c.Gen.PerTarget[i])
			}
		}
	}
	return out
}

// TotalMeasuredServed sums MeasuredServed over the hosts.
func (u *Universe) TotalMeasuredServed() uint64 {
	var n uint64
	for _, h := range u.Hosts {
		n += h.MeasuredServed()
	}
	return n
}

// TotalMeasuredSent sums MeasuredSent over the clients.
func (u *Universe) TotalMeasuredSent() uint64 {
	var n uint64
	for _, c := range u.Clients {
		n += c.measuredSent
	}
	return n
}
