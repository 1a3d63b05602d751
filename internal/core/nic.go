package core

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/mesi"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
	"lauberhorn/internal/trace"
	"lauberhorn/internal/wire"
)

// Config parameterizes the Lauberhorn NIC.
type Config struct {
	// Fabric must support coherence; it supplies all line-protocol
	// latencies.
	Fabric fabric.Params
	// Local is this host's network identity.
	Local wire.Endpoint

	// Decoder pipeline stage costs (Fig. 3). HeaderParse covers the MAC/
	// IP/UDP streaming decoders; DecodeFixed + DecodePerByte the RPC
	// deserializer (hardware accelerator in the Optimus Prime class);
	// the optional stages run only for flagged messages.
	HeaderParse       sim.Time
	DecodeFixed       sim.Time
	DecodePerByte     sim.Time
	DecryptPerByte    sim.Time
	DecompressPerByte sim.Time

	// TxBuild is the NIC-side cost to assemble a response frame.
	TxBuild sim.Time

	// TryAgainTimeout bounds how long a load may stay deferred before the
	// NIC answers with a TryAgain dummy (§5.1: 15 ms, well under the
	// coherence protocol's bus-error timeout).
	TryAgainTimeout sim.Time

	// SvcQueueDepth bounds the NIC's per-service request queue; excess
	// requests are dropped (and counted), as a real NIC's SRAM would
	// overflow.
	SvcQueueDepth int

	// BacklogHighWater is the per-service queue depth at which the NIC
	// notifies the OS to find it a core (§5.2 dynamic scaling).
	BacklogHighWater int

	// DMAThreshold switches large messages to a DMA data path (§6: "for
	// large messages ... it is best to revert back to DMA-based
	// transfers"). Bodies of at least this many bytes are DMA'd to host
	// memory and the control line carries a buffer descriptor instead of
	// inline+aux data; responses at least this large are pulled back by
	// DMA. Zero disables the fallback (pure cache-line transfers).
	DMAThreshold int
	// DMA supplies the DMA-engine latencies for the fallback path; it
	// must have HasDMA when DMAThreshold > 0.
	DMA fabric.Params
}

// DefaultConfig returns the ECI-based configuration used by the
// experiments.
func DefaultConfig(local wire.Endpoint) Config {
	return Config{
		Fabric:            fabric.ECI,
		Local:             local,
		HeaderParse:       120 * sim.Nanosecond,
		DecodeFixed:       150 * sim.Nanosecond,
		DecodePerByte:     sim.Time(200), // 0.2 ns/B ≈ 5 GB/s decoder
		DecryptPerByte:    sim.Time(250),
		DecompressPerByte: sim.Time(400),
		TxBuild:           150 * sim.Nanosecond,
		TryAgainTimeout:   15 * sim.Millisecond,
		SvcQueueDepth:     256,
		BacklogHighWater:  2,
		DMAThreshold:      4096,
		DMA:               fabric.ECIWithDMA,
	}
}

// Stats counts NIC activity; the experiments read these.
type Stats struct {
	RxFrames     uint64
	RxBad        uint64
	RxDropped    uint64
	RxFiltered   uint64 // not addressed to this host (switched fabrics)
	TxFrames     uint64
	TxNoCarrier  uint64 // staged frames dropped because the link was down
	FastDispatch uint64 // request answered a pending user-mode load
	KernDispatch uint64 // request answered a pending kernel-mode load
	SoftNotify   uint64 // no pending load: OS notified in software
	TryAgains    uint64
	Retires      uint64
	ClientReqs   uint64           // outbound RPCs transmitted
	ClientResps  uint64           // outbound RPC responses delivered
	Backlog      *stats.Histogram // queue depth at enqueue
}

// Endpoint is the NIC-side state of one registered service.
type Endpoint struct {
	Svc  uint32
	PID  int
	Port uint16 // UDP destination port the service answers on
	// methods holds the per-method code/data pointers the OS pushed,
	// scanned per request: a service has a handful of methods.
	methods []methodInfo

	queue fifo.Queue[*inflight] // decoded requests awaiting dispatch

	// waiters are this endpoint's deferred loads, FIFO — cores stalled on
	// the service's control lines.
	waiters []*pendingLoad

	// minWorkers is the endpoint's poller floor: at or above it, the
	// retire policy may hand the core to a starved service.
	minWorkers int

	// tel is the service's §6 telemetry record, allocated on its first
	// request.
	tel *SvcTelemetry
}

// Pollers returns the number of cores stalled on this endpoint.
func (ep *Endpoint) Pollers() int { return len(ep.waiters) }

// starved reports whether the endpoint has queued work and no poller.
func (ep *Endpoint) starved() bool { return ep.queue.Len() > 0 && len(ep.waiters) == 0 }

// method returns the info of the service's method id, or nil; like
// rpc.ServiceDesc.Method, the first registration of an ID wins.
//
//lhlint:hotpath
func (ep *Endpoint) method(id uint16) *methodInfo {
	for i := range ep.methods {
		if ep.methods[i].id == id {
			return &ep.methods[i]
		}
	}
	return nil
}

type methodInfo struct {
	id   uint16
	code uint64
	data uint64
}

// inflight tracks one request from decode to response transmit.
type inflight struct {
	serial   uint64
	ep       *Endpoint
	method   *methodInfo
	rpcID    uint64
	body     []byte // aliases frame
	frame    []byte // the delivered request, kept until the response is encoded
	client   wire.Endpoint
	arriveAt sim.Time
	// viaDMA marks a large request whose body was DMA'd to host memory
	// (§6 fallback); the dispatch line then carries a buffer descriptor.
	viaDMA bool
	// dmaResp marks that the host placed the response in a DMA buffer;
	// the NIC pulls it before transmitting.
	dmaResp bool
	// aux carries the response body bytes beyond the inline chunk (the
	// contents of the aux cache lines, or of the DMA buffer). The buffer
	// comes from the NIC's auxFree and returns to it once
	// transmitResponse has merged it.
	aux []byte
}

// coreSlot is the NIC's state for one core. The protocol is organized
// per core (Fig. 4): a core polls one pair of control lines, so it parks
// at most one load and owes at most one response.
type coreSlot struct {
	// pending is the core's deferred load, if any.
	pending *pendingLoad
	// owed is the request whose response the core is writing into line
	// owedAt. It is set at dispatch and taken when the core loads the
	// paired line, or when FlushChannel recalls the line.
	owed   *inflight
	owedAt mesi.LineAddr
	// ep is the endpoint of the last request dispatched to the core: the
	// service whose user loop the core runs, so that the loop's loads
	// resolve their endpoint without a lookup.
	ep *Endpoint
}

// pendingLoad is a deferred fill: a core stalled on a control line.
// Entries are pooled on the NIC (plFree) with the TryAgain timer callback
// bound once at allocation, so parking a load allocates nothing in steady
// state.
type pendingLoad struct {
	n      *NIC
	addr   mesi.LineAddr
	coreID int
	// ep is the endpoint whose service line the core loaded; nil for
	// kernel and client lines.
	ep      *Endpoint
	kernel  bool
	respond func(data []byte)
	timer   *sim.Event
	fire    func()
}

// recallPend carries a response-extraction recall's parameters through the
// directory's Recall callback; entries are pooled on the NIC (rcFree) with
// the callback bound once at allocation.
type recallPend struct {
	n *NIC
	// req is the request whose response the recalled line holds, and
	// serial its serial when the recall was issued.
	req     *inflight
	serial  uint64
	addr    mesi.LineAddr
	region  int
	svc     uint32
	coreID  int
	respond func([]byte) // nil when no follow-up load answer is needed
	fire    func([]byte)
}

// NIC is the Lauberhorn device model. It implements mesi.Backing (it is
// the home agent for all control lines) and fabric.FramePort (it
// terminates the Ethernet link).
type NIC struct {
	sim *sim.Sim
	cfg Config
	dir *mesi.Directory

	link *fabric.Link
	side int
	// frames, when non-nil (cluster-built hosts), recycles frame buffers:
	// the NIC builds every frame it transmits from the pool and Puts
	// every frame it terminally consumes (see wire.FramePool's ownership
	// contract).
	frames *wire.FramePool

	// endpoints and byPort find an endpoint by service ID and by UDP
	// port. Past the port demux, a request reaches its endpoint through
	// pointers (inflight, pending load, core slot), not these maps.
	endpoints map[uint32]*Endpoint
	byPort    map[uint16]*Endpoint

	// cores holds each core's slot, indexed by core ID. Grown on demand
	// for out-of-range IDs.
	cores []coreSlot
	// kernelOrder lists the deferred loads of cores whose kernel loop is
	// stalled, FIFO.
	kernelOrder []*pendingLoad

	nextSerial uint64

	// auxFree recycles the response aux buffers (inflight.aux).
	auxFree [][]byte

	// sched mirror: per-core PID pushed by the kernel (§4: the OS keeps
	// the NIC updated with scheduling state).
	coreProc   []int
	schedPush  uint64
	ipID       uint16
	decodeBusy sim.Time

	// Preallocated bound callbacks for the per-packet event hot paths:
	// frames and decoded messages wait in FIFO staging queues and a single
	// reused func value fires them, so neither transmit nor decode
	// allocates a closure per packet. FIFO is sound because TxBuild is
	// constant and decode completions are monotone (decodeBusy).
	txFn  func()
	txq   fifo.Queue[[]byte]
	decFn func()
	decq  fifo.Queue[decoded]

	// Per-NIC staging scratch: the receive path parses frames into rxScr
	// and pushes it by value onto decq; decodeDone pops the head into
	// dispScr before dispatching. Both are reused every packet, and
	// txRPC gathers each message straight into its frame, so the
	// steady-state receive/transmit paths allocate nothing.
	rxScr   decoded
	dispScr decoded
	// lineScr backs dispatch/marker control-line builds whose consumer
	// copies the line synchronously (the directory's deliver path); the
	// viaDMA dispatch, which parks its line across simulated time, still
	// allocates fresh.
	lineScr []byte

	// Free lists: inflight requests, deferred loads, and response-recall
	// pendings are recycled so the steady-state dispatch path allocates
	// nothing per request.
	ifFree []*inflight
	plFree []*pendingLoad
	rcFree []*recallPend

	// epOrder lists endpoints in registration order, for oldestBacklog's
	// scan and the telemetry report.
	epOrder []*Endpoint
	// starved counts the endpoints with queued work and no poller
	// (Endpoint.starved). pushReq, popReq, addWaiter and dropWaiter keep
	// it, so the retire policy asks for it without a scan.
	starved int

	// Client (outbound RPC) state.
	clientChans  map[uint32]*clientChanNIC
	nextChanID   uint32
	clientCalls  map[uint64]*clientCall
	clientStaged map[mesi.LineAddr]struct{}
	clientAuxIn  map[uint64][]byte
	clientAuxOut map[uint64][]byte
	// arp holds AddARP's entries; peerARP is the cluster's table of every
	// host, shared read-only by all NICs of a universe (see resolve).
	arp     map[wire.IP]wire.MAC
	peerARP map[wire.IP]wire.MAC

	tracer *trace.Tracer

	stats Stats

	// NotifyOS is the software slow path: invoked (once per transition
	// to non-empty with no poller) to tell the OS a service has work but
	// no core. The host runtime wires this to an IRQ + wakeup.
	NotifyOS func(svc uint32)

	// OnBacklog is invoked when a service's queue crosses the high-water
	// mark: the OS should find it another core.
	OnBacklog func(svc uint32)

	// RetirePolicy, when true, lets the NIC convert a TryAgain into a
	// Retire if other services are starved while this endpoint idles
	// (NIC-driven core reallocation).
	RetirePolicy bool

	// NoKernelDispatch disables the kernel-line dispatch path (ablation
	// E10: the NIC no longer knows which cores run kernel pollers, as if
	// scheduling state were not shared). Requests for services without a
	// polling core then wait on the software path.
	NoKernelDispatch bool
}

// NewNIC creates a Lauberhorn NIC with nCores worth of kernel endpoints.
func NewNIC(s *sim.Sim, cfg Config, nCores int) *NIC {
	if !cfg.Fabric.HasCoherence {
		panic(fmt.Sprintf("core: fabric %s has no coherence; Lauberhorn requires it", cfg.Fabric.Name))
	}
	if cfg.SvcQueueDepth <= 0 {
		cfg.SvcQueueDepth = 256
	}
	n := &NIC{
		sim:          s,
		cfg:          cfg,
		endpoints:    make(map[uint32]*Endpoint),
		byPort:       make(map[uint16]*Endpoint),
		cores:        make([]coreSlot, nCores),
		coreProc:     make([]int, nCores),
		nextSerial:   1,
		clientChans:  make(map[uint32]*clientChanNIC),
		clientCalls:  make(map[uint64]*clientCall),
		clientStaged: make(map[mesi.LineAddr]struct{}),
		clientAuxIn:  make(map[uint64][]byte),
		clientAuxOut: make(map[uint64][]byte),
	}
	if cfg.DMAThreshold > 0 && !cfg.DMA.HasDMA {
		panic("core: DMAThreshold set but DMA fabric has no DMA engine")
	}
	n.txFn = n.txFire
	n.decFn = n.decodeDone
	n.stats.Backlog = stats.NewHistogram()
	n.dir = mesi.NewDirectory(s, cfg.Fabric, n)
	return n
}

// pendingOn returns the deferred load parked on coreID, if any.
func (n *NIC) pendingOn(coreID int) *pendingLoad {
	if uint(coreID) >= uint(len(n.cores)) {
		return nil
	}
	return n.cores[coreID].pending
}

// slot returns coreID's slot, growing the table for an out-of-range ID.
// The pointer is valid until the next call that may grow the table.
//
//lhlint:hotpath
func (n *NIC) slot(coreID int) *coreSlot {
	if coreID >= len(n.cores) {
		n.cores = append(n.cores, make([]coreSlot, coreID+1-len(n.cores))...)
	}
	return &n.cores[coreID]
}

// takeOwed removes and returns the request whose response coreID owes in
// line at, or nil if the core owes none there.
//
//lhlint:hotpath
func (n *NIC) takeOwed(coreID int, at mesi.LineAddr) *inflight {
	if uint(coreID) >= uint(len(n.cores)) {
		return nil
	}
	s := &n.cores[coreID]
	req := s.owed
	if req == nil || s.owedAt != at {
		return nil
	}
	s.owed = nil
	return req
}

// owedBy returns the request coreID owes a response for, if its serial
// is serial. The host's calls about a request (AuxBody, DMABody and the
// response writes) come from the worker of the core it was dispatched
// to, so they resolve through that core's slot.
//
//lhlint:hotpath
func (n *NIC) owedBy(coreID int, serial uint64) *inflight {
	if uint(coreID) >= uint(len(n.cores)) {
		return nil
	}
	req := n.cores[coreID].owed
	if req == nil || req.serial != serial {
		return nil
	}
	return req
}

// endpointOn resolves the endpoint of service line svc that coreID
// loaded: in steady state the core's slot names it; otherwise (a load on
// a line the NIC never dispatched into) it is looked up, nil if svc is
// unregistered.
//
//lhlint:hotpath
func (n *NIC) endpointOn(coreID int, svc uint32) *Endpoint {
	if uint(coreID) < uint(len(n.cores)) {
		if ep := n.cores[coreID].ep; ep != nil && ep.Svc == svc {
			return ep
		}
	}
	return n.endpoints[svc]
}

// pushReq queues req on ep, counting ep as starved if it gains work with
// no poller.
//
//lhlint:hotpath
func (n *NIC) pushReq(ep *Endpoint, req *inflight) {
	if ep.queue.Len() == 0 && len(ep.waiters) == 0 {
		n.starved++
	}
	ep.queue.Push(req)
}

// popReq dequeues ep's oldest request, uncounting ep as starved if that
// empties its queue.
//
//lhlint:hotpath
func (n *NIC) popReq(ep *Endpoint) *inflight {
	req := ep.queue.Pop()
	if ep.queue.Len() == 0 && len(ep.waiters) == 0 {
		n.starved--
	}
	return req
}

// addWaiter parks p on ep, uncounting ep as starved if p is its first
// poller.
//
//lhlint:hotpath
func (n *NIC) addWaiter(ep *Endpoint, p *pendingLoad) {
	if len(ep.waiters) == 0 && ep.queue.Len() > 0 {
		n.starved--
	}
	ep.waiters = append(ep.waiters, p)
}

// dropWaiter unparks p from ep, counting ep as starved if p was its last
// poller and work is queued.
//
//lhlint:hotpath
func (n *NIC) dropWaiter(ep *Endpoint, p *pendingLoad) {
	ws := ep.waiters
	for i, w := range ws {
		if w == p {
			copy(ws[i:], ws[i+1:])
			ws[len(ws)-1] = nil
			ep.waiters = ws[:len(ws)-1]
			break
		}
	}
	if len(ep.waiters) == 0 && ep.queue.Len() > 0 {
		n.starved++
	}
}

// Directory returns the coherence directory the NIC homes.
func (n *NIC) Directory() *mesi.Directory { return n.dir }

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// AttachLink connects the NIC to the network.
func (n *NIC) AttachLink(l *fabric.Link, side int) {
	n.link = l
	n.side = side
}

// RegisterService installs an endpoint: the OS pushes the service's
// demultiplex key (UDP port), process, and per-method code/data pointers —
// the state a traditional NIC never gets to see (§4: "it should have
// access to all the relevant OS state").
func (n *NIC) RegisterService(svc *rpc.ServiceDesc, pid int, port uint16, minWorkers int) *Endpoint {
	if _, dup := n.endpoints[svc.ID]; dup {
		panic(fmt.Sprintf("core: service %d already registered", svc.ID))
	}
	if _, dup := n.byPort[port]; dup {
		panic(fmt.Sprintf("core: port %d already registered", port))
	}
	ep := &Endpoint{
		Svc:        svc.ID,
		PID:        pid,
		Port:       port,
		methods:    make([]methodInfo, 0, len(svc.Methods)),
		minWorkers: minWorkers,
	}
	for _, m := range svc.Methods {
		ep.methods = append(ep.methods, methodInfo{id: m.ID, code: m.CodeAddr, data: m.DataAddr})
	}
	n.endpoints[svc.ID] = ep
	n.byPort[port] = ep
	n.epOrder = append(n.epOrder, ep)
	return ep
}

// ---- hot-path free lists ----

// newInflight returns a zeroed request-tracking entry from the free list.
//
//lhlint:hotpath
func (n *NIC) newInflight() *inflight {
	if k := len(n.ifFree); k > 0 {
		req := n.ifFree[k-1]
		n.ifFree = n.ifFree[:k-1]
		return req
	}
	return &inflight{}
}

// freeInflight recycles a finished request. Callers must guarantee no
// reference survives — the DMA-response path, whose transmit closure
// retains the request, never releases.
//
//lhlint:hotpath
func (n *NIC) freeInflight(req *inflight) {
	*req = inflight{}
	n.ifFree = append(n.ifFree, req)
}

// newPendingLoad returns a deferred-load entry with its TryAgain callback
// bound once at allocation.
//
//lhlint:hotpath
func (n *NIC) newPendingLoad() *pendingLoad {
	if k := len(n.plFree); k > 0 {
		p := n.plFree[k-1]
		n.plFree = n.plFree[:k-1]
		return p
	}
	p := &pendingLoad{n: n}
	//lhlint:allow hotpath bound once per pooled entry; reused for every deferred load that rides it
	p.fire = func() { p.n.fireTryAgain(p) }
	return p
}

// freePendingLoad recycles an answered deferred load. The TryAgain timer
// must already be cancelled (removePending does both).
//
//lhlint:hotpath
func (n *NIC) freePendingLoad(p *pendingLoad) {
	p.respond = nil
	p.timer = nil
	n.plFree = append(n.plFree, p)
}

// newRecallPend returns a recall-parameter entry with its callback bound
// once at allocation.
//
//lhlint:hotpath
func (n *NIC) newRecallPend() *recallPend {
	if k := len(n.rcFree); k > 0 {
		r := n.rcFree[k-1]
		n.rcFree = n.rcFree[:k-1]
		return r
	}
	r := &recallPend{n: n}
	//lhlint:allow hotpath bound once per pooled entry; reused for every response recall that rides it
	r.fire = func(data []byte) { r.run(data) }
	return r
}

// run transmits the recalled response, then (for loads that triggered the
// recall) answers the waiting load. The entry is released first: answering
// the load can park a new deferred load or dispatch, either of which may
// recall again and need the pool.
//
//lhlint:hotpath
func (r *recallPend) run(data []byte) {
	n, req, serial := r.n, r.req, r.serial
	addr, region, svc, coreID := r.addr, r.region, r.svc, r.coreID
	respond := r.respond
	r.req, r.respond = nil, nil
	n.rcFree = append(n.rcFree, r)
	n.transmitResponse(coreID, serial, req, data)
	if respond != nil {
		n.answerLoad(addr, region, svc, coreID, respond)
	}
}

// SchedUpdate is the kernel's push of scheduling state: core coreID now
// runs pid (0 = idle/kernel). The push itself is a posted coherent store;
// its cost is charged host-side (see Host).
func (n *NIC) SchedUpdate(coreID, pid int) {
	n.coreProc[coreID] = pid
	n.schedPush++
}

// SchedPushes reports how many scheduler-state pushes the NIC received.
func (n *NIC) SchedPushes() uint64 { return n.schedPush }

// QueueLen returns the backlog of a service.
func (n *NIC) QueueLen(svc uint32) int {
	if ep, ok := n.endpoints[svc]; ok {
		return ep.queue.Len()
	}
	return 0
}

// Pollers returns how many channels are currently stalled on the service.
func (n *NIC) Pollers(svc uint32) int {
	if ep, ok := n.endpoints[svc]; ok {
		return len(ep.waiters)
	}
	return 0
}

// ---- mesi.Backing: the NIC as home agent ----

// ReadLine is invoked by the directory when a CPU load misses to a
// NIC-homed line. This is the heart of Fig. 4: the NIC may answer with a
// dispatch immediately, or defer the fill until a packet arrives.
// Exclusive fills (a CPU about to write a response) are answered
// immediately with an empty line — only poll loads defer.
//
//lhlint:hotpath
func (n *NIC) ReadLine(addr mesi.LineAddr, excl bool, respond func(data []byte)) {
	if excl {
		n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerIdle)
		respond(n.lineScr)
		return
	}
	region, svc, coreID, idx := splitAddr(addr)
	if region == regionClient {
		n.clientReadLine(addr, svc, coreID, idx, respond)
		return
	}

	// Seeing a load on one line of a pair means the CPU finished writing
	// a response into the other line (if one was outstanding): fetch it
	// exclusive and transmit, *then* consider answering this load (§5.1
	// ordering).
	var pairAddr mesi.LineAddr
	if region == regionKernel {
		pairAddr = kernelCtrl(coreID, 1-idx)
	} else {
		pairAddr = svcCtrl(svc, coreID, 1-idx)
	}
	if req := n.takeOwed(coreID, pairAddr); req != nil {
		r := n.newRecallPend()
		r.req, r.serial, r.addr, r.region, r.svc, r.coreID, r.respond =
			req, req.serial, addr, region, svc, coreID, respond
		n.dir.Recall(pairAddr, r.fire)
		return
	}
	n.answerLoad(addr, region, svc, coreID, respond)
}

// WriteLine receives dirty data written back to the home; response
// extraction happens in the Recall path, so nothing further is needed.
func (n *NIC) WriteLine(addr mesi.LineAddr, data []byte) {}

// answerLoad satisfies a control-line load from the service queue, or
// defers it.
//
//lhlint:hotpath
func (n *NIC) answerLoad(addr mesi.LineAddr, region int, svc uint32, coreID int, respond func([]byte)) {
	if region == regionService {
		ep := n.endpointOn(coreID, svc)
		if ep == nil {
			// Load on an unregistered endpoint: answer TryAgain so the
			// core is not wedged.
			n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerTryAgain)
			respond(n.lineScr)
			return
		}
		if ep.queue.Len() > 0 {
			req := n.popReq(ep)
			n.stats.FastDispatch++
			n.noteDispatch(req, false)
			n.emit(trace.Dispatch, uint64(ep.Svc), uint64(coreID), "fast-queued")
			n.dispatchTo(addr, coreID, req, false, respond)
			return
		}
		// Work-conserving reallocation: if this endpoint is idle while
		// another service has queued work and no poller, retire the core
		// right away instead of parking it for 15 ms (§5.2: the NIC
		// "requests the OS to reschedule processes in response to new
		// packets").
		if n.RetirePolicy && n.starved > 0 && len(ep.waiters) >= ep.minWorkers {
			n.stats.Retires++
			n.emit(trace.Retire, uint64(coreID), uint64(svc), "idle")
			n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerRetire)
			respond(n.lineScr)
			return
		}
		// Nothing queued: defer (stalled load).
		n.defer_(addr, coreID, ep, false, respond)
		return
	}

	// Kernel line: any service's backlog can be dispatched here.
	if !n.NoKernelDispatch {
		if req := n.oldestBacklog(); req != nil {
			n.stats.KernDispatch++
			n.noteDispatch(req, true)
			n.emit(trace.Dispatch, uint64(req.ep.Svc), uint64(coreID), "kernel-queued")
			n.dispatchTo(addr, coreID, req, true, respond)
			return
		}
	}
	n.defer_(addr, coreID, nil, true, respond)
}

// oldestBacklog pops the longest-waiting queued request across services
// that have no poller (services with pollers will be served by them).
// Ties break on service ID, keeping the choice deterministic. It returns
// at once when no endpoint is starved — the common case on a path taken
// for every kernel-line load — and otherwise scans the
// registration-ordered endpoints.
//
//lhlint:hotpath
func (n *NIC) oldestBacklog() *inflight {
	if n.starved == 0 {
		return nil
	}
	var best *Endpoint
	var bestAt sim.Time
	for _, ep := range n.epOrder {
		if !ep.starved() {
			continue
		}
		if at := ep.queue.Peek().arriveAt; best == nil || at < bestAt || (at == bestAt && ep.Svc < best.Svc) {
			best = ep
			bestAt = at
		}
	}
	return n.popReq(best)
}

// defer_ parks a load until work (or the TryAgain timer) arrives.
//
//lhlint:hotpath
func (n *NIC) defer_(addr mesi.LineAddr, coreID int, ep *Endpoint, kernel bool, respond func([]byte)) {
	for i := range n.cores {
		if q := n.cores[i].pending; q != nil && q.addr == addr {
			panicDuplicatePending(addr)
		}
	}
	s := n.slot(coreID)
	if s.pending != nil {
		panicPendingBusy(coreID)
	}
	p := n.newPendingLoad()
	p.addr, p.coreID, p.ep, p.kernel, p.respond = addr, coreID, ep, kernel, respond
	p.timer = n.sim.After(n.cfg.TryAgainTimeout, "lauberhorn-tryagain", p.fire)
	s.pending = p
	switch {
	case kernel:
		n.kernelOrder = append(n.kernelOrder, p)
	case ep != nil:
		n.addWaiter(ep, p)
	default:
		// Client-channel waits have no endpoint bookkeeping.
	}
}

// removePending unlinks a deferred load (it is about to be answered).
func (n *NIC) removePending(p *pendingLoad) {
	n.cores[p.coreID].pending = nil
	if p.timer != nil {
		n.sim.Cancel(p.timer)
		p.timer = nil
	}
	switch {
	case p.kernel:
		for i, q := range n.kernelOrder {
			if q == p {
				n.kernelOrder = append(n.kernelOrder[:i], n.kernelOrder[i+1:]...)
				break
			}
		}
	case p.ep != nil:
		n.dropWaiter(p.ep, p)
	}
}

// svcOf returns the service a deferred load polls, 0 for kernel and
// client lines.
func (p *pendingLoad) svcOf() uint32 {
	if p.ep == nil {
		return 0
	}
	return p.ep.Svc
}

// fireTryAgain answers a deferred load with TryAgain — or Retire, when the
// retire policy decides this core is better spent elsewhere.
func (n *NIC) fireTryAgain(p *pendingLoad) {
	p.timer = nil
	n.removePending(p)
	marker := byte(MarkerTryAgain)
	if n.RetirePolicy && p.ep != nil {
		// If another service is starved (queued work, no poller) while
		// this endpoint idles above its worker floor, retire the core.
		// removePending has already dropped p from the endpoint's
		// pollers; the +1 counts it back, so the comparison is against
		// the population before the timer fired.
		if n.starved > 0 && len(p.ep.waiters)+1 > p.ep.minWorkers {
			marker = MarkerRetire
		}
	}
	if marker == MarkerRetire {
		n.stats.Retires++
		n.emit(trace.Retire, uint64(p.coreID), uint64(p.svcOf()), "timer")
	} else {
		n.stats.TryAgains++
		n.emit(trace.TryAgain, uint64(p.coreID), uint64(p.svcOf()), "")
	}
	respond := p.respond
	n.freePendingLoad(p)
	n.lineScr = markerLine(n.lineScr, n.lineSize(), marker)
	respond(n.lineScr)
}

// panicDuplicatePending, panicPendingBusy, panicStillOwes,
// panicNoInflight and panicNoResponse keep fmt boxing off the hot paths
// that check the per-core invariants; none of them returns.
func panicDuplicatePending(addr mesi.LineAddr) {
	panic(fmt.Sprintf("core: duplicate pending load on %#x", uint64(addr)))
}

func panicPendingBusy(coreID int) {
	panic(fmt.Sprintf("core: core %d already has a pending load", coreID))
}

func panicStillOwes(coreID int, owed, serial uint64) {
	panic(fmt.Sprintf("core: dispatch of serial %d onto core %d, which still owes the response to serial %d",
		serial, coreID, owed))
}

func panicNoInflight(coreID int, serial uint64) {
	panic(fmt.Sprintf("core: response recalled from core %d finds no request in flight for serial %d",
		coreID, serial))
}

func panicNoResponse(coreID int, serial uint64) {
	panic(fmt.Sprintf("core: line recalled from core %d holds no response for serial %d", coreID, serial))
}

// FlushChannel immediately recalls and transmits any response parked in
// the (svc, core) channel. The OS calls it on the deschedule path, before
// a worker leaves its user loop: without it, a preemption that lands
// between writing a response and loading the paired line would strand the
// response in the descheduled core's cache until the channel is next used
// — a race surfaced by the handoff model in internal/check. The worker
// only yields between requests, so a response the core owes here is
// always written.
func (n *NIC) FlushChannel(svc uint32, coreID int) {
	for idx := 0; idx < 2; idx++ {
		addr := svcCtrl(svc, coreID, idx)
		req := n.takeOwed(coreID, addr)
		if req == nil {
			continue
		}
		r := n.newRecallPend()
		r.req, r.serial, r.coreID = req, req.serial, coreID
		n.dir.Recall(addr, r.fire)
	}
}

// Kick immediately unblocks a deferred load on the given core with
// TryAgain — the OS side of descheduling a stalled process (§5.1: IPI,
// then "Lauberhorn can send the process a TryAgain message, unblocking
// it").
func (n *NIC) Kick(coreID int) bool {
	p := n.pendingOn(coreID)
	if p == nil {
		return false
	}
	n.removePending(p)
	n.stats.TryAgains++
	n.emit(trace.TryAgain, uint64(coreID), uint64(p.svcOf()), "kick")
	respond := p.respond
	n.freePendingLoad(p)
	n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerTryAgain)
	respond(n.lineScr)
	return true
}

// RetireCore answers the pending load on coreID with Retire (explicit OS-
// requested core reclamation, e.g. for a non-RPC process).
func (n *NIC) RetireCore(coreID int) bool {
	p := n.pendingOn(coreID)
	if p == nil {
		return false
	}
	n.removePending(p)
	n.stats.Retires++
	n.emit(trace.Retire, uint64(coreID), uint64(p.svcOf()), "reclaim")
	respond := p.respond
	n.freePendingLoad(p)
	n.lineScr = markerLine(n.lineScr, n.lineSize(), MarkerRetire)
	respond(n.lineScr)
	return true
}

// dispatchTo answers coreID's load on addr with a request dispatch.
// kernel selects the KDispatch marker (the core must switch processes
// first); in that case the response is expected on the service channel's
// line 0, because the core leaves the kernel loop and enters the
// service's user loop. The core's slot records the response it now owes;
// it must owe none already.
//
//lhlint:hotpath
func (n *NIC) dispatchTo(addr mesi.LineAddr, coreID int, req *inflight, kernel bool, respond func([]byte)) {
	ep, mi := req.ep, req.method
	marker := byte(MarkerDispatch)
	respAddr := addr
	if kernel {
		marker = MarkerKDispatch
		respAddr = svcCtrl(ep.Svc, coreID, 0)
	}
	s := n.slot(coreID)
	if s.owed != nil {
		panicStillOwes(coreID, s.owed.serial, req.serial)
	}
	s.owed, s.owedAt, s.ep = req, respAddr, ep
	if req.viaDMA {
		// §6 large-message fallback: DMA the body to a host buffer, then
		// answer the load with a buffer descriptor instead of inline
		// data. The fill stays deferred for the transfer's duration, so
		// the line must be freshly allocated (it parks across simulated
		// time while the scratch gets rebuilt).
		inline := []byte(nil)
		line, _ := dispatchLine(nil, n.lineSize(), marker|markerBufFlag, ep.Svc, mi.id,
			req.serial, mi.code, mi.data, inline)
		// dispatchLine zeroed BodyLen from the empty inline slice;
		// rewrite it with the true buffer length.
		line[31] = byte(len(req.body) >> 8)
		line[32] = byte(len(req.body))
		//lhlint:allow hotpath DMA fallback path, not the cache-line fast path; the closure models the pending transfer
		n.sim.After(n.cfg.DMA.DMATransfer(len(req.body)), "lh-dma-in", func() {
			respond(line)
		})
		return
	}
	n.lineScr, _ = dispatchLine(n.lineScr, n.lineSize(), marker, ep.Svc, mi.id, req.serial,
		mi.code, mi.data, req.body)
	// Body bytes beyond the inline chunk arrive via aux lines; the host
	// charges the streaming cost and fetches them with AuxBody. The
	// responder copies the line before returning (directory deliver), so
	// the scratch is free for the next dispatch.
	respond(n.lineScr)
}

// lineSize returns the coherence granule.
func (n *NIC) lineSize() int { return n.cfg.Fabric.CacheLineSize }

// AuxBody returns the part of request serial's body that did not fit
// inline — the contents of its aux cache lines. coreID is the core the
// request was dispatched to.
func (n *NIC) AuxBody(coreID int, serial uint64) []byte {
	req := n.owedBy(coreID, serial)
	if req == nil {
		return nil
	}
	inline := n.lineSize() - dispatchHeaderLen
	if len(req.body) <= inline {
		return nil
	}
	return req.body[inline:]
}

// AuxLines returns how many aux cache lines a body of the given length
// occupies beyond the control line.
func (n *NIC) AuxLines(bodyLen int) int {
	inline := n.lineSize() - dispatchHeaderLen
	if bodyLen <= inline {
		return 0
	}
	return n.cfg.Fabric.Lines(bodyLen - inline)
}

// WriteAuxResponse stores the response body overflow (the CPU's stores to
// aux lines) of request serial, dispatched to coreID; timing is charged by
// the host loop.
//
//lhlint:hotpath
func (n *NIC) WriteAuxResponse(coreID int, serial uint64, rest []byte) {
	if req := n.owedBy(coreID, serial); req != nil {
		n.stageAux(req, rest)
	}
}

// WriteDMAResponse places a large response body of request serial,
// dispatched to coreID, in a host DMA buffer; the NIC pulls it with its
// DMA engine before transmitting (§6 fallback).
func (n *NIC) WriteDMAResponse(coreID int, serial uint64, body []byte) {
	if req := n.owedBy(coreID, serial); req != nil {
		n.stageAux(req, body)
		req.dmaResp = true
	}
}

// stageAux copies response bytes the CPU wrote outside the control line
// into a recycled buffer on the request.
//
//lhlint:hotpath
func (n *NIC) stageAux(req *inflight, b []byte) {
	var buf []byte
	if k := len(n.auxFree); k > 0 {
		buf = n.auxFree[k-1][:0]
		n.auxFree[k-1] = nil
		n.auxFree = n.auxFree[:k-1]
	}
	req.aux = append(buf, b...)
}

// DMABody returns the full body of buffer-dispatched request serial,
// dispatched to coreID (the contents of the host DMA buffer after the
// NIC's transfer).
func (n *NIC) DMABody(coreID int, serial uint64) []byte {
	req := n.owedBy(coreID, serial)
	if req == nil {
		return nil
	}
	return req.body
}

// ---- receive path ----

// DeliverFrame implements fabric.FramePort: run the decode pipeline, then
// dispatch (Fig. 3).
//
//lhlint:hotpath
func (n *NIC) DeliverFrame(frame []byte) {
	if err := wire.ParseUDPInto(frame, &n.rxScr.d); err != nil {
		n.stats.RxBad++
		n.frames.Put(frame)
		return
	}
	n.DeliverDatagram(frame, &n.rxScr.d)
}

// DeliverDatagram is DeliverFrame for a frame already parsed into d —
// by a transport's receive half, which ran the same full parse — so the
// frame's checksums are verified once on this host.
//
//lhlint:hotpath
func (n *NIC) DeliverDatagram(frame []byte, d *wire.Datagram) {
	// The pipeline accepts a new packet each initiation interval; model
	// the engine as busy until the current packet clears the slowest
	// stage.
	start := n.sim.Now()
	if n.decodeBusy > start {
		start = n.decodeBusy
	}
	dec := &n.rxScr
	if d != &dec.d {
		dec.d = *d
	}
	if dec.d.IP.Dst != n.cfg.Local.IP {
		// Switched fabrics flood frames for unlearned MACs; not ours.
		n.stats.RxFiltered++
		n.frames.Put(frame)
		return
	}
	if err := rpc.DecodeInto(dec.d.Payload, &dec.msg); err != nil {
		n.stats.RxBad++
		n.frames.Put(frame)
		return
	}
	dec.frame = frame
	lat := n.cfg.HeaderParse + n.cfg.DecodeFixed + sim.Time(len(dec.msg.Body))*n.cfg.DecodePerByte
	if dec.msg.Flags&rpc.FlagEncrypted != 0 {
		lat += sim.Time(len(dec.msg.Body)) * n.cfg.DecryptPerByte
	}
	if dec.msg.Flags&rpc.FlagCompressed != 0 {
		lat += sim.Time(len(dec.msg.Body)) * n.cfg.DecompressPerByte
	}
	n.decodeBusy = start + lat
	// Completion times are monotone (each packet starts no earlier than
	// the previous decodeBusy), so a FIFO queue plus one prebound callback
	// replaces a per-packet closure. The queue holds values, not pointers:
	// staging a packet is a copy into recycled slice capacity, not a heap
	// allocation.
	n.decq.Push(*dec)
	n.sim.At(start+lat, "lauberhorn-decoded", n.decFn)
}

// decoded is one packet staged by value between the decode pipeline and
// dispatch; Datagram.Payload and Message.Body alias the delivered frame,
// which the NIC now owns.
type decoded struct {
	d     wire.Datagram
	msg   rpc.Message
	frame []byte
}

// decodeDone dispatches the oldest staged packet; it is the single bound
// callback behind every "lauberhorn-decoded" event. The head is popped
// into dispScr (not referenced in place) so a dispatch path that stages
// new packets can grow decq without invalidating what we're dispatching.
//
//lhlint:hotpath
func (n *NIC) decodeDone() {
	n.dispScr = n.decq.Pop()
	if n.dispScr.msg.IsRequest() {
		n.admit(&n.dispScr)
	} else {
		n.deliverClientResponse(&n.dispScr.msg)
		n.frames.Put(n.dispScr.frame)
	}
}

// admit demultiplexes a decoded request to its endpoint and dispatches or
// queues it.
//
//lhlint:hotpath
func (n *NIC) admit(dec *decoded) {
	d, msg := &dec.d, &dec.msg
	ep := n.byPort[d.UDP.DstPort]
	if ep == nil || ep.Svc != msg.Service {
		n.stats.RxBad++
		n.frames.Put(dec.frame)
		return
	}
	mi := ep.method(msg.Method)
	if mi == nil {
		// Unknown method: NIC answers directly with an error response —
		// zero host involvement.
		n.stats.RxFrames++
		n.txRPC(wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort},
			rpc.Header{Kind: rpc.KindResponse, Service: msg.Service, Method: msg.Method, ID: msg.ID, Status: rpc.StatusNoSuchMethod}, nil, nil)
		n.frames.Put(dec.frame)
		return
	}
	n.stats.RxFrames++
	// The body aliases the delivered frame, which the inflight keeps
	// until the response is encoded (or the request is dropped), so the
	// request references the payload in place instead of copying it.
	req := n.newInflight()
	req.serial = n.nextSerial
	req.ep = ep
	req.method = mi
	req.rpcID = msg.ID
	req.body = msg.Body
	req.frame = dec.frame
	req.client = wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort}
	req.arriveAt = n.sim.Now()
	req.viaDMA = n.cfg.DMAThreshold > 0 && len(msg.Body) >= n.cfg.DMAThreshold
	n.nextSerial++
	n.noteArrival(ep)
	n.emit(trace.RxFrame, uint64(ep.Svc), req.serial, "")

	// Fast path: a core is stalled on this service's control line (FIFO
	// over the endpoint's waiting channels).
	if len(ep.waiters) > 0 {
		p := ep.waiters[0]
		n.removePending(p)
		n.stats.FastDispatch++
		n.noteDispatch(req, false)
		n.emit(trace.Dispatch, uint64(ep.Svc), uint64(p.coreID), "fast")
		addr, coreID, respond := p.addr, p.coreID, p.respond
		n.freePendingLoad(p)
		n.dispatchTo(addr, coreID, req, false, respond)
		return
	}
	// Medium path: a core's kernel loop is stalled; hand it the request
	// with a process-switch marker. FIFO over kernel pollers.
	if len(n.kernelOrder) > 0 && !n.NoKernelDispatch {
		p := n.kernelOrder[0]
		n.removePending(p)
		n.stats.KernDispatch++
		n.noteDispatch(req, true)
		n.emit(trace.Dispatch, uint64(ep.Svc), uint64(p.coreID), "kernel")
		addr, coreID, respond := p.addr, p.coreID, p.respond
		n.freePendingLoad(p)
		n.dispatchTo(addr, coreID, req, true, respond)
		return
	}
	// Slow path: queue on the endpoint and notify the OS in software.
	if ep.queue.Len() >= n.cfg.SvcQueueDepth {
		n.stats.RxDropped++
		ep.tel.Dropped++
		n.frames.Put(req.frame)
		n.freeInflight(req)
		return
	}
	n.pushReq(ep, req)
	ep.tel.Queued++
	n.stats.Backlog.Record(int64(ep.queue.Len()))
	if ep.queue.Len() == 1 && len(ep.waiters) == 0 && n.NotifyOS != nil {
		n.stats.SoftNotify++
		n.NotifyOS(ep.Svc)
	}
	if n.OnBacklog != nil && ep.queue.Len() == n.cfg.BacklogHighWater {
		n.OnBacklog(ep.Svc)
	}
}

// ---- transmit path ----

// transmitResponse parses the line recalled from coreID, which owed the
// response to request serial (req), and sends the RPC response to the
// client, its body the line's inline bytes followed by any aux bytes.
// The core loads the paired line, or yields, only after its response
// store completes, and nothing else recalls the line; so a recall that
// finds no live request, or a line holding no response for it, is a
// protocol fault, and it panics.
//
//lhlint:hotpath
func (n *NIC) transmitResponse(coreID int, serial uint64, req *inflight, line []byte) {
	if req == nil || req.serial != serial {
		panicNoInflight(coreID, serial)
	}
	pr, ok := parseResponseLine(line)
	if !ok || pr.Serial != serial {
		panicNoResponse(coreID, serial)
	}
	staged := req.aux
	req.aux = nil
	inline, aux := clipBody(pr.Inline, staged, pr.BodyLen)
	h := rpc.Header{Kind: rpc.KindResponse, Service: req.ep.Svc, Method: req.method.id, ID: req.rpcID, Status: pr.Status}
	if pr.Buf && req.dmaResp {
		// Pull the buffer out of host memory before transmitting. The
		// closure holds the body until the DMA completes, so the body is
		// copied out of the line and the aux buffer, which are reused.
		body := append(append(make([]byte, 0, len(inline)+len(aux)), inline...), aux...)
		//lhlint:allow hotpath DMA-buffer fallback path, not the cache-line fast path; the closure models the pending descriptor
		n.sim.After(n.cfg.DMA.DMARead+n.cfg.DMA.DMATransfer(len(body)), "lh-dma-out", func() {
			n.txRPC(req.client, h, body, nil)
		})
	} else {
		// Fast path: txRPC copies the inline and aux bytes straight into
		// the frame. Neither aliases the request frame, which is dead:
		// recycle it first, so the response reuses its buffer, and then
		// the inflight (the DMA path above must not: its closure holds
		// req until DMA-out).
		n.frames.Put(req.frame)
		n.txRPC(req.client, h, inline, aux)
		n.freeInflight(req)
	}
	if staged != nil {
		n.auxFree = append(n.auxFree, staged)
	}
}

// clipBody returns the first n bytes of the body inline followed by aux,
// as the same two pieces.
func clipBody(inline, aux []byte, n int) ([]byte, []byte) {
	if len(inline) >= n {
		return inline[:n], nil
	}
	if len(inline)+len(aux) > n {
		aux = aux[:n-len(inline)]
	}
	return inline, aux
}

// txRPC frames and transmits an RPC message, header h and a body of the
// inline bytes followed by aux (either may be empty), after the NIC TX
// build cost. The header is encoded on the stack and the frame build
// copies it and both body pieces straight into the frame, so they need
// live only until txRPC returns. Built frames wait in a FIFO staging
// queue; TxBuild is constant, so the single prebound txFn fires them in
// schedule order without allocating a closure per packet.
//
//lhlint:hotpath
func (n *NIC) txRPC(dst wire.Endpoint, h rpc.Header, inline, aux []byte) {
	if n.link == nil {
		panic("core: NIC has no link")
	}
	var hdr [rpc.HeaderLen]byte
	rpc.PutHeader(hdr[:], h, len(inline)+len(aux))
	n.ipID++
	frame, err := n.frames.BuildUDP(n.cfg.Local, dst, n.ipID, hdr[:], inline, aux)
	if err != nil {
		panic(fmt.Sprintf("core: tx: %v", err))
	}
	n.txq.Push(frame)
	n.sim.After(n.cfg.TxBuild, "lauberhorn-tx", n.txFn)
}

// txFire sends the oldest staged frame onto the link. A carrier check
// guards the wire (fault injection can down the access link): frames
// staged toward a dead link are dropped at the NIC, as a real MAC does,
// rather than burning link-layer state.
//
//lhlint:hotpath
func (n *NIC) txFire() {
	frame := n.txq.Pop()
	if !n.link.Up() {
		n.stats.TxNoCarrier++
		n.frames.Put(frame)
		return
	}
	n.stats.TxFrames++
	n.emit(trace.TxFrame, uint64(len(frame)), 0, "")
	n.link.Send(n.side, frame)
}
