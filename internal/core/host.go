package core

import (
	"fmt"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/mesi"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// HostConfig parameterizes a Lauberhorn host: an OS kernel plus the NIC,
// joined by the coherent fabric.
type HostConfig struct {
	Cores   int
	FreqGHz float64
	Kernel  kernel.Costs
	NIC     Config

	// LoopOverhead is the per-iteration software cost of the receive loop
	// (evict + re-issue the load): a handful of instructions.
	LoopOverhead sim.Time
	// DispatchJump is the cost from the fill returning to the first
	// handler instruction: read code/data pointers out of the line and
	// jump (§4: "just the arguments and virtual address of the first
	// instruction").
	DispatchJump sim.Time
	// SchedPushCost is the posted-store cost of pushing one scheduling
	// update to the NIC; it is added to every context switch. Over ECI
	// this is a single line write; over PCIe it would be an MMIO write
	// (experiment E8 compares).
	SchedPushCost sim.Time

	// SoftwareCodec disables the NIC's RPC deserializer ablation-style:
	// the host pays Codec costs per request as the software stacks do
	// (experiment E10 "minus NIC decode").
	SoftwareCodec bool
	// Codec supplies the software (un)marshal cost model when
	// SoftwareCodec is set.
	Codec rpc.CostModel
}

// DefaultHostConfig returns the configuration used by the experiments.
func DefaultHostConfig(local wire.Endpoint, cores int) HostConfig {
	return HostConfig{
		Cores:         cores,
		FreqGHz:       2.5,
		Kernel:        kernel.DefaultCosts(),
		NIC:           DefaultConfig(local),
		LoopOverhead:  20 * sim.Nanosecond,
		DispatchJump:  15 * sim.Nanosecond,
		SchedPushCost: 60 * sim.Nanosecond,
		Codec:         rpc.DefaultCostModel(),
	}
}

// Host is a machine running Lauberhorn: kernel, NIC, per-core coherent
// caches, and the per-core worker threads that execute the Fig. 5 loops.
type Host struct {
	Sim *sim.Sim
	K   *kernel.Kernel
	NIC *NIC

	cfg      HostConfig
	caches   []*mesi.Cache
	registry *rpc.Registry
	procs    map[uint32]*kernel.Process
	workers  []*kernel.Thread

	// Served counts completed requests per service.
	served map[uint32]uint64
	// OnServed observes every served request (svc, rpc ID) just after
	// the response line is handed to the NIC.
	OnServed func(svc uint32, rpcID uint64)

	// async overrides methods with suspending handlers (nested RPC).
	async map[uint64]AsyncHandler
	// clientChans are the lazily-allocated per-core outbound channels.
	clientChans    map[int]*ClientChan
	nextCallSerial uint64
}

// AsyncHandler is a suspending request handler: it may consume CPU via tc
// and issue nested outbound RPCs (Host.Call) before invoking respond
// exactly once. coreID identifies the core the handler runs on (for
// Host.Call's channel). req is the worker's reassembly scratch, live
// only until respond is called: the next request on the core overwrites
// it, so a handler must not keep it (or pass it on) past respond.
type AsyncHandler func(tc *kernel.TC, coreID int, req []byte, respond func(status uint16, body []byte))

// NewHost builds the host. Call RegisterService for each service, then
// Start.
func NewHost(s *sim.Sim, cfg HostConfig) *Host {
	if cfg.Cores <= 0 {
		panic("core: host needs cores")
	}
	k := kernel.New(s, cfg.Cores, cfg.FreqGHz, cfg.Kernel)
	// Every context switch also pushes scheduling state to the NIC (§4).
	k.Costs.ContextSwitch += cfg.SchedPushCost
	n := NewNIC(s, cfg.NIC, cfg.Cores)
	h := &Host{
		Sim:         s,
		K:           k,
		NIC:         n,
		cfg:         cfg,
		registry:    rpc.NewRegistry(),
		procs:       make(map[uint32]*kernel.Process),
		served:      make(map[uint32]uint64),
		async:       make(map[uint64]AsyncHandler),
		clientChans: make(map[int]*ClientChan),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.caches = append(h.caches, mesi.NewCache(s, fmt.Sprintf("core%d", i),
			func(mesi.LineAddr) *mesi.Directory { return n.Directory() }))
	}
	k.SchedHook = func(coreID int, running *kernel.Thread) {
		pid := 0
		if running != nil {
			pid = running.Proc().PID
		}
		n.SchedUpdate(coreID, pid)
	}
	// The NIC reclaims a core when a service backs up with nobody
	// polling: ask an idle poller above its floor to retire.
	n.NotifyOS = func(svc uint32) { h.reclaimCore() }
	n.OnBacklog = func(svc uint32) { h.reclaimCore() }
	// Non-RPC work must not wait out a TryAgain period behind stalled
	// workers: when a thread is runnable and every core is parked in a
	// Lauberhorn wait, kick the idlest one so it yields within
	// microseconds (§5.2).
	k.EnqueueHook = func(t *kernel.Thread) { h.kickForRunnable() }
	return h
}

// kickForRunnable preempt-kicks one stalled worker (idle service poller
// preferred, else a kernel-line poller) so a runnable non-RPC thread gets
// a core promptly. Cores are scanned in ID order for determinism.
func (h *Host) kickForRunnable() {
	pick := -1
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		p := h.NIC.pendingOn(coreID)
		if p == nil {
			continue
		}
		region, svc, _, _ := splitAddr(p.addr)
		if region == regionClient {
			continue // mid-call; not reclaimable
		}
		if region == regionService {
			if ep := h.NIC.endpoints[svc]; ep != nil && ep.queue.Len() > 0 {
				continue // busy service
			}
			pick = coreID
			break // idle user poller: best choice
		}
		if pick < 0 {
			pick = coreID // kernel poller: acceptable fallback
		}
	}
	if pick < 0 {
		return
	}
	t := h.workers[pick]
	h.K.Preempt(t)
	h.NIC.Kick(pick)
}

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

// Registry returns the host's RPC service registry.
func (h *Host) Registry() *rpc.Registry { return h.registry }

// Served returns completed requests for a service.
func (h *Host) Served(svc uint32) uint64 { return h.served[svc] }

// RegisterService installs a service: an OS process, registry entry, and
// the NIC endpoint (code/data pointers, demux key — the OS state the
// paper shares with the NIC).
func (h *Host) RegisterService(desc *rpc.ServiceDesc, port uint16, minWorkers int) *Endpoint {
	h.registry.Register(desc)
	proc := h.K.NewProcess(desc.Name)
	h.procs[desc.ID] = proc
	return h.NIC.RegisterService(desc, proc.PID, port, minWorkers)
}

// Start spawns one pinned kernel worker per core, each running the Fig. 5
// dispatch loop, and enables the NIC's retire policy.
func (h *Host) Start() {
	if len(h.workers) > 0 {
		panic("core: host already started")
	}
	h.NIC.RetirePolicy = true
	for i := 0; i < h.cfg.Cores; i++ {
		w := newWorker(h, i)
		t := h.K.SpawnPinned(kernel.KernelProc, fmt.Sprintf("lh-worker%d", w.coreID), w.coreID,
			w.enter)
		h.workers = append(h.workers, t)
	}
}

// Worker returns the worker thread for a core (valid after Start).
func (h *Host) Worker(coreID int) *kernel.Thread { return h.workers[coreID] }

// SetAsyncHandler replaces svc/method's plain handler with a suspending
// one that may issue nested RPCs before responding (§6: nested RPCs with
// a dedicated reply endpoint).
func (h *Host) SetAsyncHandler(svc uint32, method uint16, fn AsyncHandler) {
	if fn == nil {
		panic("core: nil async handler")
	}
	h.async[uint64(svc)<<16|uint64(method)] = fn
}

// SetSoftwareCodec enables the "minus NIC decode" ablation: the host pays
// the given software (un)marshal cost model per request, as the
// traditional stacks do.
func (h *Host) SetSoftwareCodec(c rpc.CostModel) {
	h.cfg.SoftwareCodec = true
	h.cfg.Codec = c
}

// SetDynamicScheduling toggles NIC-driven core reallocation: the retire
// policy and backlog-triggered reclamation. Disabling it is the E10
// "minus NIC-driven scheduling" ablation — cores keep polling whichever
// service they served first (static binding, as a bypass runtime would),
// and requests for unpolled services are only picked up when a core
// happens to pass through the kernel loop.
func (h *Host) SetDynamicScheduling(on bool) {
	h.NIC.RetirePolicy = on
	if on {
		h.NIC.NotifyOS = func(svc uint32) { h.reclaimCore() }
		h.NIC.OnBacklog = func(svc uint32) { h.reclaimCore() }
	} else {
		h.NIC.NotifyOS = nil
		h.NIC.OnBacklog = nil
	}
}

// Deschedule forcibly reclaims a core whose worker is stalled: IPI plus an
// immediate TryAgain kick (§5.1's clean descheduling of a blocked
// process).
func (h *Host) Deschedule(coreID int) {
	t := h.workers[coreID]
	h.K.Preempt(t)
	h.NIC.Kick(coreID)
}

// reclaimCore finds a core idling in a user-mode loop (stalled, service
// queue empty, above its endpoint's worker floor) and retires it so its
// worker returns to the kernel loop and picks up starved work. Cores are
// scanned in ID order for determinism.
func (h *Host) reclaimCore() {
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		p := h.NIC.pendingOn(coreID)
		if p == nil || p.kernel {
			continue
		}
		if region, _, _, _ := splitAddr(p.addr); region != regionService {
			// A client-channel wait (nested call in flight) is not a
			// reclaimable idle poller.
			continue
		}
		ep := h.NIC.endpoints[p.svc]
		if ep.queue.Len() > 0 {
			continue // busy service; don't steal
		}
		if len(ep.waiters) <= ep.minWorkers {
			continue
		}
		h.NIC.RetireCore(coreID)
		return
	}
}

// ---- the Fig. 5 loops ----

// worker is one core's dispatch-loop state machine: the Fig. 5 kernel and
// user loops plus the serve path, flattened so every steady-state
// continuation is a closure bound once at construction and parameterized
// through the fields below. A core runs one request at a time, so the
// per-request fields are safe to reuse across iterations.
type worker struct {
	h      *Host
	tc     *kernel.TC
	coreID int
	cache  *mesi.Cache

	// loop position
	svc uint32 // service whose user loop the core runs
	cur int    // control-line index (0/1) the next poll loads

	// per-iteration state
	line []byte // last control line filled by the NIC

	// per-request (serve) state
	p        parsedDispatch
	respAddr mesi.LineAddr
	body     []byte
	bodyScr  []byte // inline+aux reassembly scratch, reused per request
	handler  func(req []byte) (resp []byte, service sim.Time)
	status   uint16
	respBody []byte
	respLine []byte // response-line scratch, rebuilt per request
	auxStall sim.Time

	// continuations, bound once
	kIssue     func(func())
	kDone      func()
	kAgain     func()
	kEnter     func()
	uIssue     func(func())
	uDone      func()
	uAgain     func()
	onLoad     func([]byte)
	complete   func()
	runFn      func()
	handled    func()
	finishOK   func()
	respond    func(uint16, []byte)
	writeResp  func()
	storeIssue func(func())
	stored     func()
	afterServe func()
	auxIssue   func(func())
	yieldK     func(*kernel.TC)

	// the kernel-bound exit from the user loop, bound on first use
	leaveYield bool // leave through a yield (preemption), else a retire
	flushFn    func()
	leftFn     func()
	kLoop      func()
}

// newWorker builds a core's loop state machine and binds its
// continuations.
func newWorker(h *Host, coreID int) *worker {
	w := &worker{h: h, coreID: coreID, cache: h.caches[coreID]}
	w.kIssue = func(complete func()) {
		w.complete = complete
		w.cache.Load(kernelCtrl(w.coreID, w.cur), w.onLoad)
	}
	w.uIssue = func(complete func()) {
		w.complete = complete
		w.cache.Load(svcCtrl(w.svc, w.coreID, w.cur), w.onLoad)
	}
	w.onLoad = func(data []byte) { w.line = data; w.complete() }
	w.kDone = w.kernelDone
	w.uDone = w.userDone
	w.kAgain = func() { w.cur ^= 1; w.kernelLoop() }
	w.uAgain = w.userLoop
	w.kEnter = w.enterService
	w.runFn = w.run
	w.handled = w.runHandler
	w.finishOK = w.finish
	w.respond = func(status uint16, respBody []byte) {
		w.status = status
		w.respBody = respBody
		w.finish()
	}
	w.writeResp = w.doWriteResp
	w.storeIssue = func(complete func()) {
		w.cache.Store(w.respAddr, w.respLine, complete)
	}
	w.stored = w.afterStore
	w.afterServe = func() { w.userLoop() }
	w.auxIssue = func(complete func()) {
		w.tc.Sim().After(w.auxStall, "lh-aux-stream", complete)
	}
	w.yieldK = func(tc2 *kernel.TC) {
		w.tc = tc2
		w.kernelLoop()
	}
	return w
}

// enter is the thread body: start in the kernel loop on line 0.
func (w *worker) enter(tc *kernel.TC) {
	w.tc = tc
	w.cur = 0
	w.kernelLoop()
}

// kernelLoop is the per-core kernel dispatch loop: stall on the kernel
// control line; on KDispatch, switch into the target process and serve.
//
//lhlint:hotpath
func (w *worker) kernelLoop() {
	tc := w.tc
	if tc.Thread().PreemptPending() {
		tc.Thread().ClearPreempt()
		tc.Yield(w.yieldK)
		return
	}
	w.cache.Evict(kernelCtrl(w.coreID, w.cur), nil)
	tc.StallOn(w.kIssue, w.kDone)
}

// kernelDone handles the kernel control line the NIC just filled.
//
//lhlint:hotpath
func (w *worker) kernelDone() {
	h := w.h
	tc := w.tc
	p := parseDispatchLine(w.line)
	switch p.Marker {
	case MarkerTryAgain, MarkerRetire:
		// Nothing to do; re-poll (this is where a conventional
		// kernel thread would run RCU callbacks, schedule(), etc.).
		tc.Run(h.cfg.LoopOverhead, cpu.Kernel, w.kAgain)
	case MarkerKDispatch:
		// Switch into the service's process and serve the request;
		// afterwards the core stays in the process's user loop.
		if h.procs[p.Svc] == nil {
			panicUnknownService("KDispatch for", p.Svc)
		}
		w.p = p
		cost := h.K.Costs.AddrSpaceSwitch + h.cfg.SchedPushCost
		tc.Run(cost, cpu.Kernel, w.kEnter)
	default:
		panicBadMarker(p.Marker, "kernel")
	}
}

// enterService finishes a KDispatch: assume the service's identity, then
// serve with the response expected on the service channel's line 0 (the
// NIC registered that expectation at dispatch); afterwards continue in the
// user loop on line 1.
func (w *worker) enterService() {
	h := w.h
	proc := h.procs[w.p.Svc]
	w.tc.Thread().SetProc(proc)
	h.NIC.SchedUpdate(w.coreID, proc.PID)
	w.svc = w.p.Svc
	w.respAddr = svcCtrl(w.p.Svc, w.coreID, 0)
	w.cur = 1
	w.serve()
}

// userLoop is the per-(service, core) user-mode loop: stall on the service
// control line; dispatches arrive with essentially zero software overhead.
//
//lhlint:hotpath
func (w *worker) userLoop() {
	tc := w.tc
	if tc.Thread().PreemptPending() {
		tc.Thread().ClearPreempt()
		w.yieldUser()
		return
	}
	w.cache.Evict(svcCtrl(w.svc, w.coreID, w.cur), nil)
	tc.StallOn(w.uIssue, w.uDone)
}

// userDone handles the service control line the NIC just filled.
//
//lhlint:hotpath
func (w *worker) userDone() {
	h := w.h
	tc := w.tc
	p := parseDispatchLine(w.line)
	switch p.Marker {
	case MarkerTryAgain:
		tc.Run(h.cfg.LoopOverhead, cpu.User, w.uAgain)
	case MarkerRetire:
		// The NIC wants this core for a starved service: return to
		// the kernel loop.
		w.leaveUser(false)
	case MarkerDispatch:
		w.p = p
		w.respAddr = svcCtrl(w.svc, w.coreID, w.cur)
		w.cur ^= 1
		w.serve()
	default:
		panicBadMarker(p.Marker, "service")
	}
}

// yieldUser enters the kernel from the user loop via a voluntary yield
// (the §5.2 "process can voluntarily yield the CPU by executing a system
// call"). The kernel first has the NIC flush any response still parked
// in this channel — yielding without the flush would strand it in this
// core's cache (see NIC.FlushChannel).
func (w *worker) yieldUser() {
	if w.flushFn == nil {
		w.flushFn = func() {
			w.h.NIC.FlushChannel(w.svc, w.coreID)
			w.leaveUser(true)
		}
	}
	w.tc.Syscall(0, w.flushFn)
}

// leaveUser switches the worker back to the kernel's identity, charging
// the crossing plus the scheduler push, and returns to the kernel loop on
// line 0: through a yield when yield is set (preemption), else after one
// loop iteration (a retire).
func (w *worker) leaveUser(yield bool) {
	h := w.h
	if w.leftFn == nil {
		w.leftFn = w.enterKernel
		w.kLoop = w.kernelLoop
	}
	w.leaveYield = yield
	w.tc.Run(h.K.Costs.AddrSpaceSwitch/2+h.cfg.SchedPushCost, cpu.Kernel, w.leftFn)
}

// enterKernel completes leaveUser.
//
//lhlint:hotpath
func (w *worker) enterKernel() {
	h := w.h
	w.tc.Thread().SetProc(kernel.KernelProc)
	h.NIC.SchedUpdate(w.coreID, 0)
	w.cur = 0
	if w.leaveYield {
		w.tc.Yield(w.yieldK)
		return
	}
	w.tc.Run(h.cfg.LoopOverhead, cpu.Kernel, w.kLoop)
}

// serve executes one dispatched request (w.p): jump to the handler, stream
// any aux lines, run the handler, write the response line (+ aux), and
// load the paired line so the NIC can recall and transmit the response.
//
//lhlint:hotpath
func (w *worker) serve() {
	h := w.h
	p := &w.p
	svcDesc := h.registry.Lookup(p.Svc)
	if svcDesc == nil {
		panicUnknownService("dispatched", p.Svc)
	}
	m := svcDesc.Method(p.Method)
	if m == nil {
		panicUnknownMethod(p.Method)
	}
	w.handler = m.Handler
	// Reassemble the body: for buffer dispatches it is already in host
	// memory (the NIC DMA'd it before answering the load); otherwise
	// inline bytes from the control line plus aux lines (streamed,
	// pipelined fills).
	w.body = p.Inline
	w.auxStall = 0
	switch {
	case p.Buf:
		w.body = h.NIC.DMABody(p.Serial)
	case p.BodyLen > len(p.Inline):
		w.bodyScr = append(append(w.bodyScr[:0], p.Inline...), h.NIC.AuxBody(p.Serial)...)
		w.body = w.bodyScr
		w.auxStall = sim.Time(h.NIC.AuxLines(p.BodyLen)) * h.cfg.NIC.Fabric.PerLineStream
	}
	if w.auxStall > 0 {
		w.tc.StallOn(w.auxIssue, w.runFn)
	} else {
		w.run()
	}
}

// run charges the dispatch jump (plus the software-codec ablation's
// unmarshal cost) and continues into the handler.
//
//lhlint:hotpath
func (w *worker) run() {
	h := w.h
	var swDecode sim.Time
	if h.cfg.SoftwareCodec {
		// Ablation: without the NIC deserializer, the host pays software
		// unmarshal/marshal like the other stacks.
		swDecode = h.cfg.Codec.Unmarshal(len(w.body)) + h.cfg.Codec.DispatchLookup
	}
	w.tc.Run(h.cfg.DispatchJump+swDecode, cpu.User, w.handled)
}

// runHandler executes the request handler (or hands off to a suspending
// async handler) and charges its service time.
//
//lhlint:hotpath
func (w *worker) runHandler() {
	h := w.h
	p := &w.p
	// Suspending handler (nested RPC) takes precedence.
	if fn := h.async[uint64(p.Svc)<<16|uint64(p.Method)]; fn != nil {
		fn(w.tc, w.coreID, w.body, w.respond)
		return
	}
	respBody, service := w.handler(w.body)
	if h.cfg.SoftwareCodec {
		service += h.cfg.Codec.Marshal(len(respBody))
	}
	w.status = rpc.StatusOK
	w.respBody = respBody
	w.tc.Run(service, cpu.User, w.finishOK)
}

// finish writes the response (w.status, w.respBody) into the channel line
// (or a DMA buffer) and resumes the loop.
//
//lhlint:hotpath
func (w *worker) finish() {
	h := w.h
	p := &w.p
	respBody := w.respBody
	var auxCost sim.Time
	thr := h.cfg.NIC.DMAThreshold
	if thr > 0 && len(respBody) >= thr {
		// Large response: leave it in a DMA buffer; the NIC pulls
		// it. Host cost is just the descriptor write.
		h.NIC.WriteDMAResponse(p.Serial, respBody)
		w.respLine = responseBufLine(w.respLine, h.NIC.lineSize(), w.status, p.Serial, len(respBody))
		auxCost = 50 * sim.Nanosecond
	} else {
		var inline int
		w.respLine, inline = responseLine(w.respLine, h.NIC.lineSize(), w.status, p.Serial, respBody)
		if inline < len(respBody) {
			h.NIC.WriteAuxResponse(p.Serial, respBody[inline:])
			auxCost = sim.Time(h.NIC.AuxLines(len(respBody))) * h.cfg.NIC.Fabric.PerLineStream
		}
	}
	if auxCost > 0 {
		w.tc.Run(auxCost, cpu.User, w.writeResp)
	} else {
		w.doWriteResp()
	}
}

// doWriteResp stores the response line into the channel; the directory
// copies it when ownership is granted, and the worker stalls until then,
// so the scratch line is free for the next request by the time it runs.
//
//lhlint:hotpath
func (w *worker) doWriteResp() {
	w.tc.StallOn(w.storeIssue, w.stored)
}

// panicUnknownService, panicUnknownMethod, and panicBadMarker keep the
// fmt boxing of fatal-dispatch panics off the loop hot paths; none of
// them returns.
func panicUnknownService(what string, svc uint32) {
	panic(fmt.Sprintf("core: %s unknown service %d", what, svc))
}

func panicUnknownMethod(method uint16) {
	panic(fmt.Sprintf("core: dispatched unknown method %d", method))
}

func panicBadMarker(m byte, line string) {
	panic(fmt.Sprintf("core: unexpected marker %d on %s line", m, line))
}

// afterStore counts the served request and resumes the user loop.
//
//lhlint:hotpath
func (w *worker) afterStore() {
	h := w.h
	h.served[w.p.Svc]++
	if h.OnServed != nil {
		h.OnServed(w.p.Svc, w.p.Serial)
	}
	w.tc.Run(h.cfg.LoopOverhead, cpu.User, w.afterServe)
}
