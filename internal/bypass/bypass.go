// Package bypass models a kernel-bypass dataplane in the style of IX,
// Arrakis and Demikernel: each worker owns a NIC receive queue mapped into
// user space, busy-polls it with interrupts disabled, and runs RPC handlers
// to completion with no syscalls on the data path.
//
// This is the paper's performance baseline — the fastest of the
// traditional stacks when workers are statically provisioned one-per-core,
// and the least flexible otherwise: an idle worker still burns a core
// (Spin power), and when services outnumber cores, workers time-share
// cores on the kernel's quantum and requests for descheduled services wait
// out entire time slices (experiment E4).
//
// Determinism invariants: worker-to-core pinning is fixed round-robin at
// provisioning time, queue steering is port-modulo-queues, and polling
// loops advance only on simulator events — no randomness, no wall clock.
package bypass

import (
	"fmt"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Costs are the user-space per-packet costs of the bypass dataplane.
// They are deliberately lean: this is a tuned dataplane OS, not sockets.
type Costs struct {
	// PollDiscover is the time from a packet landing in the ring to the
	// poll loop picking it up (average half a poll-iteration).
	PollDiscover sim.Time
	// RxProcess is user-space protocol handling per packet (headers
	// already verified by NIC offloads).
	RxProcess sim.Time
	// TxBuild covers building headers + the TX descriptor.
	TxBuild sim.Time
}

// DefaultCosts returns the cost set used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		PollDiscover: 40 * sim.Nanosecond,
		RxProcess:    250 * sim.Nanosecond,
		TxBuild:      200 * sim.Nanosecond,
	}
}

// WorkerConfig describes one bypass worker: a service bound to a NIC
// queue.
type WorkerConfig struct {
	Queue    *nicdma.RxQueue
	NIC      *nicdma.NIC
	Local    wire.Endpoint // source endpoint for responses
	Registry *rpc.Registry
	Codec    rpc.CostModel
	Costs    Costs
	// OnResponse observes responses before transmit (tests/metrics).
	OnResponse func(m *rpc.Message)
	// OnServed is called after each request completes, with the request
	// message and its queue residence time (ring arrival → response
	// transmitted).
	OnServed func(m *rpc.Message)
}

// Stats counts worker activity.
type Stats struct {
	Served   uint64
	BadRPC   uint64
	NoMethod uint64
}

// Worker is the state of one bypass poll-loop thread. The run-to-
// completion pipeline is flattened into prebound stage continuations: a
// worker serves one request at a time, so the per-request fields are
// reused across iterations. The response frame comes from the NIC's
// frame pool and the request goes back to the NIC once answered, so the
// steady state allocates nothing.
type Worker struct {
	cfg   WorkerConfig
	stats Stats
	ipID  uint16

	tc *kernel.TC // current thread context, refreshed on (re)dispatch

	// per-request state
	pkt     *nicdma.Packet // the request, handed back once answered
	msg     rpc.Message
	status  uint16
	body    []byte
	encScr  []byte // response-encoding scratch; copied into the frame
	respMsg rpc.Message

	// continuations, bound once
	pollFn       func()
	resumeFn     func(*kernel.TC)
	arrivalIssue func(func())
	discovered   func()
	afterRx      func()
	afterSvc     func()
	afterTx      func()
}

// NewWorker validates the configuration and returns a worker whose Loop is
// a thread body for kernel.Spawn/SpawnPinned.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Queue == nil || cfg.NIC == nil || cfg.Registry == nil {
		panic("bypass: incomplete worker config")
	}
	cfg.Queue.DisableIRQ()
	w := &Worker{cfg: cfg}
	w.pollFn = w.poll
	w.resumeFn = func(tc2 *kernel.TC) { w.tc = tc2; w.poll() }
	w.arrivalIssue = func(complete func()) { w.cfg.Queue.OnArrival(complete) }
	w.discovered = func() { w.tc.Run(w.cfg.Costs.PollDiscover, cpu.Spin, w.pollFn) }
	w.afterRx = w.dispatch
	w.afterSvc = w.encode
	w.afterTx = w.transmit
	return w
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() Stats { return w.stats }

// Loop is the run-to-completion poll loop (a thread body).
func (w *Worker) Loop(tc *kernel.TC) {
	w.tc = tc
	w.poll()
}

//lhlint:hotpath
func (w *Worker) poll() {
	tc := w.tc
	// Honour a deferred preemption (we might have been spinning when the
	// kernel decided to take the core away).
	if tc.Thread().PreemptPending() {
		tc.Thread().ClearPreempt()
		tc.Yield(w.resumeFn)
		return
	}
	p := w.cfg.Queue.Poll()
	if p == nil {
		// Park on the empty ring, burning Spin power until a packet
		// lands, then pay the discovery cost. The wait is preemptible:
		// if the kernel time-slices us out (services > cores), we
		// re-enter the poll loop when rescheduled.
		tc.SpinWait(w.arrivalIssue, w.discovered, w.resumeFn)
		return
	}
	w.serve(p)
}

// serve starts one request: decode, then charge receive-side processing.
//
//lhlint:hotpath
func (w *Worker) serve(p *nicdma.Packet) {
	w.pkt = p
	if err := rpc.DecodeInto(p.Payload, &w.msg); err != nil {
		w.stats.BadRPC++
		w.release()
		w.poll()
		return
	}
	c := &w.cfg
	work := c.Costs.RxProcess + c.Codec.Unmarshal(len(w.msg.Body)) + c.Codec.DispatchLookup
	w.tc.RunUser(work, w.afterRx)
}

// dispatch looks up the handler, runs it, and charges its service time.
//
//lhlint:hotpath
func (w *Worker) dispatch() {
	c := &w.cfg
	svc := c.Registry.Lookup(w.msg.Service)
	var m *rpc.MethodDesc
	if svc != nil {
		m = svc.Method(w.msg.Method)
	}
	w.status = rpc.StatusOK
	w.body = nil
	var service sim.Time
	if m == nil {
		w.stats.NoMethod++
		w.status = rpc.StatusNoSuchMethod
	} else {
		w.body, service = m.Handler(w.msg.Body)
	}
	w.tc.RunUser(service, w.afterSvc)
}

// encode serializes the response into the worker's scratch buffer and
// charges marshalling plus TX descriptor costs. The scratch is safe to
// reuse because BuildUDP copies the payload into the frame.
//
//lhlint:hotpath
func (w *Worker) encode() {
	c := &w.cfg
	w.encScr = rpc.AppendMessage(w.encScr[:0], rpc.Header{
		Kind: rpc.KindResponse, Service: w.msg.Service, Method: w.msg.Method,
		ID: w.msg.ID, Status: w.status,
	}, w.body)
	tx := c.Codec.Marshal(len(w.body)) + c.Costs.TxBuild + c.NIC.DoorbellCost()
	w.tc.RunUser(tx, w.afterTx)
}

// transmit builds the response frame from the NIC's frame pool, hands it
// to the NIC, hands the request back once OnServed has seen it, and
// re-enters the poll loop.
//
//lhlint:hotpath
func (w *Worker) transmit() {
	c := &w.cfg
	p := w.pkt
	w.ipID++
	dst := wire.Endpoint{MAC: p.Eth.Src, IP: p.IP.Src, Port: p.UDP.SrcPort}
	frame, err := c.NIC.Pool().BuildUDP(c.Local, dst, w.ipID, w.encScr)
	if err != nil {
		panicTx(err)
	}
	if c.OnResponse != nil {
		if err := rpc.DecodeInto(w.encScr, &w.respMsg); err == nil {
			c.OnResponse(&w.respMsg)
		}
	}
	c.NIC.Transmit(frame)
	w.stats.Served++
	if c.OnServed != nil {
		c.OnServed(&w.msg)
	}
	w.release()
	w.poll()
}

// release hands the request packet back to the NIC. The response was
// encoded into the worker's scratch and OnServed has returned, so no
// alias of the request frame survives.
//
//lhlint:hotpath
func (w *Worker) release() {
	w.cfg.NIC.Release(w.pkt)
	w.pkt = nil
	w.msg.Body = nil
}

// panicTx keeps the fmt boxing of the oversized-response panic off the
// transmit hot path; it never returns.
func panicTx(err error) {
	panic(fmt.Sprintf("bypass: tx: %v", err))
}
