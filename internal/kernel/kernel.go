// Package kernel models the operating system half of the paper's story: a
// multicore kernel with processes, threads, per-costed context switches,
// syscalls, interrupts, IPIs, a run queue, and time-slice preemption.
//
// Threads are written in continuation-passing style against the TC
// ("thread context") API: a thread consumes CPU with Run, blocks with
// Block, stalls on an outstanding interconnect access with StallOn
// (occupying its core in the low-power Stall state — the Lauberhorn
// mechanism), and so on. The kernel charges every OS operation to a core in
// cpu.Kernel state so that experiments can attribute cycles precisely to
// the twelve receive-path steps of the paper's §2.
//
// Determinism invariants: scheduling decisions depend only on simulated
// time, FIFO ready queues, and fixed cost constants — the kernel reads no
// wall clock and draws no randomness, so thread interleavings are a pure
// function of the event sequence that drives them.
package kernel

import (
	"fmt"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/sim"
)

// Costs parameterizes the kernel's fixed software overheads. Defaults
// approximate a tuned Linux on a ~2.5 GHz server (DESIGN.md's
// paper-vs-measured section names the tests that pin them).
type Costs struct {
	// ContextSwitch is the scheduler cost of switching between threads of
	// the same address space.
	ContextSwitch sim.Time
	// AddrSpaceSwitch is the additional cost when the switch crosses
	// address spaces (page-table swap, TLB effects).
	AddrSpaceSwitch sim.Time
	// SyscallEntry/SyscallExit are the user↔kernel crossing costs.
	SyscallEntry sim.Time
	SyscallExit  sim.Time
	// IRQEntry/IRQExit bracket interrupt handlers.
	IRQEntry sim.Time
	IRQExit  sim.Time
	// IPI is the cost to send and deliver an inter-processor interrupt.
	IPI sim.Time
	// Wakeup is the scheduler cost of making a thread runnable and
	// selecting a core.
	Wakeup sim.Time
	// Quantum is the time-slice after which a running thread is preempted
	// if other threads are waiting.
	Quantum sim.Time
}

// DefaultCosts returns the cost set used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		ContextSwitch:   900 * sim.Nanosecond,
		AddrSpaceSwitch: 600 * sim.Nanosecond,
		SyscallEntry:    180 * sim.Nanosecond,
		SyscallExit:     180 * sim.Nanosecond,
		IRQEntry:        600 * sim.Nanosecond,
		IRQExit:         400 * sim.Nanosecond,
		IPI:             700 * sim.Nanosecond,
		Wakeup:          350 * sim.Nanosecond,
		Quantum:         1 * sim.Millisecond,
	}
}

// Process is an address-space/isolation domain.
type Process struct {
	PID  int
	Name string
}

// KernelProc is the process identity of kernel threads; switching to or
// from it never costs an address-space switch.
var KernelProc = &Process{PID: 0, Name: "kernel"}

// ThreadState is the scheduler-visible state of a thread.
type ThreadState uint8

// Thread states.
const (
	// Runnable: waiting in the run queue.
	Runnable ThreadState = iota
	// Running: owns a core (possibly stalled on the interconnect).
	Running
	// Blocked: waiting for a Wake.
	Blocked
	// Exited: finished.
	Exited
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	}
	return "?"
}

// Thread is a schedulable execution context.
type Thread struct {
	tid   int
	name  string
	proc  *Process
	state ThreadState
	core  *coreCtx // non-nil while Running

	// tc is the thread's one context, handed to every continuation.
	tc TC

	// resume continues the thread when it is next scheduled onto a core.
	resume func(tc *TC)

	// Pinned, when non-negative, restricts the thread to one core
	// (kernel-bypass style static placement).
	pinned int

	// preemptPending is set by Preempt while the thread is stalled; the
	// stack built on top (Lauberhorn's user loop) checks it on unstall.
	preemptPending bool

	// slice bookkeeping while Running inside Run()
	sliceEv    *sim.Event
	sliceStart sim.Time
	sliceDur   sim.Time
	sliceMode  cpu.State
	sliceThen  func()
	// sliceFire is the one bound callback behind every "thread-run"
	// event: the slice state above carries the per-call parameters, so
	// Run never allocates a closure on the hot path.
	sliceFire func()
	// resumeRun replays a slice paused by preemption or an interrupt;
	// like sliceFire it is bound once and parameterized through
	// resumeDur/resumeMode/resumeThen.
	resumeRun  func(tc *TC)
	resumeDur  sim.Time
	resumeMode cpu.State
	resumeThen func()
	// wakeFire is the bound callback behind every "ksched-wakeup" event.
	wakeFire func()

	stalled bool
	// inIRQ is set while an interrupt handler borrows the thread's core;
	// preemption is deferred for that window.
	inIRQ bool
	// pendingIRQ queues interrupts that arrived while stalled.
	pendingIRQ []deferredIRQ

	// spinWaiting marks a preemptible busy-poll wait (SpinWait); unlike a
	// stalled load, the scheduler may take the core away mid-wait.
	spinWaiting bool
	spinToken   uint64
	spinReenter func(tc *TC)
	// spinFree pools the thread's SpinWait registrations.
	spinFree []*spinRec

	// popThen and popItem carry a WaitQueue delivery to popResume, the
	// bound continuation a blocked Pop resumes through.
	popThen   func(tc *TC, item any)
	popItem   any
	popResume func(tc *TC)

	// waitOn (StallOn/SpinOn) state: the per-call parameters live here so
	// the completion callback handed to the device model is the one bound
	// waitCompleteFn, and the hot wait path allocates nothing. Tokens
	// detect synchronous completion (a cache hit) even when the
	// continuation opens a nested wait that overwrites the fields: a
	// nested wait only starts after this one completed, and tokens only
	// grow, so waitDone >= token iff this wait already finished.
	waitSeq        uint64
	waitOpen       uint64
	waitDone       uint64
	waitAsync      bool
	waitThen       func()
	waitCompleteFn func()

	runTotal sim.Time
}

// TID returns the thread ID.
func (t *Thread) TID() int { return t.tid }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Proc returns the owning process.
func (t *Thread) Proc() *Process { return t.proc }

// SetProc changes the thread's process identity. Lauberhorn's RPC-worker
// kernel threads use this when they context-switch into a service's
// address space (Fig. 5 right); the caller is responsible for charging the
// switch cost.
func (t *Thread) SetProc(p *Process) { t.proc = p }

// State returns the scheduler state.
func (t *Thread) State() ThreadState { return t.state }

// Core returns the ID of the core the thread is running on, or -1.
func (t *Thread) Core() int {
	if t.core == nil {
		return -1
	}
	return t.core.cpu.ID()
}

// Stalled reports whether the thread is Running but stalled on the
// interconnect.
func (t *Thread) Stalled() bool { return t.stalled }

// PreemptPending reports (without clearing) whether a preemption request
// arrived while the thread was stalled.
func (t *Thread) PreemptPending() bool { return t.preemptPending }

// ClearPreempt acknowledges a pending preemption request.
func (t *Thread) ClearPreempt() { t.preemptPending = false }

// RunTotal returns the cumulative CPU time this thread has consumed.
func (t *Thread) RunTotal() sim.Time { return t.runTotal }

// String renders the thread for diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("thread{%d %s %v proc=%s}", t.tid, t.name, t.state, t.proc.Name)
}

type coreCtx struct {
	cpu     *cpu.Core
	current *Thread
	// quantumEv fires to preempt the current thread.
	quantumEv *sim.Event
	// quantumFn is the bound quantum-expiry callback, created once per
	// core so armQuantum does not allocate per context switch.
	quantumFn func()
	// dispatchRecs is a freelist of reusable dispatch-completion records.
	// Each record carries its own bound callback and the thread its
	// dispatch installed, so concurrent in-flight dispatches keep
	// distinct identities (their completion events may fire out of
	// schedule order when switch costs differ) while the steady state
	// allocates nothing.
	dispatchRecs []*dispatchRec
	// irqRecs is the same kind of freelist for in-flight interrupt
	// handlers: a core can take several before the first one finishes.
	irqRecs []*irqRec
}

// dispatchRec is one in-flight dispatch completion: the per-event state
// the old per-dispatch closures captured, made reusable.
type dispatchRec struct {
	c  *coreCtx
	t  *Thread
	fn func()
}

// irqRec is one in-flight interrupt handler on a core.
type irqRec struct {
	k *Kernel
	c *coreCtx
	// t is the thread the interrupt borrowed the core from, nil on an
	// idle core; prev is the core state it found, and resume is set when
	// it paused t's slice (whose remainder waits in t's resume fields).
	t      *Thread
	prev   cpu.State
	resume bool
	fn     func()
	fire   func()
}

// deferredIRQ is an interrupt held back while its core's thread is
// stalled; the unstall delivers it again.
type deferredIRQ struct {
	core int
	cost sim.Time
	fn   func()
}

// Stats counts kernel scheduling activity.
type Stats struct {
	ContextSwitches uint64
	AddrSpaceSwaps  uint64
	Preemptions     uint64
	Wakeups         uint64
	IPIs            uint64
	IRQs            uint64
	Syscalls        uint64
}

// Kernel is the machine-wide OS instance.
type Kernel struct {
	Sim   *sim.Sim
	Costs Costs

	cores   []*coreCtx
	runq    []*Thread
	nextTID int
	nextPID int
	stats   Stats

	// SchedHook, when non-nil, is invoked after every scheduling change
	// with the core and the thread now running there (nil for idle).
	// Lauberhorn's OS integration uses it to push scheduler state to the
	// NIC — the paper's "keep the NIC updated with the current OS
	// scheduling state".
	SchedHook func(coreID int, running *Thread)

	// EnqueueHook, when non-nil, is invoked whenever a thread becomes
	// runnable but no core picks it up immediately (all cores busy).
	// Lauberhorn's OS integration uses it to kick a stalled worker so
	// non-RPC work is not held behind a 15 ms TryAgain period (§5.2:
	// reallocating cores between RPC services and non-RPC processes).
	EnqueueHook func(t *Thread)
}

// New creates a kernel managing n cores at the given clock frequency.
func New(s *sim.Sim, nCores int, freqGHz float64, costs Costs) *Kernel {
	if nCores <= 0 {
		panic("kernel: need at least one core")
	}
	k := &Kernel{Sim: s, Costs: costs, nextTID: 1, nextPID: 1}
	for i := 0; i < nCores; i++ {
		c := &coreCtx{cpu: cpu.NewCore(s, i, freqGHz)}
		c.quantumFn = func() {
			c.quantumEv = nil
			k.quantumExpired(c)
		}
		k.cores = append(k.cores, c)
	}
	return k
}

// NumCores returns the number of cores.
func (k *Kernel) NumCores() int { return len(k.cores) }

// CPU returns the cpu.Core accounting object for a core.
func (k *Kernel) CPU(id int) *cpu.Core { return k.cores[id].cpu }

// Cores returns all cpu.Core objects (for energy accounting).
func (k *Kernel) Cores() []*cpu.Core {
	out := make([]*cpu.Core, len(k.cores))
	for i, c := range k.cores {
		out[i] = c.cpu
	}
	return out
}

// Stats returns a snapshot of scheduling counters.
func (k *Kernel) Stats() Stats { return k.stats }

// RunQueueLen returns the current run-queue depth.
func (k *Kernel) RunQueueLen() int { return len(k.runq) }

// Running returns the thread currently on the given core, or nil.
func (k *Kernel) Running(coreID int) *Thread { return k.cores[coreID].current }

// NewProcess allocates a process.
func (k *Kernel) NewProcess(name string) *Process {
	p := &Process{PID: k.nextPID, Name: name}
	k.nextPID++
	return p
}

// Spawn creates a thread in proc that begins executing body when first
// scheduled. It is immediately runnable.
func (k *Kernel) Spawn(proc *Process, name string, body func(tc *TC)) *Thread {
	if proc == nil {
		proc = KernelProc
	}
	t := &Thread{tid: k.nextTID, name: name, proc: proc, state: Runnable, pinned: -1, resume: body}
	t.tc = TC{k: k, t: t}
	k.nextTID++
	k.enqueue(t)
	return t
}

// SpawnPinned creates a thread bound to a single core, as kernel-bypass
// runtimes do.
func (k *Kernel) SpawnPinned(proc *Process, name string, coreID int, body func(tc *TC)) *Thread {
	if coreID < 0 || coreID >= len(k.cores) {
		panic(fmt.Sprintf("kernel: bad core %d", coreID))
	}
	if proc == nil {
		proc = KernelProc
	}
	t := &Thread{tid: k.nextTID, name: name, proc: proc, state: Runnable, pinned: coreID, resume: body}
	t.tc = TC{k: k, t: t}
	k.nextTID++
	k.enqueue(t)
	return t
}

// enqueue makes t runnable and kicks scheduling.
func (k *Kernel) enqueue(t *Thread) {
	t.state = Runnable
	t.core = nil
	k.runq = append(k.runq, t)
	k.kick()
	k.armContendedQuanta()
	if t.state == Runnable && k.EnqueueHook != nil {
		k.EnqueueHook(t)
	}
}

// armContendedQuanta (re)arms the preemption timer on busy cores whose
// timer went dormant while they were uncontended. The timer is kept
// dormant otherwise so an otherwise-quiescent simulation drains instead of
// ticking forever.
func (k *Kernel) armContendedQuanta() {
	if k.Costs.Quantum <= 0 || len(k.runq) == 0 {
		return
	}
	for _, c := range k.cores {
		if c.current != nil && c.quantumEv == nil && k.dequeueablePending(c) != nil {
			k.armQuantum(c)
		}
	}
}

// kick dispatches runnable threads onto idle cores.
func (k *Kernel) kick() {
	for _, c := range k.cores {
		if c.current != nil {
			continue
		}
		t := k.dequeueFor(c)
		if t == nil {
			continue
		}
		k.dispatch(c, t, nil)
	}
}

// dequeueFor removes and returns the first runnable thread eligible for
// core c, or nil.
func (k *Kernel) dequeueFor(c *coreCtx) *Thread {
	for i, t := range k.runq {
		if t.pinned >= 0 && t.pinned != c.cpu.ID() {
			continue
		}
		k.runq = append(k.runq[:i], k.runq[i+1:]...)
		return t
	}
	return nil
}

// dispatch installs t on core c, charging context-switch costs, then calls
// t.resume. prev is the thread being switched away from (nil if the core
// was idle).
func (k *Kernel) dispatch(c *coreCtx, t *Thread, prev *Thread) {
	cost := k.Costs.ContextSwitch
	if prev != nil && prev.proc != t.proc && prev.proc != KernelProc && t.proc != KernelProc {
		cost += k.Costs.AddrSpaceSwitch
		k.stats.AddrSpaceSwaps++
	} else if prev != nil && prev.proc != t.proc {
		// Crossing into or out of the kernel's address space is cheaper
		// but not free; charge the base cost only.
		k.stats.AddrSpaceSwaps++
	}
	k.stats.ContextSwitches++
	c.current = t
	t.core = c
	t.state = Running
	c.cpu.SetState(cpu.Kernel)
	// Arm the time slice now, synchronously with the ownership change: a
	// quantum event left over from the previous occupant must not fire
	// against the incoming thread during the switch window.
	k.armQuantum(c)
	var rec *dispatchRec
	if n := len(c.dispatchRecs); n > 0 {
		rec = c.dispatchRecs[n-1]
		c.dispatchRecs[n-1] = nil
		c.dispatchRecs = c.dispatchRecs[:n-1]
	} else {
		rec = &dispatchRec{c: c}
		rec.fn = func() { k.dispatchDone(rec) }
	}
	rec.t = t
	k.Sim.After(cost, "ksched-dispatch", rec.fn)
}

// dispatchDone completes one dispatch. The record pins the thread that
// dispatch installed, so a completion superseded by a preemption during
// its switch window falls through regardless of the order in-flight
// completions fire in.
func (k *Kernel) dispatchDone(rec *dispatchRec) {
	c, t := rec.c, rec.t
	rec.t = nil
	c.dispatchRecs = append(c.dispatchRecs, rec)
	if c.current != t {
		return // raced with a preemption during the switch
	}
	if k.SchedHook != nil {
		k.SchedHook(c.cpu.ID(), t)
	}
	resume := t.resume
	t.resume = nil
	if resume == nil {
		panic(fmt.Sprintf("kernel: thread %v has no continuation", t))
	}
	resume(&t.tc)
}

// armQuantum schedules time-slice preemption for the core.
func (k *Kernel) armQuantum(c *coreCtx) {
	if c.quantumEv != nil {
		k.Sim.Cancel(c.quantumEv)
	}
	if k.Costs.Quantum <= 0 {
		return
	}
	c.quantumEv = k.Sim.After(k.Costs.Quantum, "ksched-quantum", c.quantumFn)
}

// quantumExpired preempts the core's thread if someone is waiting.
func (k *Kernel) quantumExpired(c *coreCtx) {
	t := c.current
	if t == nil {
		return
	}
	if k.dequeueablePending(c) == nil {
		// Nobody eligible is waiting; go dormant. enqueue re-arms when
		// contention appears.
		return
	}
	if t.spinWaiting {
		// A busy-poll loop is ordinary user code: the timer interrupt
		// preempts it.
		k.stats.Preemptions++
		k.preemptSpinWaiter(c, t)
		return
	}
	if t.stalled {
		// A stalled thread cannot take the timer interrupt until the
		// fill returns; mark it and let the owner (e.g. Lauberhorn's
		// loop) yield on unstall.
		t.preemptPending = true
		k.armQuantum(c)
		return
	}
	if t.inIRQ {
		// Don't preempt mid-interrupt-handler; retry next quantum.
		k.armQuantum(c)
		return
	}
	k.stats.Preemptions++
	k.preemptRunning(c, t)
}

// dequeueablePending reports whether some runnable thread could use core c.
func (k *Kernel) dequeueablePending(c *coreCtx) *Thread {
	for _, t := range k.runq {
		if t.pinned < 0 || t.pinned == c.cpu.ID() {
			return t
		}
	}
	return nil
}

// preemptRunning forcibly deschedules the thread mid-slice and schedules
// the next one.
func (k *Kernel) preemptRunning(c *coreCtx, t *Thread) {
	// Freeze the current Run slice, if any.
	if k.pauseSlice(t) {
		t.resume = t.resumeRunFn()
	}
	if t.resume == nil {
		panic(fmt.Sprintf("kernel: preempting %v with no way to resume", t))
	}
	t.core = nil
	t.state = Runnable
	k.runq = append(k.runq, t)
	c.current = nil
	c.cpu.SetState(cpu.Kernel)
	next := k.dequeueFor(c)
	if next != nil {
		k.dispatch(c, next, t)
	} else {
		k.idle(c)
	}
	k.armContendedQuanta()
}

// pauseSlice freezes t's running slice, if any, into t's resume fields
// and reports whether there was one.
func (k *Kernel) pauseSlice(t *Thread) bool {
	if t.sliceEv == nil {
		return false
	}
	k.Sim.Cancel(t.sliceEv)
	consumed := k.Sim.Now() - t.sliceStart
	t.runTotal += consumed
	t.resumeDur = t.sliceDur - consumed
	t.resumeMode, t.resumeThen = t.sliceMode, t.sliceThen
	t.sliceEv, t.sliceThen = nil, nil
	return true
}

// resumeRunFn returns the continuation that replays t's paused slice,
// bound on first use.
func (t *Thread) resumeRunFn() func(tc *TC) {
	if t.resumeRun == nil {
		t.resumeRun = func(tc *TC) { tc.Run(t.resumeDur, t.resumeMode, t.resumeThen) }
	}
	return t.resumeRun
}

// preemptSpinWaiter deschedules a thread parked in a SpinWait: the wait
// registration is invalidated (a stale completion will be ignored) and the
// thread re-enters its poll loop when next scheduled.
func (k *Kernel) preemptSpinWaiter(c *coreCtx, t *Thread) {
	t.spinWaiting = false
	t.spinToken++
	re := t.spinReenter
	t.spinReenter = nil
	if re == nil {
		panic(fmt.Sprintf("kernel: spin waiter %v has no reentry", t))
	}
	t.resume = re
	t.core = nil
	t.state = Runnable
	k.runq = append(k.runq, t)
	c.current = nil
	c.cpu.SetState(cpu.Kernel)
	next := k.dequeueFor(c)
	if next != nil {
		k.dispatch(c, next, t)
	} else {
		k.idle(c)
	}
	k.armContendedQuanta()
}

// idle parks a core.
func (k *Kernel) idle(c *coreCtx) {
	c.current = nil
	c.cpu.SetState(cpu.Idle)
	if c.quantumEv != nil {
		k.Sim.Cancel(c.quantumEv)
		c.quantumEv = nil
	}
	if k.SchedHook != nil {
		k.SchedHook(c.cpu.ID(), nil)
	}
}

// Wake makes a Blocked thread runnable, charging the wakeup cost to the
// waking context implicitly (the caller is a kernel path). If an idle core
// exists the thread is dispatched to it after Wakeup+IPI.
//
//lhlint:hotpath
func (k *Kernel) Wake(t *Thread) {
	if t.state != Blocked {
		return
	}
	k.stats.Wakeups++
	t.state = Runnable
	k.runq = append(k.runq, t)
	k.armContendedQuanta()
	k.Sim.After(k.Costs.Wakeup, "ksched-wakeup", t.wakeFn())
}

// wakeFn returns t's wakeup callback, bound on first use: kick the idle
// cores, and tell EnqueueHook when none of them took t. A wakeup's
// callback reads only the thread and its kernel, so wakeups in flight at
// once share it.
func (t *Thread) wakeFn() func() {
	if t.wakeFire == nil {
		k := t.tc.k
		t.wakeFire = func() {
			k.kick()
			if t.state == Runnable && k.EnqueueHook != nil {
				k.EnqueueHook(t)
			}
		}
	}
	return t.wakeFire
}

// Preempt requests that the thread give up its core. A thread running
// normally is descheduled immediately (timer-interrupt path, cost IPI). A
// stalled thread has preemptPending set — the paper's sequence where the
// kernel IPIs the core and the NIC unblocks it with TryAgain.
func (k *Kernel) Preempt(t *Thread) {
	if t.state != Running || t.core == nil {
		return
	}
	k.stats.IPIs++
	c := t.core
	if t.stalled {
		t.preemptPending = true
		return
	}
	k.Sim.After(k.Costs.IPI, "ksched-preempt-ipi", func() {
		if c.current != t || t.stalled || t.inIRQ {
			return
		}
		k.stats.Preemptions++
		if t.spinWaiting {
			k.preemptSpinWaiter(c, t)
			return
		}
		k.preemptRunning(c, t)
	})
}

// IRQ models a device interrupt delivered to the given core: the current
// thread's slice is paused, the handler cost is charged in kernel mode,
// fn runs at the end of the handler, and the slice resumes. If the core's
// thread is stalled, delivery is deferred until it unstalls (hardware
// cannot take an interrupt while the load is outstanding on this fabric —
// §5.1's reason for TryAgain).
//
//lhlint:hotpath
func (k *Kernel) IRQ(coreID int, handlerCost sim.Time, fn func()) {
	c := k.cores[coreID]
	k.stats.IRQs++
	t := c.current
	if t != nil && t.stalled {
		t.pendingIRQ = append(t.pendingIRQ, deferredIRQ{core: coreID, cost: handlerCost, fn: fn})
		return
	}
	total := k.Costs.IRQEntry + handlerCost + k.Costs.IRQExit
	r := c.newIRQ(k)
	r.fn = fn
	if t == nil {
		// Idle core: take the interrupt directly.
		c.cpu.SetState(cpu.Kernel)
		k.Sim.After(total, "kirq-idle", r.fire)
		return
	}
	r.t = t
	r.resume = k.pauseSlice(t)
	r.prev = c.cpu.State()
	c.cpu.SetState(cpu.Kernel)
	t.inIRQ = true
	k.Sim.After(total, "kirq", r.fire)
}

// newIRQ takes an interrupt record from the core's freelist, or makes
// one with its callback bound.
func (c *coreCtx) newIRQ(k *Kernel) *irqRec {
	if n := len(c.irqRecs); n > 0 {
		r := c.irqRecs[n-1]
		c.irqRecs[n-1] = nil
		c.irqRecs = c.irqRecs[:n-1]
		return r
	}
	r := &irqRec{k: k, c: c}
	r.fire = r.done
	return r
}

// done ends an interrupt handler: fn runs, then the core goes back to
// what the interrupt found — idle, or the thread's mode and its paused
// slice.
//
//lhlint:hotpath
func (r *irqRec) done() {
	k, c, t, fn, prev, resume := r.k, r.c, r.t, r.fn, r.prev, r.resume
	r.t, r.fn, r.resume = nil, nil, false
	c.irqRecs = append(c.irqRecs, r)
	if t == nil {
		fn()
		if c.current == nil {
			c.cpu.SetState(cpu.Idle)
			k.kick()
		}
		return
	}
	t.inIRQ = false
	fn()
	if c.current == t {
		c.cpu.SetState(prev)
	}
	if !resume {
		return
	}
	if c.current == t {
		t.tc.Run(t.resumeDur, t.resumeMode, t.resumeThen)
	} else {
		t.resume = t.resumeRunFn()
	}
}

// IPI sends an inter-processor interrupt to a core and runs fn in its
// handler.
func (k *Kernel) IPI(coreID int, fn func()) {
	k.stats.IPIs++
	k.Sim.After(k.Costs.IPI, "kipi", func() {
		k.IRQ(coreID, 0, fn)
	})
}
