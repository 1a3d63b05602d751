package kernel

import (
	"fmt"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/sim"
)

// TC is the thread context handed to thread bodies; all continuation-
// passing thread operations go through it. A TC is only valid while its
// thread is Running.
type TC struct {
	k *Kernel
	t *Thread
}

// Kernel returns the owning kernel.
func (tc *TC) Kernel() *Kernel { return tc.k }

// Thread returns the thread.
func (tc *TC) Thread() *Thread { return tc.t }

// Sim returns the simulator.
func (tc *TC) Sim() *sim.Sim { return tc.k.Sim }

// Now returns the current simulated time.
func (tc *TC) Now() sim.Time { return tc.k.Sim.Now() }

func (tc *TC) mustBeRunning(op string) {
	if tc.t.state != Running || tc.t.core == nil {
		panic(fmt.Sprintf("kernel: %s on non-running %v", op, tc.t))
	}
}

// Run consumes d of CPU time in the given mode, then continues with then.
// The slice may be interrupted (IRQ) or preempted (quantum/IPI); the
// remaining time is preserved in either case.
func (tc *TC) Run(d sim.Time, mode cpu.State, then func()) {
	tc.mustBeRunning("Run")
	if d < 0 {
		panic("kernel: negative Run duration")
	}
	t := tc.t
	c := t.core
	if d == 0 {
		c.cpu.SetState(mode)
		then()
		return
	}
	c.cpu.SetState(mode)
	t.sliceStart = tc.k.Sim.Now()
	t.sliceDur = d
	t.sliceMode = mode
	t.sliceThen = then
	if t.sliceFire == nil {
		t.sliceFire = func() {
			then := t.sliceThen
			t.sliceEv = nil
			t.sliceThen = nil
			t.runTotal += t.sliceDur
			then()
		}
	}
	t.sliceEv = tc.k.Sim.After(d, "thread-run", t.sliceFire)
}

// RunUser is shorthand for Run in user mode.
func (tc *TC) RunUser(d sim.Time, then func()) { tc.Run(d, cpu.User, then) }

// RunKernel is shorthand for Run in kernel mode.
func (tc *TC) RunKernel(d sim.Time, then func()) { tc.Run(d, cpu.Kernel, then) }

// Syscall charges entry + work + exit around fn, modelling a system call.
func (tc *TC) Syscall(work sim.Time, then func()) {
	tc.mustBeRunning("Syscall")
	tc.k.stats.Syscalls++
	tc.Run(tc.k.Costs.SyscallEntry+work+tc.k.Costs.SyscallExit, cpu.Kernel, then)
}

// Block deschedules the thread until Wake; it then resumes with then after
// being re-dispatched (context-switch costs apply). The core picks up the
// next runnable thread or idles.
func (tc *TC) Block(then func(tc2 *TC)) {
	tc.mustBeRunning("Block")
	t := tc.t
	c := t.core
	t.state = Blocked
	t.core = nil
	t.resume = then
	c.current = nil
	next := tc.k.dequeueFor(c)
	if next != nil {
		tc.k.dispatch(c, next, t)
	} else {
		tc.k.idle(c)
	}
}

// Yield voluntarily releases the core, re-queueing the thread at the tail
// of the run queue.
func (tc *TC) Yield(then func(tc2 *TC)) {
	tc.mustBeRunning("Yield")
	t := tc.t
	c := t.core
	t.state = Runnable
	t.core = nil
	t.resume = then
	tc.k.runq = append(tc.k.runq, t)
	c.current = nil
	next := tc.k.dequeueFor(c)
	if next != nil {
		tc.k.dispatch(c, next, t)
	} else {
		tc.k.idle(c)
	}
	tc.k.armContendedQuanta()
}

// Exit terminates the thread and releases its core.
func (tc *TC) Exit() {
	tc.mustBeRunning("Exit")
	t := tc.t
	c := t.core
	t.state = Exited
	t.core = nil
	c.current = nil
	next := tc.k.dequeueFor(c)
	if next != nil {
		tc.k.dispatch(c, next, t)
	} else {
		tc.k.idle(c)
	}
}

// StallOn issues an asynchronous interconnect operation and stalls the
// core until it completes. issue receives a complete callback that the
// device model must invoke exactly once (possibly synchronously for a
// cache hit); the thread then continues with then.
//
// While stalled the thread still owns its core, but the core draws Stall
// power rather than Spin power — this is the paper's "the core is stalled
// (rather than spinning)". Interrupts targeting the core are deferred
// until the stall resolves, and preemption requests set PreemptPending for
// the continuation to honour.
func (tc *TC) StallOn(issue func(complete func()), then func()) {
	tc.waitOn(cpu.Stall, issue, then)
}

// SpinOn is StallOn's busy-polling sibling: the thread waits for the
// asynchronous completion while its core burns Spin power, as a
// kernel-bypass poll loop does. Scheduling-wise the two are identical (the
// thread keeps its core and defers preemption); only the power state — and
// therefore the energy experiments — differ. For a *preemptible* poll loop
// use SpinWait instead.
func (tc *TC) SpinOn(issue func(complete func()), then func()) {
	tc.waitOn(cpu.Spin, issue, then)
}

// SpinWait parks the thread in a preemptible busy-poll wait. issue
// registers an asynchronous completion (e.g. RxQueue.OnArrival), which it
// or the device model invokes at most once; while waiting, the core
// burns Spin power but remains an ordinary preemption target — a
// spinning process takes timer interrupts, unlike one stalled on a cache
// fill. If the scheduler takes the core away mid-wait, the registration
// is abandoned (a late completion is ignored) and reenter runs when the
// thread is next scheduled, so the caller re-polls from scratch.
//
//lhlint:hotpath
func (tc *TC) SpinWait(issue func(complete func()), then func(), reenter func(tc2 *TC)) {
	tc.mustBeRunning("SpinWait")
	if reenter == nil {
		panic("kernel: SpinWait needs a reentry continuation")
	}
	t := tc.t
	r := t.newSpinRec()
	t.spinToken++
	r.token = t.spinToken
	r.then = then
	issue(r.fire)
	if r.done {
		// Completed synchronously inside issue: no spin occurred.
		t.spinFree = append(t.spinFree, r)
		return
	}
	r.parked = true
	t.spinWaiting = true
	t.spinReenter = reenter
	t.core.cpu.SetState(cpu.Spin)
}

// spinRec is one SpinWait registration. Its completion may still arrive
// after the scheduler cancelled the wait, so the record carries the token
// it was issued under, and a completion whose token is no longer the
// thread's is ignored. The record returns to the thread's freelist once
// its completion has run.
type spinRec struct {
	t      *Thread
	token  uint64
	then   func()
	parked bool // issue returned before completing: the thread spins
	done   bool
	fire   func()
}

// newSpinRec takes a registration from t's freelist, or makes one with
// its completion bound.
func (t *Thread) newSpinRec() *spinRec {
	if n := len(t.spinFree); n > 0 {
		r := t.spinFree[n-1]
		t.spinFree[n-1] = nil
		t.spinFree = t.spinFree[:n-1]
		r.parked, r.done = false, false
		return r
	}
	r := &spinRec{t: t}
	r.fire = r.complete
	return r
}

// complete is a SpinWait's completion callback.
//
//lhlint:hotpath
func (r *spinRec) complete() {
	if r.done {
		panic("kernel: SpinWait completion invoked twice")
	}
	r.done = true
	then := r.then
	r.then = nil
	if !r.parked {
		// Synchronous, inside issue; SpinWait recycles the record.
		then()
		return
	}
	t := r.t
	stale := t.spinToken != r.token || !t.spinWaiting
	t.spinFree = append(t.spinFree, r)
	if stale {
		return // the wait was cancelled by preemption
	}
	// A live wait still owns its core: only preemptSpinWaiter takes a
	// spinning thread's core, and it invalidates the token.
	t.spinWaiting = false
	t.spinReenter = nil
	t.core.cpu.SetState(t.sliceMode)
	then()
}

//lhlint:hotpath
func (tc *TC) waitOn(mode cpu.State, issue func(complete func()), then func()) {
	tc.mustBeRunning("StallOn")
	t := tc.t
	c := t.core
	t.waitSeq++
	token := t.waitSeq
	t.waitOpen = token
	t.waitAsync = false
	t.waitThen = then
	if t.waitCompleteFn == nil {
		t.waitCompleteFn = t.waitFinish
	}
	issue(t.waitCompleteFn)
	if t.waitDone >= token {
		// Completed synchronously (hit) — no stall occurred. The token
		// comparison survives nested waits opened by the continuation.
		return
	}
	t.waitAsync = true
	t.stalled = true
	c.cpu.SetState(mode)
}

// waitFinish is the one bound completion callback behind every waitOn;
// the wait state on the thread carries the per-call parameters.
//
//lhlint:hotpath
func (t *Thread) waitFinish() {
	if t.waitDone >= t.waitOpen {
		panic("kernel: StallOn completion invoked twice")
	}
	t.waitDone = t.waitOpen
	then := t.waitThen
	t.waitThen = nil
	if !t.waitAsync {
		// Completed synchronously (hit) inside issue.
		then()
		return
	}
	c := t.core
	if c == nil || c.current != t {
		panicLostCore(t)
	}
	t.stalled = false
	c.cpu.SetState(t.sliceMode)
	// Deliver interrupts that arrived during the stall, then continue.
	pending := t.pendingIRQ
	t.pendingIRQ = nil
	for _, irq := range pending {
		t.tc.k.IRQ(irq.core, irq.cost, irq.fn)
	}
	then()
}

// panicLostCore keeps the fmt boxing of the lost-core panic off the
// unstall hot path; it never returns.
func panicLostCore(t *Thread) {
	panic(fmt.Sprintf("kernel: %v unstalled after losing its core", t))
}

// Stalls the calling thread for exactly d (a pure delay in the Stall
// state), used to model blocking hardware waits in tests.
func (tc *TC) StallFor(d sim.Time, then func()) {
	tc.StallOn(func(complete func()) {
		tc.k.Sim.After(d, "stall-for", complete)
	}, then)
}

// WaitQueue is a kernel wait object carrying opaque items — the model for
// socket receive queues. Push delivers an item to a waiting thread or
// queues it; Pop takes an item or blocks the caller.
type WaitQueue struct {
	k       *Kernel
	name    string
	items   fifo.Queue[any]
	waiters fifo.Queue[waiter]
	// MaxDepth, when positive, bounds the queue; Push beyond it drops the
	// item and counts it (socket buffer overflow).
	MaxDepth int
	Dropped  uint64
	maxSeen  int
}

type waiter struct {
	t    *Thread
	then func(tc *TC, item any)
}

// NewWaitQueue creates a wait queue.
func (k *Kernel) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{k: k, name: name}
}

// Len returns the number of queued items.
func (q *WaitQueue) Len() int { return q.items.Len() }

// MaxSeen returns the high-water mark of queued items.
func (q *WaitQueue) MaxSeen() int { return q.maxSeen }

// Push delivers an item: wakes the first waiter, or queues the item.
// Returns false if the queue overflowed and the item was dropped; the
// caller still owns a dropped item.
//
//lhlint:hotpath
func (q *WaitQueue) Push(item any) bool {
	if q.waiters.Len() > 0 {
		w := q.waiters.Pop()
		t := w.t
		if t.state != Blocked {
			panicWaiterNotBlocked(t)
		}
		t.popThen, t.popItem = w.then, item
		t.resume = t.popResumeFn()
		q.k.Wake(t)
		return true
	}
	if q.MaxDepth > 0 && q.items.Len() >= q.MaxDepth {
		q.Dropped++
		return false
	}
	q.items.Push(item)
	if n := q.items.Len(); n > q.maxSeen {
		q.maxSeen = n
	}
	return true
}

// Pop takes the next item, blocking the thread when the queue is empty.
//
//lhlint:hotpath
func (q *WaitQueue) Pop(tc *TC, then func(tc2 *TC, item any)) {
	if q.items.Len() > 0 {
		then(tc, q.items.Pop())
		return
	}
	q.waiters.Push(waiter{t: tc.t, then: then})
	tc.Block(resumedWithoutItem)
}

// popResumeFn returns t's WaitQueue resume continuation, bound on first
// use: it hands the item Push delivered to the blocked Pop's callback.
func (t *Thread) popResumeFn() func(tc *TC) {
	if t.popResume == nil {
		t.popResume = func(tc *TC) {
			then, item := t.popThen, t.popItem
			t.popThen, t.popItem = nil, nil
			then(tc, item)
		}
	}
	return t.popResume
}

// resumedWithoutItem is a blocked Pop's placeholder continuation; Push
// replaces it before the wakeup.
func resumedWithoutItem(*TC) {
	panic("kernel: waitqueue waiter resumed without item")
}

// panicWaiterNotBlocked keeps the fmt boxing of the corrupt-waiter panic
// off the Push hot path; it never returns.
func panicWaiterNotBlocked(t *Thread) {
	panic(fmt.Sprintf("kernel: waitqueue waiter %v not blocked", t))
}
