package kernel

import (
	"testing"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/sim"
)

func newK(nCores int) (*sim.Sim, *Kernel) {
	s := sim.New(1)
	k := New(s, nCores, 2.5, DefaultCosts())
	return s, k
}

func TestSpawnRunsBody(t *testing.T) {
	s, k := newK(1)
	ran := false
	k.Spawn(nil, "t", func(tc *TC) {
		ran = true
		tc.Exit()
	})
	s.Run()
	if !ran {
		t.Fatal("thread body never ran")
	}
	if k.Stats().ContextSwitches != 1 {
		t.Errorf("context switches %d, want 1", k.Stats().ContextSwitches)
	}
}

func TestRunConsumesTime(t *testing.T) {
	s, k := newK(1)
	var endAt sim.Time
	th := k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(10*sim.Microsecond, func() {
			endAt = tc.Now()
			tc.Exit()
		})
	})
	s.Run()
	want := k.Costs.ContextSwitch + 10*sim.Microsecond
	if endAt != want {
		t.Errorf("slice ended at %v, want %v", endAt, want)
	}
	if th.RunTotal() != 10*sim.Microsecond {
		t.Errorf("RunTotal %v", th.RunTotal())
	}
	if th.State() != Exited {
		t.Errorf("state %v", th.State())
	}
	// Core returns to idle.
	if k.CPU(0).State() != cpu.Idle {
		t.Errorf("core state %v after exit", k.CPU(0).State())
	}
}

func TestRunZeroDuration(t *testing.T) {
	s, k := newK(1)
	ran := false
	k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(0, func() { ran = true; tc.Exit() })
	})
	s.Run()
	if !ran {
		t.Fatal("zero-duration run did not continue")
	}
}

func TestUserModeAccounting(t *testing.T) {
	s, k := newK(1)
	k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(5*sim.Microsecond, func() {
			tc.RunKernel(3*sim.Microsecond, func() { tc.Exit() })
		})
	})
	s.Run()
	c := k.CPU(0)
	if got := c.Residency(cpu.User); got != 5*sim.Microsecond {
		t.Errorf("user residency %v", got)
	}
	// Kernel time: context switch + 3us.
	wantK := k.Costs.ContextSwitch + 3*sim.Microsecond
	if got := c.Residency(cpu.Kernel); got != wantK {
		t.Errorf("kernel residency %v, want %v", got, wantK)
	}
}

func TestTwoThreadsShareCore(t *testing.T) {
	s, k := newK(1)
	order := []string{}
	k.Spawn(nil, "a", func(tc *TC) {
		tc.RunUser(sim.Microsecond, func() {
			order = append(order, "a")
			tc.Exit()
		})
	})
	k.Spawn(nil, "b", func(tc *TC) {
		tc.RunUser(sim.Microsecond, func() {
			order = append(order, "b")
			tc.Exit()
		})
	})
	s.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order %v", order)
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	s, k := newK(2)
	var aEnd, bEnd sim.Time
	k.Spawn(nil, "a", func(tc *TC) {
		tc.RunUser(10*sim.Microsecond, func() { aEnd = tc.Now(); tc.Exit() })
	})
	k.Spawn(nil, "b", func(tc *TC) {
		tc.RunUser(10*sim.Microsecond, func() { bEnd = tc.Now(); tc.Exit() })
	})
	s.Run()
	if aEnd != bEnd {
		t.Fatalf("parallel threads finished at %v and %v", aEnd, bEnd)
	}
}

func TestBlockAndWake(t *testing.T) {
	s, k := newK(1)
	var th *Thread
	resumed := false
	th = k.Spawn(nil, "t", func(tc *TC) {
		tc.Block(func(tc2 *TC) {
			resumed = true
			tc2.Exit()
		})
	})
	s.RunUntil(100 * sim.Microsecond)
	if resumed {
		t.Fatal("resumed without wake")
	}
	if th.State() != Blocked {
		t.Fatalf("state %v, want blocked", th.State())
	}
	k.Wake(th)
	s.Run()
	if !resumed {
		t.Fatal("wake did not resume")
	}
	if k.Stats().Wakeups != 1 {
		t.Errorf("wakeups %d", k.Stats().Wakeups)
	}
	// Waking a non-blocked thread is a no-op.
	k.Wake(th)
	if k.Stats().Wakeups != 1 {
		t.Error("wake of exited thread counted")
	}
}

func TestYield(t *testing.T) {
	s, k := newK(1)
	order := []string{}
	k.Spawn(nil, "a", func(tc *TC) {
		tc.Yield(func(tc2 *TC) {
			order = append(order, "a2")
			tc2.Exit()
		})
	})
	k.Spawn(nil, "b", func(tc *TC) {
		order = append(order, "b")
		tc.Exit()
	})
	s.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a2" {
		t.Fatalf("order %v", order)
	}
}

func TestQuantumPreemption(t *testing.T) {
	s, k := newK(1)
	k.Costs.Quantum = 100 * sim.Microsecond
	aDone, bDone := sim.Time(0), sim.Time(0)
	k.Spawn(nil, "hog", func(tc *TC) {
		tc.RunUser(time300, func() { aDone = tc.Now(); tc.Exit() })
	})
	k.Spawn(nil, "late", func(tc *TC) {
		tc.RunUser(10*sim.Microsecond, func() { bDone = tc.Now(); tc.Exit() })
	})
	s.Run()
	if bDone == 0 || aDone == 0 {
		t.Fatal("threads did not finish")
	}
	// The latecomer must have finished long before the hog's 300us.
	if bDone > 200*sim.Microsecond {
		t.Errorf("late thread finished at %v; preemption failed", bDone)
	}
	if aDone < time300 {
		t.Errorf("hog finished at %v, impossibly early", aDone)
	}
	if k.Stats().Preemptions == 0 {
		t.Error("no preemptions counted")
	}
}

const time300 = 300 * sim.Microsecond

func TestQuantumNotFiredWhenAlone(t *testing.T) {
	s, k := newK(1)
	k.Costs.Quantum = 50 * sim.Microsecond
	k.Spawn(nil, "solo", func(tc *TC) {
		tc.RunUser(time300, func() { tc.Exit() })
	})
	s.Run()
	if k.Stats().Preemptions != 0 {
		t.Errorf("solo thread preempted %d times", k.Stats().Preemptions)
	}
}

func TestPinnedThreadStaysOnCore(t *testing.T) {
	s, k := newK(2)
	var ranOn []int
	for i := 0; i < 4; i++ {
		k.SpawnPinned(nil, "p", 1, func(tc *TC) {
			tc.RunUser(sim.Microsecond, func() {
				ranOn = append(ranOn, tc.Thread().Core())
				tc.Exit()
			})
		})
	}
	s.Run()
	if len(ranOn) != 4 {
		t.Fatalf("ran %d threads", len(ranOn))
	}
	for _, c := range ranOn {
		if c != 1 {
			t.Fatalf("pinned thread ran on core %d", c)
		}
	}
}

func TestAddrSpaceSwitchCost(t *testing.T) {
	s, k := newK(1)
	pa := k.NewProcess("a")
	pb := k.NewProcess("b")
	k.Spawn(pa, "ta", func(tc *TC) { tc.RunUser(sim.Microsecond, tc.Exit) })
	k.Spawn(pb, "tb", func(tc *TC) { tc.RunUser(sim.Microsecond, tc.Exit) })
	s.Run()
	if k.Stats().AddrSpaceSwaps == 0 {
		t.Error("cross-process switch not counted")
	}
}

func TestSyscall(t *testing.T) {
	s, k := newK(1)
	var end sim.Time
	k.Spawn(nil, "t", func(tc *TC) {
		tc.Syscall(1*sim.Microsecond, func() { end = tc.Now(); tc.Exit() })
	})
	s.Run()
	want := k.Costs.ContextSwitch + k.Costs.SyscallEntry + sim.Microsecond + k.Costs.SyscallExit
	if end != want {
		t.Errorf("syscall ended at %v, want %v", end, want)
	}
	if k.Stats().Syscalls != 1 {
		t.Error("syscall not counted")
	}
}

func TestStallOnAsync(t *testing.T) {
	s, k := newK(1)
	var resumedAt sim.Time
	th := k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(sim.Microsecond, func() {
			tc.StallOn(func(complete func()) {
				s.After(20*sim.Microsecond, "dev", complete)
			}, func() {
				resumedAt = tc.Now()
				tc.Exit()
			})
		})
	})
	s.RunUntil(5 * sim.Microsecond)
	if !th.Stalled() {
		t.Fatal("thread not stalled")
	}
	if k.CPU(0).State() != cpu.Stall {
		t.Fatalf("core state %v, want stall", k.CPU(0).State())
	}
	s.Run()
	want := k.Costs.ContextSwitch + sim.Microsecond + 20*sim.Microsecond
	if resumedAt != want {
		t.Errorf("resumed at %v, want %v", resumedAt, want)
	}
	// Stall residency recorded.
	if got := k.CPU(0).Residency(cpu.Stall); got != 20*sim.Microsecond {
		t.Errorf("stall residency %v", got)
	}
}

func TestStallOnSynchronousCompletion(t *testing.T) {
	s, k := newK(1)
	hit := false
	k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(sim.Microsecond, func() {
			tc.StallOn(func(complete func()) { complete() }, func() {
				hit = true
				tc.Exit()
			})
		})
	})
	s.Run()
	if !hit {
		t.Fatal("synchronous completion lost")
	}
	if k.CPU(0).Residency(cpu.Stall) != 0 {
		t.Error("synchronous completion accrued stall time")
	}
}

func TestStallOnDoubleCompletePanics(t *testing.T) {
	s, k := newK(1)
	var fire func()
	k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(sim.Microsecond, func() {
			tc.StallOn(func(complete func()) {
				fire = complete
				s.After(sim.Microsecond, "dev", complete)
			}, func() {})
		})
	})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double completion did not panic")
		}
	}()
	fire()
}

func TestIRQPausesSlice(t *testing.T) {
	s, k := newK(1)
	var end sim.Time
	k.Spawn(nil, "t", func(tc *TC) {
		tc.RunUser(10*sim.Microsecond, func() { end = tc.Now(); tc.Exit() })
	})
	// Interrupt in the middle of the slice.
	s.At(k.Costs.ContextSwitch+5*sim.Microsecond, "dev-irq", func() {
		k.IRQ(0, 2*sim.Microsecond, func() {})
	})
	s.Run()
	want := k.Costs.ContextSwitch + 10*sim.Microsecond +
		k.Costs.IRQEntry + 2*sim.Microsecond + k.Costs.IRQExit
	if end != want {
		t.Errorf("slice ended %v, want %v (IRQ must pause, not cancel)", end, want)
	}
	if k.Stats().IRQs != 1 {
		t.Error("IRQ not counted")
	}
}

func TestIRQOnIdleCore(t *testing.T) {
	s, k := newK(1)
	handled := false
	k.IRQ(0, sim.Microsecond, func() { handled = true })
	s.Run()
	if !handled {
		t.Fatal("idle-core IRQ not handled")
	}
	if k.CPU(0).State() != cpu.Idle {
		t.Error("core not back to idle")
	}
	if k.CPU(0).Residency(cpu.Kernel) == 0 {
		t.Error("IRQ time not charged")
	}
}

func TestIRQDeferredWhileStalled(t *testing.T) {
	s, k := newK(1)
	var unstall func()
	irqAt := sim.Time(0)
	k.Spawn(nil, "t", func(tc *TC) {
		tc.StallOn(func(complete func()) { unstall = complete },
			func() { tc.Exit() })
	})
	s.RunUntil(10 * sim.Microsecond)
	k.IRQ(0, sim.Microsecond, func() { irqAt = s.Now() })
	s.RunUntil(50 * sim.Microsecond)
	if irqAt != 0 {
		t.Fatal("IRQ delivered while core stalled")
	}
	unstall()
	s.Run()
	if irqAt == 0 {
		t.Fatal("deferred IRQ never delivered")
	}
	if irqAt < 50*sim.Microsecond {
		t.Errorf("IRQ at %v, want after unstall", irqAt)
	}
}

func TestPreemptRunningThread(t *testing.T) {
	s, k := newK(1)
	var hogDone, otherDone sim.Time
	hog := k.Spawn(nil, "hog", func(tc *TC) {
		tc.RunUser(200*sim.Microsecond, func() { hogDone = tc.Now(); tc.Exit() })
	})
	k.Spawn(nil, "other", func(tc *TC) {
		tc.RunUser(sim.Microsecond, func() { otherDone = tc.Now(); tc.Exit() })
	})
	s.At(20*sim.Microsecond, "preempt", func() { k.Preempt(hog) })
	s.Run()
	if otherDone == 0 || otherDone > 100*sim.Microsecond {
		t.Errorf("other finished at %v; preempt ineffective", otherDone)
	}
	if hogDone == 0 {
		t.Error("hog never finished")
	}
	if k.Stats().IPIs == 0 {
		t.Error("no IPI counted")
	}
}

func TestPreemptStalledSetsPending(t *testing.T) {
	s, k := newK(1)
	var unstall func()
	sawPending := false
	th := k.Spawn(nil, "t", func(tc *TC) {
		tc.StallOn(func(complete func()) { unstall = complete }, func() {
			sawPending = tc.Thread().PreemptPending()
			tc.Thread().ClearPreempt()
			tc.Exit()
		})
	})
	s.RunUntil(10 * sim.Microsecond)
	k.Preempt(th)
	s.RunUntil(20 * sim.Microsecond)
	if th.State() != Running {
		t.Fatal("stalled thread lost its core to Preempt; must wait for unstall")
	}
	unstall()
	s.Run()
	if !sawPending {
		t.Fatal("preempt-pending flag not visible on unstall")
	}
	if th.PreemptPending() {
		t.Error("ClearPreempt did not clear")
	}
}

func TestWaitQueuePushThenPop(t *testing.T) {
	s, k := newK(1)
	q := k.NewWaitQueue("sock")
	q.Push("x")
	q.Push("y")
	var got []string
	k.Spawn(nil, "t", func(tc *TC) {
		q.Pop(tc, func(tc2 *TC, item any) {
			got = append(got, item.(string))
			q.Pop(tc2, func(tc3 *TC, item any) {
				got = append(got, item.(string))
				tc3.Exit()
			})
		})
	})
	s.Run()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v", got)
	}
}

func TestWaitQueuePopThenPush(t *testing.T) {
	s, k := newK(1)
	q := k.NewWaitQueue("sock")
	var got string
	k.Spawn(nil, "t", func(tc *TC) {
		q.Pop(tc, func(tc2 *TC, item any) {
			got = item.(string)
			tc2.Exit()
		})
	})
	s.RunUntil(10 * sim.Microsecond)
	if got != "" {
		t.Fatal("pop completed on empty queue")
	}
	q.Push("z")
	s.Run()
	if got != "z" {
		t.Fatalf("got %q", got)
	}
}

func TestWaitQueueOverflow(t *testing.T) {
	_, k := newK(1)
	q := k.NewWaitQueue("sock")
	q.MaxDepth = 2
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("pushes under limit failed")
	}
	if q.Push(3) {
		t.Fatal("push over limit succeeded")
	}
	if q.Dropped != 1 {
		t.Errorf("dropped %d", q.Dropped)
	}
	if q.MaxSeen() != 2 {
		t.Errorf("maxSeen %d", q.MaxSeen())
	}
}

// TestWaitQueueConstantDepth holds a wait queue at constant depth for
// many cycles, once with k items queued and once with k threads blocked
// in Pop: items and waiters both leave in FIFO order, and each queue's
// backing array stays within twice its depth instead of growing with the
// cycle count.
func TestWaitQueueConstantDepth(t *testing.T) {
	const cycles = 2000
	for _, depth := range []int{1, 3, 8, 50} {
		s, k := newK(1)
		q := k.NewWaitQueue("items")
		pushed, popped := 0, 0
		for ; pushed < depth; pushed++ {
			q.Push(pushed)
		}
		k.Spawn(nil, "consumer", func(tc *TC) {
			for i := 0; i < cycles; i++ {
				q.Pop(tc, func(_ *TC, item any) {
					if item.(int) != popped {
						t.Fatalf("depth %d: popped item %d, want %d", depth, item, popped)
					}
					popped++
				})
				q.Push(pushed)
				pushed++
			}
			tc.Exit()
		})
		s.Run()
		if popped != cycles || q.Len() != depth {
			t.Fatalf("depth %d: %d pops, %d left queued", depth, popped, q.Len())
		}
		if c := q.items.Cap(); c > 2*depth {
			t.Errorf("depth %d: item queue cap %d, want <= %d", depth, c, 2*depth)
		}

		// k threads take turns: each Push wakes the longest waiter, which
		// records itself and blocks again at the tail.
		s, k = newK(1)
		q = k.NewWaitQueue("waiters")
		var order []int
		for i := 0; i < depth; i++ {
			var loop func(tc *TC)
			loop = func(tc *TC) {
				q.Pop(tc, func(tc2 *TC, _ any) {
					order = append(order, i)
					loop(tc2)
				})
			}
			k.Spawn(nil, "waiter", loop)
		}
		for n := 1; n <= cycles; n++ {
			s.At(sim.Time(n)*10*sim.Microsecond, "push", func() { q.Push(n) })
		}
		s.Run()
		if len(order) != cycles {
			t.Fatalf("depth %d: %d deliveries, want %d", depth, len(order), cycles)
		}
		for n, who := range order {
			if who != n%depth {
				t.Fatalf("depth %d: delivery %d went to waiter %d, want %d", depth, n, who, n%depth)
			}
		}
		if c := q.waiters.Cap(); c > 2*depth {
			t.Errorf("depth %d: waiter queue cap %d, want <= %d", depth, c, 2*depth)
		}
	}
}

func TestSchedHookReportsPlacement(t *testing.T) {
	s, k := newK(2)
	type ev struct {
		core int
		tid  int
	}
	var evs []ev
	k.SchedHook = func(coreID int, running *Thread) {
		tid := -1
		if running != nil {
			tid = running.TID()
		}
		evs = append(evs, ev{coreID, tid})
	}
	k.Spawn(nil, "a", func(tc *TC) { tc.RunUser(sim.Microsecond, tc.Exit) })
	s.Run()
	if len(evs) < 2 {
		t.Fatalf("hook events %v", evs)
	}
	// First: thread placed. Last: core idle again.
	if evs[0].tid == -1 {
		t.Error("first hook event should be a placement")
	}
	if evs[len(evs)-1].tid != -1 {
		t.Error("last hook event should be idle")
	}
}

func TestManyThreadsManyCoresprogress(t *testing.T) {
	s, k := newK(4)
	k.Costs.Quantum = 50 * sim.Microsecond
	done := 0
	for i := 0; i < 40; i++ {
		k.Spawn(nil, "w", func(tc *TC) {
			tc.RunUser(sim.Time(10+i%7)*sim.Microsecond, func() {
				done++
				tc.Exit()
			})
		})
	}
	s.Run()
	if done != 40 {
		t.Fatalf("only %d/40 threads completed", done)
	}
}

func TestRunNegativePanics(t *testing.T) {
	s, k := newK(1)
	defer func() { recover() }()
	panicked := false
	k.Spawn(nil, "t", func(tc *TC) {
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			tc.RunUser(-sim.Microsecond, func() {})
		}()
		tc.Exit()
	})
	s.Run()
	if !panicked {
		t.Fatal("negative Run did not panic")
	}
}

func TestThreadStateString(t *testing.T) {
	if Runnable.String() != "runnable" || Running.String() != "running" ||
		Blocked.String() != "blocked" || Exited.String() != "exited" ||
		ThreadState(9).String() != "?" {
		t.Fatal("state strings wrong")
	}
}

func TestStallForDuration(t *testing.T) {
	s, k := newK(1)
	var end sim.Time
	k.Spawn(nil, "t", func(tc *TC) {
		tc.StallFor(7*sim.Microsecond, func() { end = tc.Now(); tc.Exit() })
	})
	s.Run()
	want := k.Costs.ContextSwitch + 7*sim.Microsecond
	if end != want {
		t.Errorf("StallFor ended at %v, want %v", end, want)
	}
}
