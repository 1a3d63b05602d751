package sim

import "testing"

// The throughput contract leans on the steady-state scheduling paths being
// allocation-free: once the Event free list and the ring bucket slices are
// warm, schedule->fire and schedule->cancel must not touch the heap
// allocator. These tests pin that with the runtime's allocation counter; a
// regression here usually means a capturing closure, an interface boxing,
// or an append without preallocated capacity crept onto the hot path —
// which the lhlint hotpath analyzer should have flagged statically first.

// warm drains enough schedule->fire cycles to populate the free list and
// walk the front cursor through every ring bucket twice, so the measured
// runs below reuse existing slot capacity instead of growing it.
func warm(s *Sim, fn func()) {
	for i := 0; i < 4*ringSlots; i++ {
		e := s.After(bucketSpan/2, "warm", fn)
		s.Cancel(e)
		s.After(bucketSpan/2, "warm", fn)
		s.Step()
	}
}

func TestScheduleFireZeroAlloc(t *testing.T) {
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	warm(s, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(bucketSpan/2, "probe", fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule->fire allocates %v per op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("probe events never fired")
	}
}

func TestScheduleCancelZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	warm(s, fn)
	cancelled := s.Cancelled()
	allocs := testing.AllocsPerRun(1000, func() {
		e := s.After(bucketSpan/2, "probe", fn)
		if !s.Cancel(e) {
			t.Fatal("probe event did not cancel")
		}
		// Keep the clock moving so the lazily-cancelled corpse is swept
		// out on the same iteration instead of accumulating.
		s.After(bucketSpan/2, "probe", fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule->cancel allocates %v per op, want 0", allocs)
	}
	if s.Cancelled() <= cancelled {
		t.Fatal("probe events were never cancelled")
	}
}

// TestRunUntilSameInstantZeroAlloc pins the loop Run and RunUntil sit in
// for the whole simulation: instants that hold several events each must
// fire through the Event free list, with zero allocations once it is warm.
func TestRunUntilSameInstantZeroAlloc(t *testing.T) {
	const perInstant = 8
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	warm(s, fn)
	instant := func() {
		at := s.Now() + bucketSpan/2
		for j := 0; j < perInstant; j++ {
			s.At(at, "probe", fn)
		}
		if n := s.RunUntil(at); n != perInstant {
			t.Fatalf("RunUntil fired %d events, want %d", n, perInstant)
		}
	}
	// Grow the free list to perInstant.
	for i := 0; i < 2*ringSlots; i++ {
		instant()
	}
	allocs := testing.AllocsPerRun(1000, instant)
	if allocs != 0 {
		t.Errorf("RunUntil over %d-event instants allocates %v per op, want 0", perInstant, allocs)
	}
	if fired == 0 {
		t.Fatal("probe events never fired")
	}
}

// TestScheduleFireHeapPathZeroAlloc covers the overflow-heap route: events
// scheduled beyond the ring horizon go through heapPush/heapPop/migrate
// rather than the bucket ring, and that path must be warm-state
// allocation-free too.
func TestScheduleFireHeapPathZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 4*ringSlots; i++ {
		s.After(2*ringHorizon, "warm", fn)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(2*ringHorizon, "probe", fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("heap-path schedule->fire allocates %v per op, want 0", allocs)
	}
}
