package sim

import (
	"slices"
	"testing"
)

// TestAtKeyedOrdering pins the merge-order contract the sharded executor
// relies on: at one instant, At/After events fire first in scheduling
// order, then keyed events in ascending key order — regardless of the
// order the keyed events were scheduled in.
func TestAtKeyedOrdering(t *testing.T) {
	s := New(1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	const at = 100 * Nanosecond
	s.AtKeyed(at, KeyedBase|7, "k7", rec(107))
	s.At(at, "n0", rec(0))
	s.AtKeyed(at, KeyedBase|3, "k3", rec(103))
	s.At(at, "n1", rec(1))
	s.AtKeyed(at, KeyedBase|5, "k5", rec(105))
	s.Run()

	want := []int{0, 1, 103, 105, 107}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestAtKeyedAfterCallbackEvents extends the merge-order contract to
// events a callback schedules at the current instant: an After(0) from
// the first plain event still fires before the keyed events already
// queued at that instant, as (at, seq) orders it.
func TestAtKeyedAfterCallbackEvents(t *testing.T) {
	s := New(1)
	var got []int
	const at = 100 * Nanosecond
	s.AtKeyed(at, KeyedBase|1, "k1", func() { got = append(got, 101) })
	s.At(at, "n0", func() {
		got = append(got, 0)
		s.After(0, "n1", func() { got = append(got, 1) })
	})
	s.Run()
	if want := []int{0, 1, 101}; !slices.Equal(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

// TestAtKeyedAcrossTicks verifies keyed events still honour the primary
// time ordering: a keyed event at an earlier instant fires before a plain
// event at a later one.
func TestAtKeyedAcrossTicks(t *testing.T) {
	s := New(1)
	var got []int
	s.At(2*Nanosecond, "late", func() { got = append(got, 2) })
	s.AtKeyed(Nanosecond, KeyedBase, "early", func() { got = append(got, 1) })
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fire order %v, want [1 2]", got)
	}
}

// TestAtKeyedRejectsLowKey pins the KeyedBase floor: keys that could
// collide with the internal sequence counter are refused outright.
func TestAtKeyedRejectsLowKey(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("AtKeyed accepted a key below KeyedBase")
		}
	}()
	s.AtKeyed(Nanosecond, 42, "bad", func() {})
}

// TestRunBefore verifies the exclusive bound: events strictly before the
// bound fire, events at the bound stay queued, and the clock is left at
// the last fired instant rather than the bound.
func TestRunBefore(t *testing.T) {
	s := New(1)
	var got []int
	s.At(1*Nanosecond, "a", func() { got = append(got, 1) })
	s.At(2*Nanosecond, "b", func() { got = append(got, 2) })
	s.At(3*Nanosecond, "c", func() { got = append(got, 3) })

	if n := s.RunBefore(3 * Nanosecond); n != 2 {
		t.Fatalf("RunBefore fired %d events, want 2", n)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if s.Now() != 2*Nanosecond {
		t.Fatalf("clock at %v after RunBefore, want 2ns", s.Now())
	}
	if at := s.NextAt(); at != 3*Nanosecond {
		t.Fatalf("next event at %v, want 3ns", at)
	}
	s.Run()
	if len(got) != 3 {
		t.Fatalf("remaining event did not fire: %v", got)
	}
}

// TestAdvanceTo verifies the clock moves forward without firing and that
// advancing past a pending event panics.
func TestAdvanceTo(t *testing.T) {
	s := New(1)
	fired := false
	s.At(10*Nanosecond, "e", func() { fired = true })
	s.AdvanceTo(5 * Nanosecond)
	if s.Now() != 5*Nanosecond || fired {
		t.Fatalf("AdvanceTo(5ns): now=%v fired=%v", s.Now(), fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo past a pending event did not panic")
		}
	}()
	s.AdvanceTo(20 * Nanosecond)
}
