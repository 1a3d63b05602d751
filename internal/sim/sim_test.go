package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1ns"},
		{1500 * Picosecond, "1.5ns"},
		{Microsecond, "1us"},
		{2500 * Nanosecond, "2.5us"},
		{Millisecond, "1ms"},
		{15 * Millisecond, "15ms"},
		{Second, "1s"},
		{-Nanosecond, "-1ns"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := (2 * Microsecond).Nanoseconds(); got != 2000 {
		t.Errorf("Nanoseconds = %v, want 2000", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %v, want 0.5", got)
	}
}

func TestCycles(t *testing.T) {
	// 10 cycles at 2 GHz = 5 ns.
	if got := Cycles(10, 2.0); got != 5*Nanosecond {
		t.Errorf("Cycles(10, 2GHz) = %v, want 5ns", got)
	}
	// 3 cycles at 3 GHz = 1 ns.
	if got := Cycles(3, 3.0); got != Nanosecond {
		t.Errorf("Cycles(3, 3GHz) = %v, want 1ns", got)
	}
	// 1 cycle at 3 GHz rounds to 333 ps.
	if got := Cycles(1, 3.0); got != 333*Picosecond {
		t.Errorf("Cycles(1, 3GHz) = %v, want 333ps", got)
	}
}

func TestPerByte(t *testing.T) {
	// 128 bytes at 12.8 GB/s = 10 ns.
	if got := PerByte(128, 12.8); got != 10*Nanosecond {
		t.Errorf("PerByte(128, 12.8) = %v, want 10ns", got)
	}
	// Rounds up: 1 byte at 3 B/ns = 334 ps (333.33 rounded up).
	if got := PerByte(1, 3.0); got != 334*Picosecond {
		t.Errorf("PerByte(1, 3) = %v, want 334ps", got)
	}
	if got := PerByte(0, 1.0); got != 0 {
		t.Errorf("PerByte(0, 1) = %v, want 0", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*Nanosecond, "c", func() { order = append(order, 3) })
	s.At(10*Nanosecond, "a", func() { order = append(order, 1) })
	s.At(20*Nanosecond, "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if s.Now() != 30*Nanosecond {
		t.Errorf("final time %v, want 30ns", s.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Nanosecond, "tie", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(Nanosecond, "x", func() { fired = true })
	if !e.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Pending() {
		t.Fatal("event still pending after cancel")
	}
	if s.Cancel(e) {
		t.Fatal("double cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestCancelInterleaved(t *testing.T) {
	// Cancel an event from within another event at the same timestamp.
	s := New(1)
	fired := 0
	var victim *Event
	s.At(Nanosecond, "killer", func() { s.Cancel(victim) })
	victim = s.At(Nanosecond, "victim", func() { fired++ })
	s.Run()
	if fired != 0 {
		t.Fatal("victim fired despite same-instant cancel by earlier event")
	}
}

func TestEventReentrantScheduling(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tick func()
	n := 0
	tick = func() {
		ticks = append(ticks, s.Now())
		n++
		if n < 5 {
			s.After(10*Nanosecond, "tick", tick)
		}
	}
	s.After(0, "tick", tick)
	s.Run()
	want := []Time{0, 10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond, 40 * Nanosecond}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(ticks), len(want))
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d * Nanosecond
		s.At(d, "e", func() { fired = append(fired, d) })
	}
	n := s.RunUntil(25 * Nanosecond)
	if n != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", n)
	}
	if s.Now() != 25*Nanosecond {
		t.Fatalf("clock at %v after RunUntil, want 25ns", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("total fired %d, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*Nanosecond, "e", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop at 3", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

// TestStopMidInstant: Stop from the first of three same-instant events
// leaves the other two queued and unfired.
func TestStopMidInstant(t *testing.T) {
	s := New(1)
	count := 0
	for i := 0; i < 3; i++ {
		s.At(5*Nanosecond, "e", func() {
			count++
			if count == 1 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 1 {
		t.Fatalf("fired %d events after Stop at 1", count)
	}
	if s.Pending() != 2 || s.NextAt() != 5*Nanosecond {
		t.Fatalf("Pending = %d, NextAt = %v after Stop; want 2 at 5ns", s.Pending(), s.NextAt())
	}
}

// TestProgressGuard: an event that reschedules itself at the current
// instant never lets the clock advance, so the run panics once
// progressLimit events have come due at one instant, naming the instant
// and the event. As many events spread over distinct instants do not
// trip it.
func TestProgressGuard(t *testing.T) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < progressLimit {
			s.After(Picosecond, "tick", tick)
		}
	}
	s.After(0, "tick", tick)
	s.Run()
	at := s.Now() + 5*Nanosecond
	var spin func()
	spin = func() { s.After(0, "spin", spin) }
	s.At(at, "first", func() {})
	s.At(at, "spin", spin)
	before := s.Fired()
	defer func() {
		want := fmt.Sprintf(`sim: %d events at %v without the clock advancing; the last was "spin"`, progressLimit, at)
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
		if got := s.Fired() - before; got != progressLimit-1 {
			t.Fatalf("fired %d events at %v before the guard tripped, want %d", got, at, progressLimit-1)
		}
	}()
	s.Run()
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(10*Nanosecond, "e", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5*Nanosecond, "late", func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-Nanosecond, "bad", func() {})
}

func TestNextAt(t *testing.T) {
	s := New(1)
	if s.NextAt() != Never {
		t.Fatal("NextAt on empty queue != Never")
	}
	s.At(7*Nanosecond, "e", func() {})
	if s.NextAt() != 7*Nanosecond {
		t.Fatalf("NextAt = %v, want 7ns", s.NextAt())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s := New(seed)
		var out []uint64
		var step func()
		n := 0
		step = func() {
			out = append(out, s.Rand().Uint64())
			n++
			if n < 100 {
				s.After(Time(1+s.Rand().Intn(100))*Nanosecond, "step", step)
			}
		}
		s.After(0, "step", step)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniform(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
		buckets[int(f*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-n/10) > n/100 {
			t.Errorf("bucket %d has %d samples, want ~%d", i, b, n/10)
		}
	}
}

func TestRNGExp(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Errorf("Exp(3) mean %v, want ~3", mean)
	}
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("Perm(50) is not a permutation: %v", p)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("split streams look identical")
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16, seed uint64) bool {
		s := New(seed)
		var fired []Time
		for _, d := range delays {
			s.At(Time(d)*Nanosecond, "e", func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn stays in range.
func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
