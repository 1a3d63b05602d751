package sim

import "fmt"

// Event is a scheduled callback. Events are created with Sim.At or Sim.After
// and may be cancelled before they fire. The zero Event is not valid.
//
// Event structs are recycled through a per-Sim free list once they fire or
// are cancelled, so a *Event must not be passed to Cancel after its callback
// has run: the struct may since have been reissued for a different event.
// Holders that keep a timer pointer must clear it inside the callback (as
// the kernel quantum/slice timers and the NIC TryAgain timer do).
type Event struct {
	at    Time
	seq   uint64
	index int // heap index; ringIndex in the ring; -1 once popped
	fn    func()
	name  string
}

// At reports the instant the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Name reports the diagnostic label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Pending reports whether the event is still queued and will fire.
func (e *Event) Pending() bool { return e.index >= 0 && e.fn != nil }

// Sim is a discrete-event simulator: a virtual clock plus an ordered queue
// of future events. It is single-threaded; models call back into the
// simulator from event callbacks to schedule further work. Distinct Sim
// instances are fully independent and may run on separate goroutines.
//
// The queue is a hybrid: a bucket ring for events within ringHorizon of
// now, an inline 4-ary min-heap for the rest (see queue.go). Both order
// events by (at, seq) so simultaneous events fire in scheduling order,
// which keeps runs deterministic.
type Sim struct {
	now Time
	seq uint64

	heap        []*Event             // overflow min-heap: events at or beyond the ring horizon
	ring        *[ringSlots][]*Event // near-future buckets, bucketSpan wide each
	occ         [occWords]uint64     // bitmap of non-empty buckets, for O(1) cursor jumps
	ringN       int                  // events resident in the ring, dead included
	frontB      int64                // absolute bucket number under the front cursor, -1 when the ring is empty
	frontHeaped bool                 // front bucket has been organized as a mini-heap

	free      []*Event // recycled Event structs, reused by At/After
	rng       *RNG
	live      int // queued events that have not been lazily cancelled
	fired     uint64
	cancelled uint64
	recycled  uint64 // allocations avoided via the free list
	atNow     int    // events fired since the clock last moved (see progressLimit)
	stopped   bool
}

// New returns a simulator with the clock at zero and an RNG derived from
// seed.
func New(seed uint64) *Sim {
	return &Sim{rng: NewRNG(seed), ring: new([ringSlots][]*Event), frontB: -1}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's root RNG.
func (s *Sim) Rand() *RNG { return s.rng }

// Fired reports how many events have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Cancelled reports how many events were cancelled before firing.
func (s *Sim) Cancelled() uint64 { return s.cancelled }

// Recycled reports how many Event allocations the free list avoided.
func (s *Sim) Recycled() uint64 { return s.recycled }

// Pending reports how many live (non-cancelled) events are queued.
func (s *Sim) Pending() int { return s.live }

// alloc returns an Event from the free list, or a fresh one.
//
//lhlint:hotpath
func (s *Sim) alloc(at Time, seq uint64, name string, fn func()) *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.recycled++
		e.at, e.seq, e.name, e.fn = at, seq, name, fn
		return e
	}
	return &Event{at: at, seq: seq, name: name, fn: fn}
}

// recycle returns a popped (index == -1) dead event to the free list.
//
//lhlint:hotpath
func (s *Sim) recycle(e *Event) {
	e.fn = nil
	e.name = ""
	s.free = append(s.free, e)
}

// At schedules fn to run at instant t, which must not be in the past.
// The name is a diagnostic label reported by String and tracing.
//
//lhlint:hotpath
func (s *Sim) At(t Time, name string, fn func()) *Event {
	if t < s.now {
		panicPastSchedule(name, t, s.now)
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := s.alloc(t, s.seq, name, fn)
	s.seq++
	s.live++
	s.push(e)
	return e
}

// KeyedBase is the floor of the explicit-key space used by AtKeyed. Keys
// passed to AtKeyed must have this bit set, which places every keyed event
// after every At/After event scheduled for the same instant: the internal
// sequence counter starts at zero and cannot plausibly reach 2^63.
const KeyedBase uint64 = 1 << 63

// AtKeyed schedules fn at instant t with an explicit ordering key instead
// of the next internal sequence number. The queue's (at, seq) total order
// is unchanged — the key simply occupies the seq slot — so two keyed events
// at the same instant fire in ascending key order, and keyed events always
// fire after same-instant At/After events (keys carry the KeyedBase bit).
//
// This exists for cross-shard frame delivery: boundary links tag each
// delivery with a key derived from (link direction, per-direction frame
// counter), giving serial and sharded runs the same total order at merge
// points regardless of which Sim's sequence counter the delivery would
// otherwise have drawn from. Callers must guarantee keys are unique per
// instant; ties have no defined order.
//
//lhlint:hotpath
func (s *Sim) AtKeyed(t Time, key uint64, name string, fn func()) *Event {
	if t < s.now {
		panicPastSchedule(name, t, s.now)
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if key < KeyedBase {
		panic("sim: AtKeyed key below KeyedBase")
	}
	e := s.alloc(t, key, name, fn)
	s.live++
	s.push(e)
	return e
}

// After schedules fn to run d from now. Negative d panics.
//
//lhlint:hotpath
func (s *Sim) After(d Time, name string, fn func()) *Event {
	if d < 0 {
		panicNegativeDelay(name, d)
	}
	return s.At(s.now+d, name, fn)
}

// panicPastSchedule, panicNegativeDelay and panicNoProgress keep the fmt
// boxing of the scheduling and firing panics off the hot path; they never
// return.
func panicPastSchedule(name string, t, now Time) {
	panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, now))
}

func panicNegativeDelay(name string, d Time) {
	panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
}

func panicNoProgress(name string, now Time) {
	panic(fmt.Sprintf("sim: %d events at %v without the clock advancing; the last was %q",
		progressLimit, now, name))
}

// Cancel marks a pending event dead. Cancellation is lazy: the event stays
// in the queue and is discarded (and its struct recycled) when it reaches
// the front, so no mid-queue surgery happens on deschedule-heavy paths.
// Cancelling an event that already fired or was already cancelled is a
// no-op and returns false.
//
//lhlint:hotpath
func (s *Sim) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.fn == nil {
		return false
	}
	e.fn = nil
	s.live--
	s.cancelled++
	s.maybeCompact()
	return true
}

// progressLimit is how many events may fire at one instant before the
// simulator gives up on the run. A model that keeps rescheduling at the
// current instant (a zero-gap arrival process, say) never advances the
// clock, and would otherwise spin forever. The longest same-instant run
// in the experiment suite is 512 events.
const progressLimit = 1 << 20

// fire pops the earliest pending event if it is due at or before bound,
// advances the clock to its instant and runs it. It returns false when
// nothing is due by bound or the simulation was stopped. Same-instant
// events need nothing more: one a callback schedules with At or After
// carries a higher seq than every queued At/After event and a lower one
// than every keyed event, so it fires between them, in (at, seq) order.
//
//lhlint:hotpath
func (s *Sim) fire(bound Time) bool {
	if s.stopped {
		return false
	}
	e := s.peek()
	if e == nil || e.at > bound {
		return false
	}
	if e.index == ringIndex {
		s.ringPopFront(e)
	} else {
		s.heapPop()
	}
	if e.at != s.now {
		s.advance(e.at)
	}
	if s.atNow++; s.atNow >= progressLimit {
		panicNoProgress(e.name, s.now)
	}
	fn := e.fn
	s.live--
	s.fired++
	s.recycle(e)
	fn()
	return true
}

// Step fires the earliest pending event, advancing the clock to its instant.
// It returns false when the queue is empty or the simulation was stopped.
func (s *Sim) Step() bool { return s.fire(Never) }

// Run fires events until the queue drains or Stop is called.
func (s *Sim) Run() {
	for s.fire(Never) {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t
// (even if the queue still holds later events). It returns the number of
// events fired.
func (s *Sim) RunUntil(t Time) uint64 {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.now))
	}
	start := s.fired
	for s.fire(t) {
	}
	if !s.stopped && s.now < t {
		s.advance(t)
	}
	return s.fired - start
}

// RunBefore fires events with timestamps strictly before bound, leaving the
// clock at the last fired instant (it does not advance to bound). It returns
// the number of events fired. This is the window primitive of the sharded
// executor: a shard runs [windowStart, windowEnd) with RunBefore(windowEnd),
// and only the final window of a RunUntil advances the clock (AdvanceTo).
func (s *Sim) RunBefore(bound Time) uint64 {
	if bound == 0 {
		return 0
	}
	start := s.fired
	for s.fire(bound - 1) {
	}
	return s.fired - start
}

// AdvanceTo moves the clock to t without firing anything. It panics if an
// event is still pending before t — advancing past live work would violate
// the causal order — or if t is in the past. The sharded executor uses it
// to mirror RunUntil's final clock advance once every shard's events at or
// before the target have fired.
func (s *Sim) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, s.now))
	}
	if at := s.NextAt(); at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) past pending event at %v", t, at))
	}
	if t > s.now {
		s.advance(t)
	}
}

// Stop halts Run/RunUntil after the current event completes. Further Step
// calls return false. The queue is left intact for inspection.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// NextAt returns the instant of the earliest pending event, or Never when
// the queue is empty.
func (s *Sim) NextAt() Time {
	e := s.peek()
	if e == nil {
		return Never
	}
	return e.at
}

// String summarizes the simulator state for diagnostics.
func (s *Sim) String() string {
	return fmt.Sprintf("sim{now=%v pending=%d fired=%d}", s.now, s.live, s.fired)
}
