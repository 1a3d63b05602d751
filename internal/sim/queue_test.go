package sim

import (
	"fmt"
	"sort"
	"testing"
)

// These tests pin the hybrid queue (near-future bucket ring + overflow
// 4-ary heap) against the behavior of a naive sorted-list event queue:
// the ring/heap split, lazy migration, and lazy cancellation must be
// invisible — only the (at, seq) total order may determine firing.

// TestRingHorizonBoundary pins the routing rule at the edge of the ring:
// an event exactly at now+ringHorizon is the first one that overflows to
// the heap, one bucket earlier still rides the ring — and the heap
// resident migrates into the ring once the clock advances.
func TestRingHorizonBoundary(t *testing.T) {
	s := New(1)
	var order []string
	atHorizon := s.At(ringHorizon, "at-horizon", func() { order = append(order, "at-horizon") })
	inside := s.At(ringHorizon-bucketSpan, "inside", func() { order = append(order, "inside") })
	if atHorizon.index == ringIndex {
		t.Fatal("event exactly at the horizon went to the ring, want heap")
	}
	if inside.index != ringIndex {
		t.Fatal("event one bucket inside the horizon went to the heap, want ring")
	}
	if !s.Step() {
		t.Fatal("Step found no event")
	}
	if len(order) != 1 || order[0] != "inside" {
		t.Fatalf("first fired %v, want [inside]", order)
	}
	// Advancing to the inside event slid the horizon past the heap
	// resident: it must have migrated into the ring.
	if atHorizon.index != ringIndex {
		t.Fatal("heap event did not migrate into the ring after the clock advanced")
	}
	s.Run()
	if len(order) != 2 || order[1] != "at-horizon" {
		t.Fatalf("fired %v, want [inside at-horizon]", order)
	}
}

// TestCancelRingResident cancels an event that lives in the bucket ring:
// it must not fire, its struct must be recycled when the cursor passes it,
// and the accounting must match the heap-resident cancel path.
func TestCancelRingResident(t *testing.T) {
	s := New(1)
	var fired int
	dead := s.After(2*Nanosecond, "dead", func() { t.Fatal("cancelled ring event fired") })
	live := s.After(5*Nanosecond, "live", func() { fired++ })
	if dead.index != ringIndex {
		t.Fatal("2ns event not ring-resident")
	}
	if !s.Cancel(dead) {
		t.Fatal("Cancel returned false for a ring-resident event")
	}
	if dead.Pending() {
		t.Fatal("cancelled event still Pending")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// The corpse sits at the ring front; NextAt must skip it.
	if s.NextAt() != 5*Nanosecond {
		t.Fatalf("NextAt = %v, want 5ns", s.NextAt())
	}
	s.Run()
	if fired != 1 || s.Fired() != 1 || s.Cancelled() != 1 {
		t.Fatalf("fired=%d Fired=%d Cancelled=%d, want 1/1/1", fired, s.Fired(), s.Cancelled())
	}
	// The corpse was recycled: the next schedule reuses a consumed struct.
	if e := s.After(Nanosecond, "reuse", func() {}); e != live && e != dead {
		t.Fatal("neither consumed event struct was recycled")
	}
}

// TestRunUntilMidBucket stops the clock between two events that share a
// ring bucket, then schedules more events into that same, half-consumed
// bucket — the mid-consumption insert path of the front bucket's
// mini-heap.
func TestRunUntilMidBucket(t *testing.T) {
	if 3*Nanosecond >= bucketSpan {
		t.Fatal("test assumes 1ns and 3ns share bucket 0")
	}
	s := New(1)
	var order []Time
	note := func() { order = append(order, s.Now()) }
	s.At(Nanosecond, "a", note)
	s.At(3*Nanosecond, "b", note)
	if n := s.RunUntil(2 * Nanosecond); n != 1 {
		t.Fatalf("RunUntil fired %d events, want 1", n)
	}
	if s.Now() != 2*Nanosecond {
		t.Fatalf("clock at %v, want 2ns", s.Now())
	}
	// Insert into the live front bucket, earlier than its remaining event.
	s.At(2200*Picosecond, "c", note)
	s.At(2500*Picosecond, "d", note)
	s.Run()
	want := []Time{Nanosecond, 2200 * Picosecond, 2500 * Picosecond, 3 * Nanosecond}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired at %v, want %v", order, want)
		}
	}
}

// TestEqualTimestampFIFOAcrossBoundary pins FIFO tie-breaking among
// equal-timestamp events that enter through different routes: two
// scheduled far ahead (heap, then migrated), the rest scheduled directly
// into the ring after the clock moved. Scheduling order must win.
func TestEqualTimestampFIFOAcrossBoundary(t *testing.T) {
	s := New(1)
	const T = 2 * ringHorizon
	var order []int
	s.At(T, "first", func() { order = append(order, 1) })  // heap
	s.At(T, "second", func() { order = append(order, 2) }) // heap
	// Drag the clock close enough that T is inside the horizon; from the
	// callback, schedule another equal-timestamp event (post-migration,
	// ring path).
	s.At(T-Nanosecond, "mover", func() {
		s.At(T, "third", func() { order = append(order, 3) })
	})
	if n := s.RunUntil(T - Nanosecond); n != 1 {
		t.Fatalf("RunUntil fired %d events, want 1", n)
	}
	s.At(T, "fourth", func() { order = append(order, 4) }) // ring path
	s.Run()
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("equal-timestamp events fired out of scheduling order: %v", order)
		}
	}
}

// queueChecker drives one randomized scenario and checks the hybrid queue
// against the reference semantics of a naive sorted list: every firing
// must be the live event with the smallest (at, seq), verified online
// against a shadow live-set that records every schedule and cancel.
type queueChecker struct {
	t   *testing.T
	s   *Sim
	r   *RNG
	sc  int
	ids uint64

	// live mirrors the queue's live events in id order. Ids are assigned
	// in schedule order, so an id doubles as the event's sequence. An
	// entry leaves before its *Event can be recycled (on fire or on
	// cancel). A slice, not a map, so a fuzz input takes the same path
	// every run.
	live    []shadowEvent
	lastAt  Time
	lastID  uint64
	firedN  int
	spawned int
}

type shadowEvent struct {
	id uint64
	at Time
	e  *Event
}

// forget drops id from the shadow live-set.
func (c *queueChecker) forget(id uint64) {
	for i := range c.live {
		if c.live[i].id == id {
			c.live = append(c.live[:i], c.live[i+1:]...)
			return
		}
	}
}

// delayFor biases delays toward the structure's seams: same-instant,
// sub-bucket, inside the ring, at and around the horizon, far future.
func (c *queueChecker) delayFor() Time {
	switch c.r.Intn(12) {
	case 0:
		return 0
	case 1, 2:
		return Time(c.r.Intn(int(bucketSpan)))
	case 3, 4, 5:
		return Time(c.r.Intn(int(ringHorizon)))
	case 6:
		return ringHorizon - 2 + Time(c.r.Intn(4))
	case 7:
		return ringHorizon * Time(1+c.r.Intn(3))
	case 8:
		return bucketSpan * Time(c.r.Intn(2*ringSlots))
	default:
		return Time(c.r.Intn(int(Millisecond)))
	}
}

// newQueueChecker returns a checker over a fresh Sim whose callbacks draw
// their decisions from an RNG seeded with seed.
func newQueueChecker(t *testing.T, sc int, seed uint64) *queueChecker {
	return &queueChecker{
		t:  t,
		s:  New(uint64(sc) + 1),
		r:  NewRNG(seed),
		sc: sc,
	}
}

// schedule registers one event d from now on both the queue and the
// shadow set, through After or At. The callback re-checks the reference
// invariant and may spawn children and cancel live events.
func (c *queueChecker) schedule(d Time, after bool) {
	id, at := c.ids, c.s.Now()+d
	c.ids++
	fn := func() { c.fired(id, at) }
	var e *Event
	if after {
		e = c.s.After(d, "ev", fn)
	} else {
		e = c.s.At(at, "ev", fn)
	}
	c.live = append(c.live, shadowEvent{id, at, e})
	if !e.Pending() {
		c.t.Fatalf("scenario %d: scheduled event not Pending", c.sc)
	}
}

// cancelLive cancels the live event at position pick (modulo the live
// count) in firing order, on both the queue and the shadow set. Position
// 0 is the event due to fire next.
func (c *queueChecker) cancelLive(pick int) {
	if len(c.live) == 0 {
		return
	}
	order := append([]shadowEvent(nil), c.live...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	v := order[pick%len(order)]
	if !c.s.Cancel(v.e) {
		c.t.Fatalf("scenario %d: Cancel returned false for live event %d", c.sc, v.id)
	}
	if v.e.Pending() {
		c.t.Fatalf("scenario %d: cancelled event %d still Pending", c.sc, v.id)
	}
	c.forget(v.id)
}

// fired is the specification check: when id fires, no other live event may
// precede it in (at, seq), the clock must sit exactly at its instant, and
// firing must be monotone in (at, seq).
func (c *queueChecker) fired(id uint64, at Time) {
	if c.s.Now() != at {
		c.t.Fatalf("scenario %d: event %d fired at %v, scheduled for %v", c.sc, id, c.s.Now(), at)
	}
	if at < c.lastAt || (at == c.lastAt && id < c.lastID && c.firedN > 0) {
		// id < lastID at equal instants is only legal if id was scheduled
		// after lastID fired — impossible, since ids grow monotonically and
		// lastID already fired. So this is a FIFO violation.
		c.t.Fatalf("scenario %d: event %d (at %v) fired after event %d (at %v)",
			c.sc, id, at, c.lastID, c.lastAt)
	}
	c.lastAt, c.lastID = at, id
	c.firedN++
	c.forget(id)
	for _, o := range c.live {
		if o.at < at || (o.at == at && o.id < id) {
			c.t.Fatalf("scenario %d: event %d (at %v) fired while live event %d (at %v) precedes it",
				c.sc, id, at, o.id, o.at)
		}
	}
	// Reentrant scheduling: a third of firings spawn one or two children.
	if c.spawned < 300 && c.r.Intn(3) == 0 {
		n := 1 + c.r.Intn(2)
		for i := 0; i < n; i++ {
			c.spawned++
			c.schedule(c.delayFor(), true)
		}
	}
	// Reentrant cancellation: a quarter of firings cancel a live event,
	// half of those the one due next, often at this same instant.
	if len(c.live) > 0 && c.r.Intn(4) == 0 {
		pick := 0
		if c.r.Intn(2) == 0 {
			pick = c.r.Intn(len(c.live))
		}
		c.cancelLive(pick)
	}
}

// runUntil advances the clock to target and checks that nothing due by
// then was left unfired.
func (c *queueChecker) runUntil(target Time) {
	c.s.RunUntil(target)
	if c.s.Now() != target {
		c.t.Fatalf("scenario %d: RunUntil(%v) left clock at %v", c.sc, target, c.s.Now())
	}
	if next := c.s.NextAt(); next <= target {
		c.t.Fatalf("scenario %d: RunUntil(%v) left an event due at %v unfired", c.sc, target, next)
	}
}

// drain runs the queue dry and checks that every live event fired, once.
func (c *queueChecker) drain() {
	c.s.Run()
	c.checkAgainstShadow()
	if len(c.live) != 0 {
		c.t.Fatalf("scenario %d: %d events never fired", c.sc, len(c.live))
	}
	if got := int(c.s.Fired()); got != c.firedN {
		c.t.Fatalf("scenario %d: Fired = %d, callbacks ran %d times", c.sc, got, c.firedN)
	}
}

// checkAgainstShadow compares NextAt and Pending with a scan of the
// shadow live-set.
func (c *queueChecker) checkAgainstShadow() {
	wantNext := Never
	for _, o := range c.live {
		if o.at < wantNext {
			wantNext = o.at
		}
	}
	if got := c.s.NextAt(); got != wantNext {
		c.t.Fatalf("scenario %d: NextAt = %v, shadow min = %v", c.sc, got, wantNext)
	}
	if got := c.s.Pending(); got != len(c.live) {
		c.t.Fatalf("scenario %d: Pending = %d, shadow live = %d", c.sc, got, len(c.live))
	}
}

// TestQueueMatchesReferenceModel cross-checks the hybrid ring/heap queue
// against naive sorted-list semantics under randomized schedule, cancel,
// and RunUntil interleavings — including reentrant scheduling from
// callbacks — across 10k scenarios.
func TestQueueMatchesReferenceModel(t *testing.T) {
	scenarios := 10000
	if testing.Short() {
		scenarios = 1000
	}
	for sc := 0; sc < scenarios; sc++ {
		c := newQueueChecker(t, sc, uint64(sc)*0x9E3779B9+7)
		ops := 4 + c.r.Intn(28)
		for op := 0; op < ops; op++ {
			switch c.r.Intn(8) {
			case 0, 1, 2, 3: // schedule an external event
				c.schedule(c.delayFor(), false)
			case 4: // cancel a deterministically chosen live event
				if len(c.live) > 0 {
					c.cancelLive(c.r.Intn(len(c.live)))
				}
			case 5, 6: // advance the clock through a mixed horizon
				c.runUntil(c.s.Now() + c.delayFor())
			case 7: // step a few events
				for i := 0; i < 3; i++ {
					c.s.Step()
				}
			}
			c.checkAgainstShadow()
		}
		c.drain()
	}
}

// seamDelay maps a byte to a delay at one of the queue's seams: zero,
// inside one bucket, inside the ring, the ring horizon ±2, or far beyond
// it in the overflow heap.
func seamDelay(b byte) Time {
	v := Time(b / 5) // 0..51
	switch b % 5 {
	case 0:
		return 0
	case 1:
		return v * (bucketSpan / 52)
	case 2:
		return v * (ringHorizon / 52)
	case 3:
		return ringHorizon - 2 + v%5
	default:
		return ringHorizon * (2 + v)
	}
}

// FuzzQueue decodes bytes, two per call, into At, After, Cancel, Step,
// RunUntil and RunBefore calls with delays at the queue's seams, and
// checks every firing against the sorted-list reference. Callbacks spawn
// and cancel events too, drawing from an RNG seeded with seed.
func FuzzQueue(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 0, 0, 1, 1, 6, 0, 2, 1, 3, 0, 8, 3, 0, 2, 0, 4, 7, 5, 9})
	f.Add(uint64(2), []byte{0, 3, 0, 8, 1, 13, 1, 18, 5, 3, 4, 8, 5, 4, 3, 0, 3, 0})
	f.Add(uint64(3), []byte{1, 0, 1, 0, 1, 0, 2, 0, 2, 1, 3, 0, 4, 0, 0, 255, 4, 254})
	f.Add(uint64(4), []byte{0, 4, 1, 9, 0, 2, 2, 2, 5, 254, 4, 12, 3, 0, 5, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		c := newQueueChecker(t, 0, seed)
		for ; len(ops) >= 2; ops = ops[2:] {
			d := seamDelay(ops[1])
			switch ops[0] % 6 {
			case 0:
				c.schedule(d, false)
			case 1:
				c.schedule(d, true)
			case 2:
				c.cancelLive(int(ops[1]))
			case 3:
				if want := len(c.live) > 0; c.s.Step() != want {
					t.Fatalf("Step returned %v with %d live events", !want, len(c.live))
				}
			case 4:
				c.runUntil(c.s.Now() + d)
			case 5:
				bound := c.s.Now() + d
				c.s.RunBefore(bound)
				if next := c.s.NextAt(); next < bound {
					t.Fatalf("RunBefore(%v) left an event due at %v unfired", bound, next)
				}
			}
			c.checkAgainstShadow()
		}
		c.drain()
	})
}

// TestQueueCompactionUnderRingCancels forces compaction while corpses sit
// in both halves of the queue, then checks nothing live was lost.
func TestQueueCompactionUnderRingCancels(t *testing.T) {
	s := New(1)
	var fired int
	var keep []*Event
	var kill []*Event
	for i := 0; i < 400; i++ {
		near := s.At(Time(i)*Nanosecond, "near", func() { fired++ })
		far := s.At(ringHorizon+Time(i)*Microsecond, "far", func() { fired++ })
		if i%2 == 0 {
			kill = append(kill, near, far)
		} else {
			keep = append(keep, near, far)
		}
	}
	for _, e := range kill {
		if !s.Cancel(e) {
			t.Fatal("cancel of queued event failed")
		}
	}
	if s.Pending() != len(keep) {
		t.Fatalf("Pending = %d, want %d", s.Pending(), len(keep))
	}
	for _, e := range keep {
		if !e.Pending() {
			t.Fatal("compaction dropped a live event")
		}
	}
	s.Run()
	if fired != len(keep) {
		t.Fatalf("fired %d, want %d", fired, len(keep))
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", s.Pending())
	}
}

// TestCompactionClearsEmptiedBuckets: a compaction visits only the
// buckets the occupancy bitmap marks, clears the bit of each bucket it
// empties, keeps every other bucket's, and loses no live event.
func TestCompactionClearsEmptiedBuckets(t *testing.T) {
	s := New(1)
	var fired int
	var kill []*Event
	for i := 0; i < 300; i++ {
		e := s.At(Time(i)*bucketSpan, "one-per-bucket", func() { fired++ })
		if i%3 != 0 {
			kill = append(kill, e)
		}
	}
	for _, e := range kill {
		s.Cancel(e)
	}
	if s.ringN >= 300 {
		t.Fatalf("ringN = %d after %d cancels: no compaction ran", s.ringN, len(kill))
	}
	for si := range s.ring {
		set := s.occ[si>>6]>>(uint(si)&63)&1 == 1
		if set != (len(s.ring[si]) > 0) {
			t.Fatalf("slot %d: occupancy bit %v with %d events", si, set, len(s.ring[si]))
		}
	}
	s.Run()
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
}

// sanity check for the test file itself: the constants the edge tests
// assume.
func TestQueueConstants(t *testing.T) {
	if ringHorizon != bucketSpan*ringSlots {
		t.Fatalf("ringHorizon = %v, want %v", ringHorizon, bucketSpan*ringSlots)
	}
	if got := fmt.Sprintf("%v", ringHorizon); got == "" {
		t.Fatal("unreachable")
	}
}
