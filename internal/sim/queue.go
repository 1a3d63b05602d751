package sim

import "math/bits"

// This file implements the simulator's event queue: a near-future bucket
// ring fronting a 4-ary min-heap, replacing the earlier container/heap
// queue. The split exploits the dominant scheduling pattern in this
// repository — After(d) with tiny d (NIC serialization ticks, cache-line
// protocol hops, decode-pipeline stages) — while keeping far-future events
// (TryAgain timers, coherence watchdogs, rate-limited generators) out of
// the hot path.
//
//   - Events within ringHorizon of now land in per-bucket FIFO lists and
//     never touch the overflow heap: scheduling is an append. Buckets are
//     bucketSpan wide; the bucket under the front cursor is organized as a
//     small 4-ary min-heap (heapified lazily when the cursor arrives) so
//     bursts of same-bucket events cost O(log b) each, not O(b).
//   - Events at or beyond the horizon go to an inline 4-ary min-heap with
//     hand-written sift loops — no interface boxing, no container/heap
//     calls. As the clock advances the horizon slides forward and heap
//     events inside it migrate into the ring (advance).
//
// Determinism invariant: the total (at, seq) order of the old single heap
// is preserved exactly. Ring events always precede heap events — after
// every clock advance the overflow heap's minimum lies at or beyond the
// horizon while every ring event lies inside it — and the front bucket
// always pops its unique (at, seq) minimum. Lazy cancellation, compaction,
// and the Event free list carry over unchanged.

const (
	// bucketBits sets the bucket width: 2^12 ps ≈ 4.1 ns, about one
	// cache-line protocol hop.
	bucketBits = 12
	bucketSpan = Time(1) << bucketBits
	// ringSlots buckets cover a horizon of ringSlots*bucketSpan ≈ 4.2 us
	// ahead of now. Wide enough for every per-packet and per-line event;
	// millisecond-scale timers overflow to the heap.
	ringSlots   = 1024
	ringMask    = ringSlots - 1
	ringHorizon = bucketSpan * ringSlots
	occWords    = ringSlots / 64
	// ringIndex marks an Event resident in the bucket ring (the ring needs
	// no positional tracking; the sentinel keeps Pending/Cancel working).
	ringIndex = 1 << 30
)

// eventBefore is the queue's total order: time, then scheduling sequence,
// so simultaneous events fire in scheduling order.
//
//lhlint:hotpath
func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push routes a freshly scheduled (or migrating) event to the ring or the
// overflow heap.
//
//lhlint:hotpath
func (s *Sim) push(e *Event) {
	b := int64(uint64(e.at) >> bucketBits)
	if b-int64(uint64(s.now)>>bucketBits) >= ringSlots {
		s.heapPush(e)
		return
	}
	s.ringPush(e, b)
}

// ringPush inserts an event into absolute bucket b, which must lie within
// the horizon. The front bucket keeps its heap order; other buckets are
// plain appends, heapified lazily when the cursor arrives.
//
//lhlint:hotpath
func (s *Sim) ringPush(e *Event, b int64) {
	e.index = ringIndex
	slot := &s.ring[uint64(b)&ringMask]
	if len(*slot) == 0 {
		s.occ[(uint64(b)&ringMask)>>6] |= 1 << (uint64(b) & 63)
	}
	switch {
	case s.ringN == 0:
		s.frontB, s.frontHeaped = b, false
		*slot = append(*slot, e)
	case b < s.frontB:
		// New earliest bucket. Buckets between now and the old front are
		// empty (the cursor only skips empty slots), so this slot is too.
		// The abandoned front keeps its events; it is re-heapified when
		// the cursor returns.
		s.frontB, s.frontHeaped = b, false
		*slot = append(*slot, e)
	case b == s.frontB && s.frontHeaped:
		bucketHeapPush(slot, e)
	default:
		*slot = append(*slot, e)
	}
	s.ringN++
}

// ringPopFront removes the front bucket's minimum (already located by
// peek: e is (*slot)[0]). The caller recycles or fires it.
//
//lhlint:hotpath
func (s *Sim) ringPopFront(e *Event) {
	slot := &s.ring[uint64(s.frontB)&ringMask]
	ev := *slot
	n := len(ev) - 1
	last := ev[n]
	ev[n] = nil
	*slot = ev[:n]
	if n > 0 {
		bucketSiftDown(ev[:n], last, 0)
	} else {
		s.occ[(uint64(s.frontB)&ringMask)>>6] &^= 1 << (uint64(s.frontB) & 63)
	}
	e.index = -1
	s.ringN--
	if s.ringN == 0 {
		s.frontB, s.frontHeaped = -1, false
	}
}

// nextOccupied returns the first absolute bucket at or after `from` whose
// slot holds events, by scanning the occupancy bitmap a word at a time.
// Only valid while ringN > 0 (some bit is set).
//
//lhlint:hotpath
func (s *Sim) nextOccupied(from int64) int64 {
	slot := uint64(from) & ringMask
	w := int(slot >> 6)
	off := slot & 63
	if word := s.occ[w] >> off; word != 0 {
		return from + int64(bits.TrailingZeros64(word))
	}
	d := int64(64 - off)
	for i := 1; ; i++ {
		word := s.occ[(w+i)&(occWords-1)]
		if word != 0 {
			return from + d + int64(bits.TrailingZeros64(word))
		}
		d += 64
	}
}

// peek returns the earliest live event without removing it, discarding
// lazily-cancelled events it passes over. Ring events always precede heap
// events (see the invariant above), so the two structures never need a
// cross-comparison.
//
//lhlint:hotpath
func (s *Sim) peek() *Event {
	for s.ringN > 0 {
		slot := &s.ring[uint64(s.frontB)&ringMask]
		ev := *slot
		if len(ev) == 0 {
			// Bucket exhausted: jump the cursor to the next occupied
			// bucket via the bitmap (ringN > 0 guarantees one exists; the
			// cursor never moves backward).
			s.frontB = s.nextOccupied(s.frontB + 1)
			s.frontHeaped = false
			continue
		}
		if !s.frontHeaped {
			for i := (len(ev) - 2) >> 2; i >= 0; i-- {
				bucketSiftDown(ev, ev[i], i)
			}
			s.frontHeaped = true
		}
		e := ev[0]
		if e.fn == nil {
			s.ringPopFront(e)
			s.recycle(e)
			continue
		}
		return e
	}
	for len(s.heap) > 0 && s.heap[0].fn == nil {
		s.recycle(s.heapPop())
	}
	if len(s.heap) == 0 {
		return nil
	}
	return s.heap[0]
}

// advance moves the clock to t and migrates heap events that the sliding
// horizon now covers into the ring, restoring the ring-before-heap
// invariant peek relies on. The empty-heap fast path inlines into fire.
//
//lhlint:hotpath
func (s *Sim) advance(t Time) {
	s.now = t
	s.atNow = 0
	if len(s.heap) > 0 {
		s.migrate()
	}
}

// migrate moves heap events inside the horizon of now into the ring.
//
//lhlint:hotpath
func (s *Sim) migrate() {
	horizon := int64(uint64(s.now)>>bucketBits) + ringSlots
	for len(s.heap) > 0 {
		top := s.heap[0]
		b := int64(uint64(top.at) >> bucketBits)
		if b >= horizon {
			break
		}
		s.heapPop()
		if top.fn == nil {
			s.recycle(top)
			continue
		}
		s.ringPush(top, b)
	}
}

// ---- front-bucket mini-heap ----
//
// The bucket under the cursor is a 4-ary min-heap over its slice, with no
// index maintenance (lazy cancellation never removes from the middle).

// bucketHeapPush appends e and sifts it up.
//
//lhlint:hotpath
func bucketHeapPush(slot *[]*Event, e *Event) {
	ev := append(*slot, e)
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(e, ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
	*slot = ev
}

// bucketSiftDown places e at index i of the bucket heap ev.
//
//lhlint:hotpath
func bucketSiftDown(ev []*Event, e *Event, i int) {
	n := len(ev)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventBefore(ev[j], ev[m]) {
				m = j
			}
		}
		if !eventBefore(ev[m], e) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
}

// ---- inline 4-ary min-heap (overflow store) ----
//
// 4-ary halves the tree depth of a binary heap and keeps each node's
// children in one or two cache lines; sift loops are hand-written over
// []*Event so no comparison or move goes through an interface.

// heapPush inserts e, sifting up with a hole instead of pairwise swaps.
//
//lhlint:hotpath
func (s *Sim) heapPush(e *Event) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
	s.heap = h
}

// heapPop removes and returns the minimum.
//
//lhlint:hotpath
func (s *Sim) heapPop() *Event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	top.index = -1
	if n > 0 {
		s.heapSiftDown(last, 0)
	}
	return top
}

// heapSiftDown places e at index i, sifting the smallest child up into the
// hole until the heap order holds.
//
//lhlint:hotpath
func (s *Sim) heapSiftDown(e *Event, i int) {
	h := s.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventBefore(h[j], h[m]) {
				m = j
			}
		}
		if !eventBefore(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = e
	e.index = i
}

// maybeCompact rebuilds both queue halves without dead events once they
// outnumber live ones. Cancels stay amortized O(1): a compaction costing
// O(n) is only triggered after at least n/2 cancellations, and it keeps
// the heap from accumulating far-future corpses that would never reach
// the front.
func (s *Sim) maybeCompact() {
	dead := len(s.heap) + s.ringN - s.live
	if dead <= 64 || dead <= s.live {
		return
	}
	keep := s.heap[:0]
	for _, e := range s.heap {
		if e.fn != nil {
			keep = append(keep, e)
		} else {
			e.index = -1
			s.recycle(e)
		}
	}
	for i := len(keep); i < len(s.heap); i++ {
		s.heap[i] = nil
	}
	s.heap = keep
	for i, e := range s.heap {
		e.index = i
	}
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.heapSiftDown(s.heap[i], i)
	}
	if s.ringN > 0 {
		// Only the buckets the occupancy bitmap marks hold events. Visit
		// them in slot order, so dead events reach the free list in the
		// order a sweep of every slot would put them there.
		remaining := 0
		for w := range s.occ {
			for word := s.occ[w]; word != 0; word &= word - 1 {
				bit := uint(bits.TrailingZeros64(word))
				si := w<<6 | int(bit)
				ev := s.ring[si]
				k := ev[:0]
				for _, e := range ev {
					if e.fn != nil {
						k = append(k, e)
					} else {
						e.index = -1
						s.recycle(e)
					}
				}
				for i := len(k); i < len(ev); i++ {
					ev[i] = nil
				}
				s.ring[si] = k
				if len(k) == 0 {
					s.occ[w] &^= 1 << bit
				}
				remaining += len(k)
			}
		}
		s.ringN = remaining
		// Filtering compacts the slice, which can break heap order; the
		// front bucket is re-heapified on the next peek.
		s.frontHeaped = false
		if s.ringN == 0 {
			s.frontB = -1
		}
	}
}
