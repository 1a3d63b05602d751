// Package fifo provides the head-indexed FIFO queue the model's receive
// rings, request and wait queues, link in-flight frames, shard channels
// and transport hold queues share.
//
// A queue pops by advancing a head index into its slice instead of
// reslicing with q = q[1:], which would strand the popped prefix and
// make nearly every push at a shallow depth reallocate. When the queue
// drains it rewinds to the start of its backing array, and a push that
// finds the array full with a popped prefix moves the live tail to the
// front first. So the backing array is reused for the queue's lifetime,
// and a queue that never drains stays within twice its peak depth.
//
// Determinism invariants: a queue is a plain slice with no hashing,
// randomness or time; items leave in exactly the order they entered,
// with one exception. PopBack takes the newest item back from the tail,
// for a producer that must withdraw what it queued last: a link purging
// the frames a carrier cut caught before their serialization began.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
// A Queue is not safe for concurrent use; like the rest of the model it
// belongs to one Sim.
type Queue[T any] struct {
	buf  []T // buf[head:] are the queued items, oldest first
	head int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Cap returns the capacity of the backing array.
func (q *Queue[T]) Cap() int { return cap(q.buf) }

// Push appends v at the tail.
//
//lhlint:hotpath
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Peek returns the oldest item without removing it. The queue must not
// be empty.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the oldest item. The queue must not be empty.
// The vacated slot is zeroed, so the queue keeps no reference to it.
//
//lhlint:hotpath
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Back returns the newest item without removing it. The queue must not
// be empty.
func (q *Queue[T]) Back() T { return q.buf[len(q.buf)-1] }

// PopBack removes and returns the newest item, the one exception to FIFO
// order. The queue must not be empty. The vacated slot is zeroed, and a
// queue emptied from the back rewinds like one emptied by Pop.
func (q *Queue[T]) PopBack() T {
	last := len(q.buf) - 1
	v := q.buf[last]
	var zero T
	q.buf[last] = zero
	q.buf = q.buf[:last]
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}
