package fifo

import "testing"

// TestQueueOrderAndBound holds a queue at constant depth k for many
// pop/push cycles: items leave in push order, the backing array stays
// within twice the depth, and popped slots keep no references.
func TestQueueOrderAndBound(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 64, 100} {
		var q Queue[*int]
		vals := make([]int, 10*k+1000)
		next, want := 0, 0
		for ; next < k; next++ {
			q.Push(&vals[next])
		}
		for ; next < len(vals); next++ {
			if got := q.Pop(); got != &vals[want] {
				t.Fatalf("k=%d: popped item %d, want %d", k, got, want)
			}
			want++
			q.Push(&vals[next])
			if q.Len() != k {
				t.Fatalf("k=%d: depth %d", k, q.Len())
			}
		}
		if q.Cap() > 2*k {
			t.Errorf("k=%d: cap %d after %d cycles, want <= %d", k, q.Cap(), len(vals)-k, 2*k)
		}
		for i := range q.buf[:q.head] {
			if q.buf[i] != nil {
				t.Fatalf("k=%d: popped slot %d still holds an item", k, i)
			}
		}
		for q.Len() > 0 {
			if got := q.Pop(); got != &vals[want] {
				t.Fatalf("k=%d: drained item %d, want %d", k, got, want)
			}
			want++
		}
		if q.head != 0 || len(q.buf) != 0 {
			t.Errorf("k=%d: drained queue did not rewind (head %d, len %d)", k, q.head, len(q.buf))
		}
	}
}

// TestQueuePeek checks Peek returns the oldest item and leaves it queued.
func TestQueuePeek(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	q.Push(2)
	if q.Peek() != 1 || q.Len() != 2 {
		t.Fatalf("peek %d len %d", q.Peek(), q.Len())
	}
	q.Pop()
	if q.Peek() != 2 {
		t.Fatalf("peek after pop %d", q.Peek())
	}
}
