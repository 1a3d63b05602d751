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

// TestQueuePopBack checks Back and PopBack take the newest item, leave
// the rest in FIFO order, and rewind a queue emptied from the back.
func TestQueuePopBack(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 4; i++ {
		q.Push(i)
	}
	q.Pop() // 2, 3, 4 remain behind a popped prefix
	if q.Back() != 4 || q.PopBack() != 4 || q.Back() != 3 || q.Len() != 2 {
		t.Fatalf("after one PopBack: back %d len %d", q.Back(), q.Len())
	}
	q.Push(5)
	for _, want := range []int{2, 3, 5} {
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}

	var p Queue[*int]
	vals := []int{1, 2, 3}
	for i := range vals {
		p.Push(&vals[i])
	}
	p.Pop()
	for want := 2; want >= 1; want-- {
		if got := p.PopBack(); got != &vals[want] {
			t.Fatalf("PopBack returned item %d, want %d", *got-1, want)
		}
	}
	if p.Len() != 0 || p.head != 0 || len(p.buf) != 0 {
		t.Fatalf("queue emptied from the back did not rewind (head %d, len %d)", p.head, len(p.buf))
	}
	for i, v := range p.buf[:cap(p.buf)] {
		if v != nil {
			t.Fatalf("slot %d still holds an item", i)
		}
	}
}
