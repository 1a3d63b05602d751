package mesi

import "math/bits"

// addrTable is a grow-only open-addressed hash table keyed by LineAddr,
// replacing map[LineAddr]V on the coherence hot path. Directory entries
// and backing lines are only ever created, never deleted, so linear
// probing needs no tombstones; lookups are one multiply, a shift, and a
// short probe over one slice of entries — no map header, no per-access
// hashing interface. Each entry packs its key, used flag and value
// together, so a hit reads one cache line, not one per field.
type addrTable[V any] struct {
	entries []tableEntry[V]
	n       int
	shift   uint
}

// tableEntry is one slot of an addrTable.
type tableEntry[V any] struct {
	key  LineAddr
	used bool
	val  V
}

const addrTableMinSize = 64 // power of two, comfortably above a host's control-line count

// newAddrTable returns an empty table pre-sized for sizeHint entries.
func newAddrTable[V any](sizeHint int) *addrTable[V] {
	size := addrTableMinSize
	for size < sizeHint*2 {
		size *= 2
	}
	return &addrTable[V]{
		entries: make([]tableEntry[V], size),
		shift:   uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// slot is the preferred slot for a: Fibonacci hashing spreads the
// structured control-line address space across the table.
//
//lhlint:hotpath
func (t *addrTable[V]) slot(a LineAddr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the value stored for a, if any.
//
//lhlint:hotpath
func (t *addrTable[V]) get(a LineAddr) (V, bool) {
	mask := len(t.entries) - 1
	for i := t.slot(a); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.used {
			var zero V
			return zero, false
		}
		if e.key == a {
			return e.val, true
		}
	}
}

// put inserts or replaces the value for a.
//
//lhlint:hotpath
func (t *addrTable[V]) put(a LineAddr, v V) {
	if (t.n+1)*4 >= len(t.entries)*3 {
		t.grow()
	}
	mask := len(t.entries) - 1
	for i := t.slot(a); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if !e.used {
			*e = tableEntry[V]{key: a, used: true, val: v}
			t.n++
			return
		}
		if e.key == a {
			e.val = v
			return
		}
	}
}

// grow doubles the table and rehashes every entry.
func (t *addrTable[V]) grow() {
	old := t.entries
	t.entries = make([]tableEntry[V], len(old)*2)
	t.shift--
	t.n = 0
	for i := range old {
		if e := &old[i]; e.used {
			t.put(e.key, e.val)
		}
	}
}
