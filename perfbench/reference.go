package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Other tenants of a shared host slow it down in stretches of seconds to
// minutes, by a quarter or more, and a whole run can fall inside one, so
// no statistic of one run's wall times removes them. After every
// repetition the benchmark therefore times a reference loop: a fixed
// amount of simulator-like work, a 4-ary event heap over a table of
// entities larger than a core's private caches, in code the program does
// not share. A slow stretch slows the loop and the repetition alike,
// while a change to the program cannot move the loop, so scaling each
// repetition's times by refNominal over the loop's time cancels the
// first and keeps the second.

// refNominal is about the loop's time on an idle host of the kind the
// benchmark was tuned on (a 2-vCPU Xeon VM, Go 1.24), so that scaled
// times read close to that host's wall times.
const refNominal = 15 * time.Millisecond

// A measurement fires refEvents events over refNodes entities of one
// cache line each (16 MiB), refPending of them pending at a time.
const (
	refNodes   = 1 << 18
	refPending = 1 << 15
	refEvents  = 50_000
)

type refNode struct {
	state, count uint64
	peer         uint32
	_            [44]byte
}

type refEvent struct {
	at   uint64
	node uint32
}

// refLoop is the reference loop. Its tables are mapped outside the Go
// heap, so they neither raise the collector's heap goal nor get scanned:
// the program's GC runs as it would without the loop.
type refLoop struct {
	mem   []byte
	nodes []refNode
	heap  []refEvent // a 4-ary min-heap on at
	rng   uint64
	sink  uint64
}

func newRefLoop() (*refLoop, error) {
	nodeBytes := refNodes * int(unsafe.Sizeof(refNode{}))
	heapBytes := refPending * int(unsafe.Sizeof(refEvent{}))
	mem, err := syscall.Mmap(-1, 0, nodeBytes+heapBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference loop: mmap: %w", err)
	}
	l := &refLoop{
		mem:   mem,
		nodes: unsafe.Slice((*refNode)(unsafe.Pointer(&mem[0])), refNodes),
		heap:  unsafe.Slice((*refEvent)(unsafe.Pointer(&mem[nodeBytes])), refPending)[:0],
		rng:   0x9e3779b97f4a7c15,
	}
	for i := range l.nodes {
		l.nodes[i].peer = uint32(l.next() % refNodes)
	}
	for i := 0; i < refPending; i++ {
		l.push(refEvent{at: l.next() % 1024, node: uint32(l.next() % refNodes)})
	}
	return l, nil
}

func (l *refLoop) close() error { return syscall.Munmap(l.mem) }

// measure first sweeps the entities into cache as far as they fit, so
// that every measurement starts from the same state whatever the
// repetition before it left there. The timed part fires refEvents
// events; each updates its entity, reads the entity's peer, picks a new
// peer and schedules it.
func (l *refLoop) measure() time.Duration {
	for i := range l.nodes {
		l.sink += l.nodes[i].count
	}
	t0 := time.Now()
	for i := 0; i < refEvents; i++ {
		ev := l.pop()
		nd := &l.nodes[ev.node]
		nd.count++
		nd.state = nd.state*6364136223846793005 + ev.at
		peer := &l.nodes[nd.peer]
		l.sink += peer.state
		nd.peer = uint32((peer.state ^ l.next()) % refNodes)
		l.push(refEvent{at: ev.at + 1 + l.next()%1024, node: nd.peer})
	}
	return time.Since(t0)
}

// next is one xorshift64 step.
func (l *refLoop) next() uint64 {
	x := l.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng = x
	return x
}

func (l *refLoop) push(e refEvent) {
	h := l.heap[:len(l.heap)+1]
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].at <= e.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	l.heap = h
}

func (l *refLoop) pop() refEvent {
	h := l.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < len(h); k++ {
			if h[k].at < h[m].at {
				m = k
			}
		}
		if h[m].at >= last.at {
			break
		}
		h[i] = h[m]
		i = m
	}
	if len(h) > 0 {
		h[i] = last
	}
	l.heap = h
	return top
}
