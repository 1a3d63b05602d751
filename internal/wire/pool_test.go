package wire

import (
	"bytes"
	"errors"
	"testing"
)

var poolEPs = struct{ src, dst Endpoint }{
	src: Endpoint{MAC: MAC{2, 0, 0, 0, 2, 1}, IP: IP{10, 0, 2, 1}, Port: 10007},
	dst: Endpoint{MAC: MAC{2, 0, 0, 0, 1, 1}, IP: IP{10, 0, 1, 1}, Port: 9000},
}

// TestFramePoolByteIdentical is the pool's core contract: a frame built
// from a recycled, garbage-filled buffer is byte-for-byte the frame a
// fresh allocation would produce — padding and header bytes that are
// zero included. The build does not clear the buffer, so a byte it
// failed to write would keep the poison. The payload goes in whole, and
// gathered from pieces the way the generators and the NIC hand over an
// RPC header and its body.
func TestFramePoolByteIdentical(t *testing.T) {
	p := new(FramePool)
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xa5}, 300), bytes.Repeat([]byte{0x3c}, 4096+24)}
	builds := 0
	for _, payload := range payloads {
		want, err := BuildUDP(poolEPs.src, poolEPs.dst, 42, payload)
		if err != nil {
			t.Fatal(err)
		}
		split := min(len(payload), 24)
		for _, pieces := range [][][]byte{
			{payload},
			{payload[:split], payload[split:]},
			{nil, payload[:split], nil, payload[split:]},
		} {
			// Poison a buffer and recycle it through the pool.
			dirty := bytes.Repeat([]byte{0xff}, HeadersLen+MaxUDPPayload)
			p.Put(dirty)
			got, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 42, pieces...)
			if err != nil {
				t.Fatal(err)
			}
			builds++
			if !bytes.Equal(got, want) {
				t.Fatalf("payload len %d in %d pieces: pooled frame differs from fresh", len(payload), len(pieces))
			}
			if &got[0] != &dirty[0] {
				t.Fatalf("payload len %d: pool did not recycle the Put buffer", len(payload))
			}
		}
	}
	if n := uint64(builds); p.Gets != n || p.Hits != n || p.Puts != n {
		t.Fatalf("stats gets=%d hits=%d puts=%d, want %d each", p.Gets, p.Hits, p.Puts, n)
	}
}

// TestFramePoolGatherTooBig: the MTU check counts every piece.
func TestFramePoolGatherTooBig(t *testing.T) {
	p := new(FramePool)
	_, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, make([]byte, 24), make([]byte, MaxUDPPayload-23))
	if !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("err = %v, want ErrPayloadTooBig", err)
	}
	if _, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, make([]byte, 24), make([]byte, MaxUDPPayload-24)); err != nil {
		t.Fatalf("a payload of exactly MaxUDPPayload in two pieces: %v", err)
	}
}

// TestFramePoolMissAndForeignBuffers: an empty pool allocates exactly
// the frame's size; a migrated-in buffer too small for the next request
// is dropped, not retried.
func TestFramePoolMissAndForeignBuffers(t *testing.T) {
	p := new(FramePool)
	f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 0 || len(f) != MinFrameLen || cap(f) != MinFrameLen {
		t.Fatalf("miss path: hits=%d len=%d cap=%d, want 0/%d/%d", p.Hits, len(f), cap(f), MinFrameLen, MinFrameLen)
	}
	// A minimum-size foreign frame cannot serve a near-MTU payload.
	p.Put(make([]byte, MinFrameLen))
	big, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 2, bytes.Repeat([]byte{1}, MaxUDPPayload))
	if err != nil {
		t.Fatal(err)
	}
	if p.Hits != 0 {
		t.Fatal("undersized buffer served a hit")
	}
	if p.Free() != 0 {
		t.Fatalf("undersized buffer retained: free=%d", p.Free())
	}
	if len(big) != HeadersLen+MaxUDPPayload {
		t.Fatalf("frame len %d", len(big))
	}
	// Undersized Put is refused outright.
	p.Put(make([]byte, 8))
	if p.Free() != 0 {
		t.Fatal("pool accepted an 8-byte buffer")
	}
}

// TestFramePoolWarmBuildZeroAlloc: once a frame's buffer circulates,
// building from the pool and putting the frame back allocates nothing,
// whole or gathered from a header on the stack and a body.
func TestFramePoolWarmBuildZeroAlloc(t *testing.T) {
	p := new(FramePool)
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(f)
	allocs := testing.AllocsPerRun(1000, func() {
		f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(f)
		var hdr [24]byte
		hdr[0] = 0x4c
		f, err = p.BuildUDP(poolEPs.src, poolEPs.dst, 2, hdr[:], payload[len(hdr):])
		if err != nil {
			t.Fatal(err)
		}
		p.Put(f)
	})
	if allocs != 0 {
		t.Errorf("warm FramePool.BuildUDP allocates %v per op, want 0", allocs)
	}
	if p.Hits != p.Gets-1 {
		t.Fatalf("gets=%d hits=%d, want every get after the first to hit", p.Gets, p.Hits)
	}
}

// TestFramePoolCopy: Copy returns a buffer equal to its source and
// separate from it, counted as a Get, and as a Hit when the free list
// serves it. A recycled buffer is not cleared first (the copy overwrites
// it), and once warm a Copy and Put allocate nothing. A nil pool
// allocates.
func TestFramePoolCopy(t *testing.T) {
	src, err := BuildUDP(poolEPs.src, poolEPs.dst, 9, bytes.Repeat([]byte{0x3c}, 500))
	if err != nil {
		t.Fatal(err)
	}
	p := new(FramePool)
	miss := p.Copy(src)
	if !bytes.Equal(miss, src) || &miss[0] == &src[0] {
		t.Fatal("miss: the copy is not a separate equal buffer")
	}
	if p.Gets != 1 || p.Hits != 0 {
		t.Fatalf("miss: gets=%d hits=%d, want 1/0", p.Gets, p.Hits)
	}
	dirty := bytes.Repeat([]byte{0xff}, HeadersLen+MaxUDPPayload)
	p.Put(dirty)
	hit := p.Copy(src)
	if !bytes.Equal(hit, src) {
		t.Fatal("hit: the copy differs from its source")
	}
	if &hit[0] != &dirty[0] {
		t.Fatal("hit: pool did not recycle the Put buffer")
	}
	if p.Gets != 2 || p.Hits != 1 {
		t.Fatalf("hit: gets=%d hits=%d, want 2/1", p.Gets, p.Hits)
	}
	allocs := testing.AllocsPerRun(1000, func() { p.Put(p.Copy(src)) })
	if allocs != 0 {
		t.Errorf("warm Copy allocates %v per op, want 0", allocs)
	}
	var none *FramePool
	if c := none.Copy(src); !bytes.Equal(c, src) || &c[0] == &src[0] {
		t.Fatal("nil pool: the copy is not a separate equal buffer")
	}
}

// TestFramePoolNil: a nil pool is plain allocation and a no-op sink.
func TestFramePoolNil(t *testing.T) {
	var p *FramePool
	f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 7, []byte("hi"))
	if err != nil || len(f) != MinFrameLen {
		t.Fatalf("nil pool build: %v len %d", err, len(f))
	}
	p.Put(f)
	if p.Free() != 0 {
		t.Fatal("nil pool retained a frame")
	}
}

var poolSink []byte

// BenchmarkPoolBuildUDP builds a frame carrying a 4096-byte payload from
// a warm pool and puts it back: the header writes, the payload copy and
// both checksums, with no allocation.
func BenchmarkPoolBuildUDP(b *testing.B) {
	p := new(FramePool)
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	b.SetBytes(int64(paddedLen(len(payload))))
	for b.Loop() {
		f, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 1, payload)
		if err != nil {
			b.Fatal(err)
		}
		poolSink = f
		p.Put(f)
	}
}
