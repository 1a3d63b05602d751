package wire

import (
	"bytes"
	"testing"
)

var poolEPs = struct{ src, dst Endpoint }{
	src: Endpoint{MAC: MAC{2, 0, 0, 0, 2, 1}, IP: IP{10, 0, 2, 1}, Port: 10007},
	dst: Endpoint{MAC: MAC{2, 0, 0, 0, 1, 1}, IP: IP{10, 0, 1, 1}, Port: 9000},
}

// TestFramePoolByteIdentical is the pool's core contract: a frame built
// from a recycled, garbage-filled buffer is byte-for-byte the frame a
// fresh allocation would produce — padding and untouched header bytes
// included.
func TestFramePoolByteIdentical(t *testing.T) {
	p := new(FramePool)
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xa5}, 300)} {
		want, err := BuildUDP(poolEPs.src, poolEPs.dst, 42, payload)
		if err != nil {
			t.Fatal(err)
		}
		// Poison a buffer and recycle it through the pool.
		dirty := bytes.Repeat([]byte{0xff}, HeadersLen+MaxUDPPayload)
		p.Put(dirty)
		got, err := p.BuildUDP(poolEPs.src, poolEPs.dst, 42, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload len %d: pooled frame differs from fresh", len(payload))
		}
		if &got[0] != &dirty[0] {
			t.Fatalf("payload len %d: pool did not recycle the Put buffer", len(payload))
		}
	}
	if p.Gets != 3 || p.Hits != 3 || p.Puts != 3 {
		t.Fatalf("stats gets=%d hits=%d puts=%d, want 3/3/3", p.Gets, p.Hits, p.Puts)
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
// building from the pool and putting the frame back allocates nothing.
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
	})
	if allocs != 0 {
		t.Errorf("warm FramePool.BuildUDP allocates %v per op, want 0", allocs)
	}
	if p.Hits != p.Gets-1 {
		t.Fatalf("gets=%d hits=%d, want every get after the first to hit", p.Gets, p.Hits)
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
