package wire

// FramePool is a free list for frame buffers: every request a generator
// fires and every response a stack encodes is one fresh []byte without
// it, and so is every copy a transport puts on the wire.
//
// Ownership-transfer contract. A frame built from a pool is owned by the
// builder's caller and transfers ownership whole-hog down the tx path:
// through the NIC, the link, and the fabric to exactly one terminal
// consumer. Every fabric delivers a buffer to at most one consumer — a
// flooding switch sends each egress port its own copy. The terminal
// consumer — and only it — may return the frame with Put, and only once
// every alias it took (parsed Datagram payloads, decoded message bodies)
// is dead or provably write-before-read scratch. The consumer is the
// receiver that handles the frame, or the link side that drops it (tail
// drop, no carrier, or a purge at a carrier cut). A consumer that never
// Puts simply leaves the frame to the garbage collector.
//
// A pool belongs to one shard: it is single-threaded by the same
// contract as the rest of the model, touched only by components on its
// shard's Sim. Frames routinely DIE on a different shard than they were
// built on; the consumer Puts into its own shard's pool, so buffers
// migrate between pools but each free list stays unsynchronized.
//
// A nil *FramePool is valid and degrades to plain allocation, so pool
// plumbing is optional everywhere.
type FramePool struct {
	free [][]byte

	// Gets counts pooled BuildUDP and Copy calls, Hits the subset served
	// from the free list, Puts the frames returned.
	Gets, Hits, Puts uint64
}

// paddedLen is the allocated frame length for a payload: headers plus
// payload, padded up to the Ethernet minimum.
func paddedLen(payload int) int {
	n := HeadersLen + payload
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// BuildUDP builds a frame from src to dst whose UDP payload is the
// pieces joined in order, computing both checksums, in a buffer drawn
// from the pool. It is a gather build: it writes every header byte and
// copies each piece straight into place, so a caller can pass an encoded
// RPC header and the body it heads without joining them first, and a
// recycled buffer needs no clearing; only the padding of a frame shorter
// than MinFrameLen is zeroed. The pieces need live only until BuildUDP
// returns, and must not alias the buffer it draws. The frame is
// byte-identical to wire.BuildUDP of the joined payload, which is this
// build with no pool and one piece. The payload must fit the MTU.
//
//lhlint:hotpath
func (p *FramePool) BuildUDP(src, dst Endpoint, ipID uint16, pieces ...[]byte) ([]byte, error) {
	n := 0
	for _, pc := range pieces {
		n += len(pc)
	}
	if n > MaxUDPPayload {
		return nil, errTooBig(n)
	}
	f := p.get(paddedLen(n))
	fillUDP(f, src, dst, ipID, n, pieces)
	return f, nil
}

// Copy returns a copy of frame in a buffer drawn from the pool, owned by
// the caller under the contract above: the way to put a second copy of a
// frame on the wire (a retransmit, a replayed response), or to keep one
// in a pool of the caller's own.
//
//lhlint:hotpath
func (p *FramePool) Copy(frame []byte) []byte {
	f := p.get(len(frame))
	copy(f, frame)
	return f
}

// get pops a buffer of length n with arbitrary contents: both builders
// overwrite every byte. A miss, or a nil pool, allocates exactly n bytes:
// frames that leave for consumers which never Put (a switch or an
// inter-switch link that drops them) would only have their extra
// capacity zeroed and collected. A popped buffer too small for n (a
// smaller frame that came back) is dropped rather than retried.
//
//lhlint:hotpath
func (p *FramePool) get(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	p.Gets++
	if last := len(p.free) - 1; last >= 0 {
		f := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		if cap(f) >= n {
			p.Hits++
			return f[:n]
		}
	}
	return make([]byte, n)
}

// Put returns a dead frame to the free list. See the ownership contract
// above: callers must be the frame's single terminal consumer.
//
//lhlint:hotpath
func (p *FramePool) Put(frame []byte) {
	if p == nil || cap(frame) < MinFrameLen {
		return
	}
	p.Puts++
	p.free = append(p.free, frame)
}

// Free reports how many buffers the free list currently holds.
func (p *FramePool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
