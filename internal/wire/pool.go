package wire

// FramePool is a free list for the frame buffers BuildUDP allocates —
// the last named allocation residue on the model hot path (ROADMAP item
// 4): every request a generator fires and every response a stack encodes
// is one fresh []byte without it.
//
// Ownership-transfer contract. A frame built from a pool is owned by the
// builder's caller and transfers ownership whole-hog down the tx path:
// through the NIC, the link, and the fabric to exactly one terminal
// consumer. The terminal consumer — and only it — may return the frame
// with Put, and only once every alias it took (parsed Datagram payloads,
// decoded message bodies) is dead or provably write-before-read scratch.
// Two corollaries:
//
//   - Pools are only safe where unicast delivery is single-copy. A
//     learning switch floods unknown destinations, handing the SAME
//     buffer to several machines; none of them may Put it. The cluster
//     builder therefore arms pools only for Direct links and routed
//     (statically programmed, flood-free) fabrics.
//   - A pool belongs to one shard: it is single-threaded by the same
//     contract as the rest of the model, touched only by components on
//     its shard's Sim. Frames routinely DIE on a different shard than
//     they were built on; the consumer Puts into its own shard's pool,
//     so buffers migrate between pools but each free list stays
//     unsynchronized.
//
// A nil *FramePool is valid and degrades to plain allocation, so pool
// plumbing is optional everywhere.
type FramePool struct {
	free [][]byte

	// Gets counts pooled BuildUDP calls, Hits the subset served from the
	// free list, Puts the frames returned.
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

// BuildUDP is wire.BuildUDP drawing its frame from the pool. The frame
// is cleared before the headers are written, so pooled and fresh frames
// are byte-identical.
//
//lhlint:hotpath
func (p *FramePool) BuildUDP(src, dst Endpoint, ipID uint16, payload []byte) ([]byte, error) {
	if p == nil {
		return BuildUDP(src, dst, ipID, payload)
	}
	if len(payload) > MaxUDPPayload {
		return nil, errTooBig(len(payload))
	}
	f := p.get(paddedLen(len(payload)))
	fillUDP(f, src, dst, ipID, payload)
	return f, nil
}

// get pops a cleared buffer of length n. A miss allocates exactly n
// bytes: most frames a pool builds leave it for good (server stacks drop
// requests without Put), so capacity beyond n would only be zeroed and
// collected. A popped buffer too small for n (a foreign frame that
// migrated in) is dropped rather than retried.
func (p *FramePool) get(n int) []byte {
	p.Gets++
	if last := len(p.free) - 1; last >= 0 {
		f := p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		if cap(f) >= n {
			p.Hits++
			f = f[:n]
			clear(f)
			return f
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
