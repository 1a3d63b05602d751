// Package nicdma models the traditional descriptor-ring DMA NIC of the
// paper's Figure 1: incoming packets are demultiplexed by RSS onto receive
// queues, DMA'd into host memory along with completion descriptors, and
// signalled with (moderated) interrupts — or polled, which is how
// kernel-bypass dataplanes drive the very same hardware.
//
// The model charges every hardware interaction with the latencies of the
// configured fabric (PCIe x86, PCIe Enzian, ...): payload DMA, completion
// writes, descriptor fetches, doorbells, and interrupt delivery.
//
// Determinism invariants: RSS queue selection hashes frame bytes (or
// steers by port), every DMA/IRQ completion fires at a simulated time,
// and no randomness is drawn — the NIC replays identically for a given
// frame sequence.
package nicdma

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Config parameterizes a NIC instance.
type Config struct {
	// Fabric supplies DMA/MMIO/IRQ latencies; it must have HasDMA.
	Fabric fabric.Params
	// Queues is the number of RSS receive queues.
	Queues int
	// NICProcess is the on-NIC packet processing time (header parse, RSS
	// hash, checksum verify) per packet.
	NICProcess sim.Time
	// IRQCoalesce holds off interrupts after one fires, batching packets
	// (interrupt moderation). Zero disables moderation.
	IRQCoalesce sim.Time
	// RingSize bounds each RX ring; packets arriving to a full ring are
	// dropped (as real NICs do).
	RingSize int
	// SteerByPort selects the RX queue by destination UDP port modulo the
	// queue count instead of RSS flow hashing — the "flow director"-style
	// exact steering kernel-bypass deployments use to bind one service to
	// one queue.
	SteerByPort bool
	// FilterIP, when non-zero, drops received frames whose IP destination
	// differs (counted in Stats.RxFiltered). Switched fabrics flood frames
	// for unlearned MACs to every port, so a NIC sharing a switch with
	// other hosts must discard traffic that is not addressed to it — as
	// real NICs do in hardware. Zero accepts everything (fine on a
	// point-to-point link).
	FilterIP wire.IP
}

// DefaultConfig returns an x86-class NIC configuration.
func DefaultConfig() Config {
	return Config{
		Fabric:      fabric.PCIeX86,
		Queues:      1,
		NICProcess:  300 * sim.Nanosecond,
		IRQCoalesce: 0,
		RingSize:    1024,
	}
}

// EnzianConfig returns the Enzian FPGA NIC configuration: the slower
// fabric clock makes per-packet processing several times costlier.
func EnzianConfig() Config {
	return Config{
		Fabric:      fabric.PCIeEnzian,
		Queues:      1,
		NICProcess:  3000 * sim.Nanosecond, // ~250 MHz FPGA packet pipeline
		IRQCoalesce: 0,
		RingSize:    1024,
	}
}

// Stats counts NIC activity.
type Stats struct {
	RxFrames    uint64
	RxBadFrames uint64
	RxDropped   uint64
	RxFiltered  uint64 // not addressed to this host (switched fabrics)
	TxFrames    uint64
	TxNoCarrier uint64 // frames dropped at the driver's carrier check
	IRQs        uint64
}

// Packet is one received frame as host software sees it: the parsed
// datagram, whose Payload aliases the frame, and the frame buffer itself.
// The NIC parses each frame into a recycled Packet. Whoever polls a
// Packet from a ring owns it and hands it back with NIC.Release.
type Packet struct {
	wire.Datagram
	// Frame is the received frame the datagram was parsed from.
	Frame []byte
	// live is set from the parse to the Release, which checks it.
	live bool
}

// RxQueue is one receive ring, after DMA: entries are packets already
// resident in host memory.
type RxQueue struct {
	id  int
	nic *NIC

	ring fifo.Queue[*Packet]

	irqArmed  bool // driver wants interrupts
	irqMasked bool // NAPI-style: masked until driver re-enables
	lastIRQ   sim.Time

	// OnIRQ is the driver hook, invoked when the queue raises an
	// interrupt (after fabric IRQ latency). It runs in "hardware" context:
	// implementations should bounce into kernel.IRQ.
	OnIRQ func(q *RxQueue)

	// irqFn and coalesceFn are the bound callbacks behind the IRQ and
	// moderation-window events, bound on the first interrupt.
	irqFn, coalesceFn func()

	// arrivalWaiters are one-shot callbacks from pollers parked on an
	// empty ring (see OnArrival).
	arrivalWaiters []func()
}

// OnArrival registers a one-shot callback invoked as soon as a frame is
// available: immediately if the ring is non-empty, otherwise at the next
// DMA completion. Poll loops use it to avoid simulating every individual
// empty poll iteration; the caller models the poll-discovery cost itself.
func (q *RxQueue) OnArrival(fn func()) {
	if q.ring.Len() > 0 {
		fn()
		return
	}
	q.arrivalWaiters = append(q.arrivalWaiters, fn)
}

// notifyArrival fires the waiters registered before it was called; a
// waiter that registers again waits for the next arrival. The waiter
// slice keeps its backing array.
//
//lhlint:hotpath
func (q *RxQueue) notifyArrival() {
	n := len(q.arrivalWaiters)
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		w := q.arrivalWaiters[i]
		q.arrivalWaiters[i] = nil
		w()
	}
	ws := q.arrivalWaiters
	rest := copy(ws, ws[n:])
	clear(ws[rest:])
	q.arrivalWaiters = ws[:rest]
}

// ID returns the queue index.
func (q *RxQueue) ID() int { return q.id }

// Len returns the number of packets waiting in the ring.
func (q *RxQueue) Len() int { return q.ring.Len() }

// Poll removes and returns the next received packet, or nil. The caller
// owns it until it hands it back with NIC.Release. The caller models its
// own polling cost; Poll itself is free (the ring is in host memory).
//
//lhlint:hotpath
func (q *RxQueue) Poll() *Packet {
	if q.ring.Len() == 0 {
		return nil
	}
	return q.ring.Pop()
}

// EnableIRQ arms (or re-arms, NAPI-style) interrupts for the queue. If
// packets are already pending, an interrupt fires immediately.
func (q *RxQueue) EnableIRQ() {
	q.irqArmed = true
	q.irqMasked = false
	if q.ring.Len() > 0 {
		q.raiseIRQ()
	}
}

// DisableIRQ switches the queue to pure polling (bypass mode).
func (q *RxQueue) DisableIRQ() {
	q.irqArmed = false
	q.irqMasked = false
}

//lhlint:hotpath
func (q *RxQueue) raiseIRQ() {
	if !q.irqArmed || q.irqMasked || q.OnIRQ == nil {
		return
	}
	q.bindIRQ()
	n := q.nic
	if n.cfg.IRQCoalesce > 0 && n.sim.Now()-q.lastIRQ < n.cfg.IRQCoalesce && q.lastIRQ > 0 {
		// Within the moderation window: defer to the window's end.
		q.irqMasked = true
		n.sim.At(q.lastIRQ+n.cfg.IRQCoalesce, "nicdma-coalesced-irq", q.coalesceFn)
		return
	}
	q.irqMasked = true // masked until driver EnableIRQ (NAPI)
	q.lastIRQ = n.sim.Now()
	n.stats.IRQs++
	n.sim.After(n.cfg.Fabric.IRQLatency, "nicdma-irq", q.irqFn)
}

// bindIRQ binds the queue's interrupt callbacks on first use.
func (q *RxQueue) bindIRQ() {
	if q.irqFn != nil {
		return
	}
	q.irqFn = func() { q.OnIRQ(q) }
	q.coalesceFn = func() {
		q.irqMasked = false
		if q.ring.Len() > 0 {
			q.raiseIRQ()
		}
	}
}

// rxPend is one frame's in-flight receive state: it rides through both
// timed hops (NIC processing, then payload DMA) behind a single step
// callback bound once at allocation, and returns to the NIC's free list
// when the frame is delivered or dropped.
type rxPend struct {
	n     *NIC
	pkt   *Packet
	q     *RxQueue
	stage int // 1 = processing, 2 = DMA
	fire  func()
}

// NIC is the device model. It implements fabric.FramePort for the receive
// direction.
type NIC struct {
	sim   *sim.Sim
	cfg   Config
	link  *fabric.Link
	side  int
	qs    []*RxQueue
	stats Stats
	// txBusy serializes the DMA engine for transmit descriptor fetches.
	txBusy sim.Time
	// txq stages frames awaiting their TX-done event oldest-first: TX DMA
	// completion times strictly increase, so head-pop order matches event
	// order and one prebound callback replaces a per-frame closure.
	txq  fifo.Queue[[]byte]
	txFn func()
	// rxFree pools rxPend entries so the two-hop receive path allocates
	// only on depth high-water marks.
	rxFree []*rxPend
	// pktFree pools the packets Release hands back.
	pktFree []*Packet
	// pool, when non-nil (cluster-built hosts), recycles frame buffers:
	// the NIC is the terminal consumer of every frame it receives.
	pool *wire.FramePool
}

// New creates a NIC attached to nothing; call AttachLink before
// transmitting.
func New(s *sim.Sim, cfg Config) *NIC {
	if !cfg.Fabric.HasDMA {
		panic(fmt.Sprintf("nicdma: fabric %s has no DMA", cfg.Fabric.Name))
	}
	if cfg.Queues <= 0 {
		panic("nicdma: need at least one queue")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	n := &NIC{sim: s, cfg: cfg}
	n.txFn = n.txDone
	for i := 0; i < cfg.Queues; i++ {
		n.qs = append(n.qs, &RxQueue{id: i, nic: n})
	}
	return n
}

// AttachLink connects the NIC to a network link as the given side.
func (n *NIC) AttachLink(l *fabric.Link, side int) {
	n.link = l
	n.side = side
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Queue returns RX queue i.
func (n *NIC) Queue(i int) *RxQueue { return n.qs[i] }

// NumQueues returns the number of RX queues.
func (n *NIC) NumQueues() int { return len(n.qs) }

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// SetPool arms frame recycling with the frame pool of the NIC's Sim
// (see wire.FramePool's ownership contract): Release and every receive
// drop Put the frame there. The stacks over the NIC build their frames
// from Pool. Without it frames are plain allocations.
func (n *NIC) SetPool(p *wire.FramePool) { n.pool = p }

// Pool returns the frame pool armed with SetPool, or nil.
func (n *NIC) Pool() *wire.FramePool { return n.pool }

// Release hands back a packet polled from a ring: its frame goes to the
// NIC's frame pool and the packet to the NIC's free list. The caller is
// the frame's terminal consumer and calls Release exactly once per
// packet, once every alias it took of the frame (the datagram's Payload,
// a decoded RPC body) is dead.
//
//lhlint:hotpath
func (n *NIC) Release(p *Packet) {
	if !p.live {
		panic("nicdma: packet released twice")
	}
	p.live = false
	n.pool.Put(p.Frame)
	p.Frame, p.Payload = nil, nil
	n.pktFree = append(n.pktFree, p)
}

// newPacket takes a packet from the free list for frame.
//
//lhlint:hotpath
func (n *NIC) newPacket(frame []byte) *Packet {
	var p *Packet
	if last := len(n.pktFree) - 1; last >= 0 {
		p = n.pktFree[last]
		n.pktFree[last] = nil
		n.pktFree = n.pktFree[:last]
	} else {
		p = new(Packet)
	}
	p.Frame = frame
	p.live = true
	return p
}

// DeliverFrame implements fabric.FramePort: a frame has arrived from the
// wire. The NIC parses it (for RSS and checksum offload), selects a queue,
// DMAs payload + completion, and possibly raises an interrupt.
//
//lhlint:hotpath
func (n *NIC) DeliverFrame(frame []byte) {
	var p *rxPend
	if len(n.rxFree) > 0 {
		p = n.rxFree[len(n.rxFree)-1]
		n.rxFree = n.rxFree[:len(n.rxFree)-1]
	} else {
		p = &rxPend{n: n}
		//lhlint:allow hotpath bound once per pooled entry; reused for every frame that rides it
		p.fire = func() { p.step() }
	}
	p.pkt = n.newPacket(frame)
	p.stage = 1
	n.sim.After(n.cfg.NICProcess, "nicdma-rx-process", p.fire)
}

// step advances a pending frame one hop: parse + steer after NIC
// processing, then ring insertion after the payload DMA. DMA delays vary
// with frame length, so entries can fire out of schedule order — each
// carries its own state instead of relying on FIFO order.
//
//lhlint:hotpath
func (p *rxPend) step() {
	n := p.n
	switch p.stage {
	case 1:
		pkt := p.pkt
		if wire.ParseUDPInto(pkt.Frame, &pkt.Datagram) != nil {
			n.stats.RxBadFrames++
			p.drop()
			return
		}
		if n.cfg.FilterIP != (wire.IP{}) && pkt.IP.Dst != n.cfg.FilterIP {
			n.stats.RxFiltered++
			p.drop()
			return
		}
		if n.cfg.SteerByPort {
			p.q = n.qs[int(pkt.UDP.DstPort)%len(n.qs)]
		} else {
			p.q = n.qs[int(pkt.Flow.Hash())%len(n.qs)]
		}
		if p.q.ring.Len() >= n.cfg.RingSize {
			n.stats.RxDropped++
			p.drop()
			return
		}
		// DMA payload into a host buffer, then write the completion
		// descriptor. Both must be visible before the packet "exists"
		// for software.
		p.stage = 2
		dma := n.cfg.Fabric.DMATransfer(len(pkt.Frame)) + n.cfg.Fabric.DMAWrite
		n.sim.After(dma, "nicdma-rx-dma", p.fire)
	case 2:
		q, pkt := p.q, p.pkt
		p.release()
		if q.ring.Len() >= n.cfg.RingSize {
			n.stats.RxDropped++
			n.Release(pkt)
			return
		}
		q.ring.Push(pkt)
		n.stats.RxFrames++
		q.raiseIRQ()
		q.notifyArrival()
	}
}

// drop releases a frame the NIC discards on receipt, then the entry.
//
//lhlint:hotpath
func (p *rxPend) drop() {
	p.n.Release(p.pkt)
	p.release()
}

// release returns the entry to the NIC's free list.
//
//lhlint:hotpath
func (p *rxPend) release() {
	p.pkt = nil
	p.q = nil
	p.stage = 0
	p.n.rxFree = append(p.n.rxFree, p)
}

// Transmit sends a frame that host software has placed in a TX ring. The
// host-side costs (building the descriptor, the doorbell MMIO write) are
// charged to the calling thread by the caller; this method models the
// NIC-side latency: descriptor fetch, payload DMA read, and wire transmit.
//
//lhlint:hotpath
func (n *NIC) Transmit(frame []byte) {
	if n.link == nil {
		panic("nicdma: transmit with no link attached")
	}
	if !n.link.Up() {
		// The driver's carrier check (netif_carrier_ok): a frame offered
		// toward a downed link is dropped before any DMA is spent on it.
		n.stats.TxNoCarrier++
		n.pool.Put(frame)
		return
	}
	// Serialize the TX DMA engine.
	start := n.sim.Now()
	if n.txBusy > start {
		start = n.txBusy
	}
	fetch := n.cfg.Fabric.DMARead                   // descriptor fetch
	payload := n.cfg.Fabric.DMATransfer(len(frame)) // payload read
	process := n.cfg.NICProcess                     // checksum insert etc.
	done := start + fetch + payload + process
	n.txBusy = done
	// Completion times strictly increase (each starts no earlier than the
	// previous done), so head-pop order matches event order.
	n.txq.Push(frame)
	n.sim.At(done, "nicdma-tx", n.txFn)
}

// txDone completes the oldest queued TX DMA: count it and put the frame on
// the wire.
//
//lhlint:hotpath
func (n *NIC) txDone() {
	frame := n.txq.Pop()
	n.stats.TxFrames++
	n.link.Send(n.side, frame)
}

// DoorbellCost returns the host-side cost of ringing the TX doorbell,
// charged by the sending thread.
func (n *NIC) DoorbellCost() sim.Time { return n.cfg.Fabric.MMIOWrite }
