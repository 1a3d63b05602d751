package transport

import (
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Credit scheme: receiver-driven grant pacing. A sender may have W0
// unsolicited requests outstanding per destination; everything beyond
// that waits for cumulative GRANT credit, which the receiver hands out
// round-robin across senders while its own in-flight estimate stays
// under creditGrantMax — so an incast's aggregate arrival rate is
// pinned near the receiver's drain rate instead of collapsing a
// tail-drop queue. RTS frames advertise demand (and refresh against
// lost grants); a receiver-side no-progress timer reclaims credit for
// frames presumed lost.
const (
	// creditW0 is the unsolicited per-destination window: requests a
	// sender may have outstanding beyond its granted credit.
	creditW0 = 1
	// creditGrantMax caps the receiver's in-flight estimate — the
	// backlog it is willing to have racing toward it at once.
	creditGrantMax = 8
	// creditRTSEvery is the demand-refresh cadence while frames are
	// held; it also heals lost GRANT frames (grants are cumulative, so
	// re-sends are idempotent).
	creditRTSEvery = 100 * sim.Microsecond
	// creditReclaimEvery is the receiver's no-progress loss timer: a
	// full period with outstanding credit and no arrivals writes the
	// outstanding frames off as lost.
	creditReclaimEvery = sim.Millisecond
)

func init() {
	Register(Entry{Kind: Credit, Name: "credit", Label: "Credit (receiver-driven)", New: newCredit})
}

type creditT struct {
	p    Params
	link *fabric.Link
	side int
	up   upPort
	st   Stats

	// dg is the receive half's parse, handed up with the frame; txDg is
	// the transmit tap's, kept apart so a port that sends while it reads
	// dg (a closed-loop client) does not see it overwritten.
	dg   wire.Datagram
	txDg wire.Datagram
	msg  rpc.Message

	// sender role: per-destination credit state. sendList mirrors the
	// map in first-use order for deterministic iteration.
	sends    map[uint32]*creditSend
	sendList []*creditSend

	// receiver role: per-source credit state, first-seen order, with a
	// persistent round-robin cursor.
	recvs    map[uint32]*creditRecv
	recvList []*creditRecv
	rr       int

	reclaimArmed bool
	reclaimFn    func()
	lastProgress uint64

	ctrlSrc     wire.Endpoint
	ipID        uint16
	ctrlPayload [ctrlPayloadLen]byte
}

// creditSend is the sender half for one destination. Counters are
// cumulative frame counts: want (enqueued), sent (on the wire),
// granted (credited by the receiver).
type creditSend struct {
	t                   *creditT
	dst                 wire.Endpoint
	want, sent, granted uint64
	held                fifo.Queue[[]byte]
	rtsArmed            bool
	fire                func()
}

// creditRecv is the receiver half for one source.
type creditRecv struct {
	src                  wire.Endpoint
	want, granted, recvd uint64
	dirty                bool
}

func newCredit(p Params) Instance {
	t := &creditT{
		p:       p,
		sends:   make(map[uint32]*creditSend),
		recvs:   make(map[uint32]*creditRecv),
		ctrlSrc: wire.Endpoint{MAC: p.Self.MAC, IP: p.Self.IP, Port: CtrlPort},
	}
	t.reclaimFn = t.reclaim
	return t
}

func (t *creditT) WrapPort(inner fabric.FramePort) fabric.FramePort {
	t.up = newUpPort(inner)
	return t
}

func (t *creditT) BindLink(l *fabric.Link, side int) {
	t.link = l
	t.side = side
	l.SetTap(side, t.onTx)
}

func (t *creditT) Stats() Stats { return t.st }

// onTx gates outbound requests on credit. Responses and non-RPC frames
// pass untouched — pacing the request direction is what tames incast.
//
//lhlint:hotpath
func (t *creditT) onTx(frame []byte) bool {
	if wire.ParseUDPInto(frame, &t.txDg) != nil || rpc.DecodeInto(t.txDg.Payload, &t.msg) != nil {
		return true
	}
	if t.msg.Kind != rpc.KindRequest {
		return true
	}
	cs := t.sends[t.txDg.IP.Dst.Uint32()]
	if cs == nil {
		cs = t.newSend(&t.txDg)
	}
	cs.want++
	if cs.held.Len() == 0 && cs.sent < cs.granted+creditW0 {
		cs.sent++
		return true
	}
	cs.held.Push(frame)
	t.st.HeldFrames++
	cs.requestCredit()
	return false
}

func (t *creditT) newSend(d *wire.Datagram) *creditSend {
	cs := &creditSend{t: t, dst: wire.Endpoint{MAC: d.Eth.Dst, IP: d.IP.Dst, Port: CtrlPort}}
	cs.fire = cs.refresh
	t.sends[d.IP.Dst.Uint32()] = cs
	t.sendList = append(t.sendList, cs)
	return cs
}

// requestCredit advertises demand on the queue-empty→nonempty edge and
// arms the refresh timer.
//
//lhlint:hotpath
func (cs *creditSend) requestCredit() {
	if cs.rtsArmed {
		return
	}
	cs.rtsArmed = true
	cs.sendRTS()
	cs.t.p.Sim.After(creditRTSEvery, "transport-credit-rts", cs.fire)
}

// refresh re-advertises demand while frames are held, healing lost
// RTS/GRANT frames; it disarms itself when the hold queue drains.
func (cs *creditSend) refresh() {
	cs.rtsArmed = false
	if cs.held.Len() == 0 {
		return
	}
	cs.rtsArmed = true
	cs.sendRTS()
	cs.t.p.Sim.After(creditRTSEvery, "transport-credit-rts", cs.fire)
}

func (cs *creditSend) sendRTS() {
	cs.t.st.RTSSent++
	cs.t.sendCtrl(cs.dst, ctrlRTS, cs.want)
}

// sendCtrl builds and injects one control frame. Injection bypasses the
// tap (control frames are not themselves paced) but rides the access
// link like any other frame: it serializes, queues, and can be dropped
// or CE-marked.
func (t *creditT) sendCtrl(dst wire.Endpoint, kind byte, seq uint64) {
	putCtrl(t.ctrlPayload[:], kind, seq)
	t.ipID++
	f, err := t.p.Pool.BuildUDP(t.ctrlSrc, dst, t.ipID, t.ctrlPayload[:])
	if err != nil {
		return
	}
	t.link.Inject(t.side, f)
}

// DeliverFrame absorbs control frames addressed to us and meters
// inbound requests for the grant loop; data frames pass through.
//
//lhlint:hotpath
func (t *creditT) DeliverFrame(frame []byte) {
	if wire.ParseUDPInto(frame, &t.dg) != nil {
		t.up.unparsed(frame)
		return
	}
	if t.dg.UDP.DstPort == CtrlPort && t.dg.IP.Dst == t.p.Self.IP {
		t.onCtrl(frame)
		return
	}
	if rpc.DecodeInto(t.dg.Payload, &t.msg) == nil && t.msg.Kind == rpc.KindRequest {
		t.onData()
	}
	t.up.parsed(frame, &t.dg)
}

//lhlint:hotpath
func (t *creditT) onCtrl(frame []byte) {
	if kind, seq, ok := parseCtrl(t.dg.Payload); ok {
		if kind == ctrlRTS {
			t.onRTS(seq)
		} else if kind == ctrlGrant {
			t.onGrant(seq)
		}
	}
	t.p.Pool.Put(frame)
}

// onRTS folds a sender's demand in and re-sends its current grant
// unconditionally: grants are cumulative, so the re-send is an
// idempotent heal for any GRANT lost in the fabric.
//
//lhlint:hotpath
func (t *creditT) onRTS(want uint64) {
	r := t.recvs[t.dg.IP.Src.Uint32()]
	if r == nil {
		r = t.newRecv(&t.dg)
	}
	if want > r.want {
		r.want = want
	}
	t.grantLoop()
	t.sendGrant(r)
	t.armReclaim()
}

// onData meters an arrived request and tops up grants with the freed
// in-flight slot.
//
//lhlint:hotpath
func (t *creditT) onData() {
	r := t.recvs[t.dg.IP.Src.Uint32()]
	if r == nil {
		r = t.newRecv(&t.dg)
	}
	r.recvd++
	if r.want < r.recvd {
		r.want = r.recvd
	}
	t.grantLoop()
	t.armReclaim()
}

func (t *creditT) newRecv(d *wire.Datagram) *creditRecv {
	r := &creditRecv{src: wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: CtrlPort}}
	t.recvs[d.IP.Src.Uint32()] = r
	t.recvList = append(t.recvList, r)
	return r
}

// onGrant raises the destination's credit and releases held frames
// against it.
//
//lhlint:hotpath
func (t *creditT) onGrant(g uint64) {
	cs := t.sends[t.dg.IP.Src.Uint32()]
	if cs == nil {
		return
	}
	if g > cs.granted {
		cs.granted = g
	}
	for cs.held.Len() > 0 && cs.sent < cs.granted+creditW0 {
		cs.sent++
		t.link.Inject(t.side, cs.held.Pop())
	}
}

// outstanding is the receiver's estimate of frames this source has been
// licensed to put in flight that have not arrived.
//
//lhlint:hotpath
func (r *creditRecv) outstanding() uint64 {
	lim := r.granted + creditW0
	if r.want < lim {
		lim = r.want
	}
	if lim <= r.recvd {
		return 0
	}
	return lim - r.recvd
}

// grantLoop hands out credit round-robin across sources while the
// in-flight estimate stays under creditGrantMax, then flushes one GRANT
// per source whose credit moved. Iteration is over recvList (first-seen
// order) with a persistent cursor — deterministic and starvation-free.
//
//lhlint:hotpath
func (t *creditT) grantLoop() {
	est := uint64(0)
	for _, r := range t.recvList {
		est += r.outstanding()
	}
	n := len(t.recvList)
	for est < creditGrantMax {
		granted := false
		for i := 0; i < n; i++ {
			r := t.recvList[(t.rr+i)%n]
			if r.granted < r.want {
				before := r.outstanding()
				r.granted++
				r.dirty = true
				est += r.outstanding() - before
				t.rr = (t.rr + i + 1) % n
				granted = true
				break
			}
		}
		if !granted {
			break
		}
	}
	for _, r := range t.recvList {
		if r.dirty {
			t.sendGrant(r)
		}
	}
}

func (t *creditT) sendGrant(r *creditRecv) {
	r.dirty = false
	t.st.GrantsSent++
	t.sendCtrl(r.src, ctrlGrant, r.granted)
}

//lhlint:hotpath
func (t *creditT) armReclaim() {
	if t.reclaimArmed {
		return
	}
	t.reclaimArmed = true
	t.p.Sim.After(creditReclaimEvery, "transport-credit-reclaim", t.reclaimFn)
}

// reclaim writes outstanding credit off as lost after a full period
// with no arrivals, so a flap-window loss cannot wedge the grant loop.
func (t *creditT) reclaim() {
	t.reclaimArmed = false
	est, total := uint64(0), uint64(0)
	for _, r := range t.recvList {
		est += r.outstanding()
		total += r.recvd
	}
	if est == 0 {
		return
	}
	if total == t.lastProgress {
		for _, r := range t.recvList {
			if o := r.outstanding(); o > 0 {
				t.st.SlotReclaims += o
				r.recvd += o
			}
		}
		t.grantLoop()
	}
	t.lastProgress = total
	t.armReclaim()
}
