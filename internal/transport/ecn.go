package transport

import (
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// ECN scheme: fabric links CE-mark frames whose transmit backlog
// crosses NetParams.ECNThreshold; responders echo a request's CE mark
// onto the matching response; requesters run a DCTCP-style controller
// per destination — an EWMA of the marked fraction drives a
// proportional multiplicative window cut, unmarked windows recover
// additively. Frames beyond the window are held at the sender and
// released as responses drain the window.
const (
	// ecnG is the DCTCP EWMA gain for the marked-fraction estimate.
	ecnG = 1.0 / 16
	// ecnInitWnd is the initial per-destination congestion window, in
	// outstanding requests.
	ecnInitWnd = 8.0
	// ecnMaxWnd caps additive growth.
	ecnMaxWnd = 1024.0
	// ecnReclaimEvery is the loss-recovery cadence: a connection with
	// outstanding requests and no response for a full period treats the
	// window as lost (fully marked) and frees its in-flight slots.
	ecnReclaimEvery = 2 * sim.Millisecond
	// ecnEchoCap bounds the responder's pending-echo set; on overflow
	// the set is cleared (echo signals are advisory, not correctness).
	ecnEchoCap = 1 << 15
)

func init() {
	Register(Entry{Kind: ECN, Name: "ecn", Label: "ECN (DCTCP-style)", New: newECN})
}

type ecnT struct {
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

	// conns is the per-destination controller state, keyed by server IP.
	conns map[uint32]*ecnConn
	// echo is the responder's set of CE-marked requests awaiting their
	// response stamp.
	echo map[reqKey]struct{}
}

// ecnConn is one destination's DCTCP-style controller.
type ecnConn struct {
	t           *ecnT
	wnd         float64 // congestion window, outstanding requests
	alpha       float64 // EWMA of the marked fraction
	inflight    int
	acked       int // responses in the current observation window
	ackedMarked int // of which carried a congestion signal
	wndLen      int // observation window length, fixed at window start
	held        fifo.Queue[[]byte]
	lastRx      sim.Time
	timerArmed  bool
	fire        func()
}

func newECN(p Params) Instance {
	return &ecnT{
		p:     p,
		conns: make(map[uint32]*ecnConn),
		echo:  make(map[reqKey]struct{}),
	}
}

func (t *ecnT) WrapPort(inner fabric.FramePort) fabric.FramePort {
	t.up = newUpPort(inner)
	return t
}

func (t *ecnT) BindLink(l *fabric.Link, side int) {
	t.link = l
	t.side = side
	l.SetTap(side, t.onTx)
}

func (t *ecnT) Stats() Stats { return t.st }

// onTx gates outbound requests on the destination's window and stamps
// the echo bit on responses to CE-marked requests.
//
//lhlint:hotpath
func (t *ecnT) onTx(frame []byte) bool {
	if wire.ParseUDPInto(frame, &t.txDg) != nil || rpc.DecodeInto(t.txDg.Payload, &t.msg) != nil {
		return true
	}
	switch t.msg.Kind {
	case rpc.KindRequest:
		return t.admit(frame)
	case rpc.KindResponse:
		t.stampEcho(frame)
	}
	return true
}

//lhlint:hotpath
func (t *ecnT) admit(frame []byte) bool {
	c := t.conns[t.txDg.IP.Dst.Uint32()]
	if c == nil {
		c = t.newConn(t.txDg.IP.Dst.Uint32())
	}
	if c.held.Len() == 0 && c.inflight < int(c.wnd) {
		c.inflight++
		c.armTimer()
		return true
	}
	c.held.Push(frame)
	t.st.HeldFrames++
	c.armTimer()
	return false
}

func (t *ecnT) newConn(dst uint32) *ecnConn {
	c := &ecnConn{t: t, wnd: ecnInitWnd, wndLen: int(ecnInitWnd)}
	c.fire = c.reclaim
	t.conns[dst] = c
	return c
}

//lhlint:hotpath
func (c *ecnConn) armTimer() {
	if c.timerArmed {
		return
	}
	c.timerArmed = true
	c.t.p.Sim.After(ecnReclaimEvery, "transport-ecn-reclaim", c.fire)
}

// reclaim is the loss-recovery timer: with responses stalled for a full
// period, the outstanding window is presumed lost — free the slots,
// update alpha as a fully-marked window, and cut.
func (c *ecnConn) reclaim() {
	c.timerArmed = false
	t := c.t
	if c.inflight > 0 && t.p.Sim.Now()-c.lastRx >= ecnReclaimEvery {
		t.st.SlotReclaims += uint64(c.inflight)
		c.inflight = 0
		c.alpha = (1-ecnG)*c.alpha + ecnG
		c.cut()
		c.acked, c.ackedMarked = 0, 0
		c.resetWndLen()
	}
	c.release()
	if c.inflight > 0 || c.held.Len() > 0 {
		c.armTimer()
	}
}

func (c *ecnConn) cut() {
	c.wnd *= 1 - c.alpha/2
	if c.wnd < 1 {
		c.wnd = 1
	}
	c.t.st.WindowCuts++
}

//lhlint:hotpath
func (c *ecnConn) resetWndLen() {
	n := int(c.wnd)
	if n < 1 {
		n = 1
	}
	c.wndLen = n
}

// release injects held frames while window space is available.
//
//lhlint:hotpath
func (c *ecnConn) release() {
	for c.held.Len() > 0 && c.inflight < int(c.wnd) {
		c.inflight++
		c.t.link.Inject(c.t.side, c.held.Pop())
	}
}

// DeliverFrame observes congestion signals on the receive path: CE
// marks on inbound requests feed the echo set (responder role), and
// responses drive the destination controller (requester role). Every
// frame passes through to the wrapped port.
//
//lhlint:hotpath
func (t *ecnT) DeliverFrame(frame []byte) {
	if wire.ParseUDPInto(frame, &t.dg) != nil {
		t.up.unparsed(frame)
		return
	}
	if rpc.DecodeInto(t.dg.Payload, &t.msg) == nil {
		switch t.msg.Kind {
		case rpc.KindRequest:
			t.noteRequest()
		case rpc.KindResponse:
			t.onResponse()
		}
	}
	t.up.parsed(frame, &t.dg)
}

//lhlint:hotpath
func (t *ecnT) noteRequest() {
	if !wire.IsCE(t.dg.IP.TOS) {
		return
	}
	if len(t.echo) >= ecnEchoCap {
		clear(t.echo)
	}
	t.echo[reqKey{ip: t.dg.IP.Src.Uint32(), port: t.dg.UDP.SrcPort, id: t.msg.ID}] = struct{}{}
}

// stampEcho marks an outbound response with the echo bit when its
// request arrived CE-marked. In-place: the frame is not yet on the wire.
//
//lhlint:hotpath
func (t *ecnT) stampEcho(frame []byte) {
	k := reqKey{ip: t.txDg.IP.Dst.Uint32(), port: t.txDg.UDP.DstPort, id: t.msg.ID}
	if _, ok := t.echo[k]; !ok {
		return
	}
	delete(t.echo, k)
	if wire.MarkEchoCE(frame) {
		t.st.EchoesSent++
	}
}

//lhlint:hotpath
func (t *ecnT) onResponse() {
	c := t.conns[t.dg.IP.Src.Uint32()]
	if c == nil {
		return
	}
	c.lastRx = t.p.Sim.Now()
	if c.inflight > 0 {
		c.inflight--
	}
	c.acked++
	if wire.IsCE(t.dg.IP.TOS) || wire.IsEchoCE(t.dg.IP.TOS) {
		c.ackedMarked++
		t.st.MarksSeen++
	}
	if c.acked >= c.wndLen {
		c.endWindow()
	}
	c.release()
}

// endWindow closes a DCTCP observation window: fold the marked fraction
// into alpha, cut on any mark, otherwise grow additively.
//
//lhlint:hotpath
func (c *ecnConn) endWindow() {
	f := float64(c.ackedMarked) / float64(c.acked)
	c.alpha = (1-ecnG)*c.alpha + ecnG*f
	if c.ackedMarked > 0 {
		c.cut()
	} else {
		c.wnd++
		if c.wnd > ecnMaxWnd {
			c.wnd = ecnMaxWnd
		}
	}
	c.acked, c.ackedMarked = 0, 0
	c.resetWndLen()
}
