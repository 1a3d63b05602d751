package transport

import (
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Retry scheme: the requester arms a per-request retransmit timer with
// exponential backoff and a bounded retransmit budget; the responder
// suppresses duplicates (dropping retransmits of requests still in
// service) and replays cached responses for requests it already
// answered, so a retransmit never re-executes the service.
const (
	// retryRTO is the initial retransmit timeout. Doubles per attempt.
	retryRTO = sim.Millisecond
	// retryBackoff is the per-attempt RTO multiplier.
	retryBackoff = 2
	// retryMaxRetransmits bounds retransmits per request; after the
	// budget the request is abandoned (counted as a GiveUp).
	retryMaxRetransmits = 4
	// retryDoneCap bounds the responder's answered-request cache; the
	// oldest entries are evicted FIFO.
	retryDoneCap = 4096
)

func init() {
	Register(Entry{Kind: Retry, Name: "retry", Label: "Retry (timeout/rtx)", New: newRetry})
}

// retryDup is the responder-side lifecycle of one request key.
type retryDup uint8

const (
	dupInService retryDup = 1 + iota // delivered to the service, response not yet seen
	dupDone                          // response observed and cached
)

type retryT struct {
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

	// requester state: pending requests by RPC ID (IDs are unique per
	// machine — each generator mints its own sequence).
	pend     map[uint64]*retryPend
	pendFree []*retryPend
	// kept is a private free list for the copies the transport keeps
	// rather than sends: retransmit masters and cached responses. They
	// stay out of the Sim's pool, where a cached response would hold a
	// popped buffer of any size for up to retryDoneCap responses.
	kept wire.FramePool

	// responder state: request lifecycle and cached responses, with a
	// FIFO bounding the done set.
	seen  map[reqKey]retryDup
	cache map[reqKey][]byte
	done  fifo.Queue[reqKey]
}

// retryPend is one tracked outbound request: a master copy of the frame
// for retransmission (from retryT.kept, put back when the request
// completes or gives up) plus its timer, pooled with a prebound
// callback.
type retryPend struct {
	t      *retryT
	id     uint64
	master []byte
	tries  int
	rto    sim.Time
	ev     *sim.Event
	fire   func()
}

func newRetry(p Params) Instance {
	return &retryT{
		p:     p,
		pend:  make(map[uint64]*retryPend),
		seen:  make(map[reqKey]retryDup),
		cache: make(map[reqKey][]byte),
	}
}

func (t *retryT) WrapPort(inner fabric.FramePort) fabric.FramePort {
	t.up = newUpPort(inner)
	return t
}

func (t *retryT) BindLink(l *fabric.Link, side int) {
	t.link = l
	t.side = side
	l.SetTap(side, t.onTx)
}

func (t *retryT) Stats() Stats { return t.st }

// onTx is the transmit tap: record outbound requests for retransmit,
// cache outbound responses for replay. Frames always pass through.
//
//lhlint:hotpath
func (t *retryT) onTx(frame []byte) bool {
	if wire.ParseUDPInto(frame, &t.txDg) != nil || rpc.DecodeInto(t.txDg.Payload, &t.msg) != nil {
		return true
	}
	switch t.msg.Kind {
	case rpc.KindRequest:
		t.trackRequest(frame)
	case rpc.KindResponse:
		t.cacheResponse(frame)
	}
	return true
}

// trackRequest arms the retransmit state for a first-send request
// (retransmits re-enter via Inject and never reach the tap).
//
//lhlint:hotpath
func (t *retryT) trackRequest(frame []byte) {
	id := t.msg.ID
	if _, dup := t.pend[id]; dup {
		return
	}
	pr := t.getPend()
	pr.id = id
	pr.master = t.kept.Copy(frame)
	pr.tries = 0
	pr.rto = retryRTO
	pr.ev = t.p.Sim.After(pr.rto, "transport-retry-rto", pr.fire)
	t.pend[id] = pr
}

//lhlint:hotpath
func (t *retryT) getPend() *retryPend {
	if last := len(t.pendFree) - 1; last >= 0 {
		pr := t.pendFree[last]
		t.pendFree[last] = nil
		t.pendFree = t.pendFree[:last]
		return pr
	}
	return t.newPend()
}

func (t *retryT) newPend() *retryPend {
	pr := &retryPend{t: t}
	pr.fire = pr.timeout
	return pr
}

//lhlint:hotpath
func (t *retryT) putPend(pr *retryPend) {
	if pr.master != nil {
		t.kept.Put(pr.master)
		pr.master = nil
	}
	pr.ev = nil
	t.pendFree = append(t.pendFree, pr)
}

// timeout fires when a request's RTO expires with no response:
// retransmit a pooled copy of the master frame (donated to the wire via
// Inject) and back off, or give up once the budget is spent.
//
//lhlint:hotpath
func (pr *retryPend) timeout() {
	t := pr.t
	if pr.tries >= retryMaxRetransmits {
		t.st.GiveUps++
		delete(t.pend, pr.id)
		t.putPend(pr)
		return
	}
	pr.tries++
	t.st.Retransmits++
	t.link.Inject(t.side, t.p.Pool.Copy(pr.master))
	pr.rto *= retryBackoff
	pr.ev = t.p.Sim.After(pr.rto, "transport-retry-rto", pr.fire)
}

// DeliverFrame is the receive interposer: responses complete pending
// requests; inbound requests pass the duplicate filter.
//
//lhlint:hotpath
func (t *retryT) DeliverFrame(frame []byte) {
	if wire.ParseUDPInto(frame, &t.dg) != nil {
		t.up.unparsed(frame)
		return
	}
	if rpc.DecodeInto(t.dg.Payload, &t.msg) == nil {
		switch t.msg.Kind {
		case rpc.KindResponse:
			t.completeRequest()
		case rpc.KindRequest:
			if !t.filterDup(frame) {
				return
			}
		}
	}
	t.up.parsed(frame, &t.dg)
}

//lhlint:hotpath
func (t *retryT) completeRequest() {
	pr, ok := t.pend[t.msg.ID]
	if !ok {
		return
	}
	t.p.Sim.Cancel(pr.ev)
	delete(t.pend, pr.id)
	t.putPend(pr)
}

// filterDup reports whether an inbound request should reach the
// service. Duplicates of in-service requests are suppressed; duplicates
// of answered requests are replayed from the cache.
//
//lhlint:hotpath
func (t *retryT) filterDup(frame []byte) bool {
	k := reqKey{ip: t.dg.IP.Src.Uint32(), port: t.dg.UDP.SrcPort, id: t.msg.ID}
	switch t.seen[k] {
	case dupInService:
		t.st.DupsSuppressed++
		t.p.Pool.Put(frame)
		return false
	case dupDone:
		t.st.Replays++
		t.link.Inject(t.side, t.p.Pool.Copy(t.cache[k]))
		t.p.Pool.Put(frame)
		return false
	}
	t.seen[k] = dupInService
	return true
}

// cacheResponse moves a request to the done state as its response
// leaves, keeping a replay copy. Responses the NIC refuses to transmit
// (downed access link) never reach the tap and leave the request
// in-service; experiments only fault fabric-interior links, where the
// tap always observes the response first.
//
//lhlint:hotpath
func (t *retryT) cacheResponse(frame []byte) {
	k := reqKey{ip: t.txDg.IP.Dst.Uint32(), port: t.txDg.UDP.DstPort, id: t.msg.ID}
	if t.seen[k] != dupInService {
		return
	}
	t.seen[k] = dupDone
	t.cache[k] = t.kept.Copy(frame)
	t.done.Push(k)
	if t.done.Len() > retryDoneCap {
		t.evictDone(t.done.Pop())
	}
}

// evictDone retires a done entry: its cached response and its
// lifecycle state.
func (t *retryT) evictDone(k reqKey) {
	if buf, ok := t.cache[k]; ok {
		t.kept.Put(buf)
		delete(t.cache, k)
	}
	delete(t.seen, k)
}
