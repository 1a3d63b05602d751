package core

import (
	"encoding/binary"
	"fmt"

	"lauberhorn/internal/cpu"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/mesi"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// This file implements outbound RPC through Lauberhorn: the transmit-path
// twin of the Fig. 4 receive protocol, and the §6 "dedicated end-point for
// an RPC reply" that makes nested RPCs cheap.
//
// A client channel is a pair of NIC-homed control lines owned by one core.
// To issue a call, the CPU stores the request (destination, method, args)
// into one line and loads the other; the NIC sees the load, fetches the
// request line exclusive, transmits the request frame, and defers the load
// until the response arrives — whereupon the stalled load returns the
// response body directly. TryAgain dummies bound the stall as on the
// receive path.

// clientCall tracks one outbound RPC between transmit and response.
type clientCall struct {
	serial uint64
	chanID uint32
	status uint16
	body   []byte
	done   bool // response received
}

// clientChanNIC is the NIC-side state of a client channel.
type clientChanNIC struct {
	id     uint32
	coreID int
	// outstanding is the in-flight call, nil between calls.
	outstanding *clientCall
}

// parseClientRespLine decodes a client-channel answer line. ok is false
// for non-response markers (e.g. TryAgain).
func parseClientRespLine(l []byte) (parsedResponse, bool) {
	if len(l) < respHeaderLen || l[0] != MarkerClientResp {
		return parsedResponse{}, false
	}
	p := parsedResponse{
		Status:  binary.BigEndian.Uint16(l[1:3]),
		BodyLen: int(binary.BigEndian.Uint16(l[3:5])),
		Serial:  binary.BigEndian.Uint64(l[5:13]),
	}
	n := p.BodyLen
	if max := len(l) - respHeaderLen; n > max {
		n = max
	}
	p.Inline = l[respHeaderLen : respHeaderLen+n]
	return p, true
}

// OpenClientChannel allocates a client channel for a core and returns its
// ID. The OS does this once per (process, core) that issues outbound RPCs.
func (n *NIC) OpenClientChannel(coreID int) uint32 {
	n.nextChanID++
	id := n.nextChanID
	n.clientChans[id] = &clientChanNIC{id: id, coreID: coreID}
	return id
}

// clientReadLine handles a CPU load on a client-channel line: transmit
// the paired request if one is staged, then answer with the response or
// defer.
func (n *NIC) clientReadLine(addr mesi.LineAddr, chanID uint32, coreID, idx int, respond func([]byte)) {
	ch := n.clientChans[chanID]
	if ch == nil {
		respond(markerLine(nil, n.lineSize(), MarkerTryAgain))
		return
	}
	pair := clientCtrl(chanID, coreID, 1-idx)
	if _, staged := n.clientStaged[pair]; staged {
		delete(n.clientStaged, pair)
		n.dir.Recall(pair, func(data []byte) {
			req, ok := parseClientReqLine(data)
			if !ok {
				// The CPU never finished writing the request; answer
				// TryAgain so the core can recover.
				respond(markerLine(nil, n.lineSize(), MarkerTryAgain))
				return
			}
			n.transmitClientReq(ch, req)
			n.answerClientLoad(addr, ch, coreID, respond)
		})
		return
	}
	n.answerClientLoad(addr, ch, coreID, respond)
}

// answerClientLoad completes a client-channel load from a buffered
// response, or defers it.
func (n *NIC) answerClientLoad(addr mesi.LineAddr, ch *clientChanNIC, coreID int, respond func([]byte)) {
	if c := ch.outstanding; c != nil && c.done {
		ch.outstanding = nil
		line, inline := clientRespLine(n.lineSize(), c.status, c.serial, c.body)
		if inline < len(c.body) {
			n.clientAuxIn[c.serial] = c.body[inline:]
		}
		n.stats.ClientResps++
		respond(line)
		return
	}
	n.defer_(addr, coreID, 0, false, respond)
}

// transmitClientReq builds and sends an outbound request frame.
func (n *NIC) transmitClientReq(ch *clientChanNIC, req parsedClientReq) {
	inline, aux := clipBody(req.Inline, n.clientAuxOut[req.Serial], req.BodyLen)
	delete(n.clientAuxOut, req.Serial)
	call := &clientCall{serial: req.Serial, chanID: ch.id}
	ch.outstanding = call
	n.clientCalls[req.Serial] = call
	n.stats.ClientReqs++
	dst := wire.Endpoint{MAC: n.resolve(req.DstIP), IP: req.DstIP, Port: req.DstPort}
	n.txRPC(dst, rpc.Header{Kind: rpc.KindRequest, Service: req.Svc, Method: req.Method, ID: req.Serial}, inline, aux)
}

// AddARP installs a static IP→MAC mapping for outbound calls (the control
// plane would normally resolve this). It takes precedence over the
// cluster's shared table.
func (n *NIC) AddARP(ip wire.IP, mac wire.MAC) {
	if n.arp == nil {
		n.arp = make(map[wire.IP]wire.MAC)
	}
	n.arp[ip] = mac
}

// resolve maps an outbound call's destination IP to a MAC: AddARP's
// entries first, then the cluster's shared table for any host but this
// one, else broadcast.
func (n *NIC) resolve(ip wire.IP) wire.MAC {
	if mac, ok := n.arp[ip]; ok {
		return mac
	}
	if mac, ok := n.peerARP[ip]; ok && ip != n.cfg.Local.IP {
		return mac
	}
	return wire.BroadcastMAC
}

// deliverClientResponse routes an inbound RPC response to its waiting
// client channel.
func (n *NIC) deliverClientResponse(msg *rpc.Message) {
	call, ok := n.clientCalls[msg.ID]
	if !ok {
		n.stats.RxBad++
		return
	}
	delete(n.clientCalls, msg.ID)
	call.status = msg.Status
	call.body = append([]byte(nil), msg.Body...)
	call.done = true
	ch := n.clientChans[call.chanID]
	// If the core is already stalled on the channel, answer now.
	if p := n.pendingOn(ch.coreID); p != nil {
		region, chID, _, _ := splitAddr(p.addr)
		if region == regionClient && chID == ch.id {
			n.removePending(p)
			n.answerClientLoad(p.addr, ch, ch.coreID, p.respond)
		}
	}
}

// ClientAuxIn returns response-body bytes beyond the inline chunk for a
// completed call.
func (n *NIC) ClientAuxIn(serial uint64) []byte {
	b := n.clientAuxIn[serial]
	delete(n.clientAuxIn, serial)
	return b
}

// WriteClientAux stages request-body bytes beyond the inline chunk (the
// CPU's stores to the channel's aux lines).
func (n *NIC) WriteClientAux(serial uint64, rest []byte) {
	cp := make([]byte, len(rest))
	copy(cp, rest)
	n.clientAuxOut[serial] = cp
}

// markStaged records that the CPU wrote a request into a client line; the
// NIC transmits it when the paired line is loaded.
func (n *NIC) markStaged(addr mesi.LineAddr) { n.clientStaged[addr] = struct{}{} }

// ---- host side ----

// ClientChan is the host handle for a client channel.
type ClientChan struct {
	id     uint32
	coreID int
	cur    int
	serial uint64
}

// OpenClientChan allocates a client channel bound to a core.
func (h *Host) OpenClientChan(coreID int) *ClientChan {
	return &ClientChan{id: h.NIC.OpenClientChannel(coreID), coreID: coreID}
}

// ClientChanFor returns (allocating lazily) the per-core client channel
// async handlers use for nested calls.
func (h *Host) ClientChanFor(coreID int) *ClientChan {
	if h.clientChans[coreID] == nil {
		h.clientChans[coreID] = h.OpenClientChan(coreID)
	}
	return h.clientChans[coreID]
}

// Call issues a synchronous outbound RPC through the channel: store the
// request into one control line, load the other, and stall until the
// response (or retry on TryAgain). then receives the response status and
// body. The calling thread must be running on the channel's core.
func (h *Host) Call(tc *kernel.TC, ch *ClientChan, svc uint32, method uint16,
	dst wire.Endpoint, body []byte, then func(status uint16, resp []byte)) {
	if tc.Thread().Core() != ch.coreID {
		panic(fmt.Sprintf("core: Call on core %d via channel bound to core %d",
			tc.Thread().Core(), ch.coreID))
	}
	h.nextCallSerial++
	serial := h.nextCallSerial
	reqAddr := clientCtrl(ch.id, ch.coreID, ch.cur)
	respAddr := clientCtrl(ch.id, ch.coreID, 1-ch.cur)
	ch.cur = 1 - ch.cur

	line, inline := clientReqLine(h.NIC.lineSize(), svc, method, serial, dst.IP, dst.Port, body)
	var auxCost sim.Time
	if inline < len(body) {
		h.NIC.WriteClientAux(serial, body[inline:])
		auxCost = sim.Time(h.NIC.AuxLines(len(body))) * h.cfg.NIC.Fabric.PerLineStream
	}
	cache := h.caches[ch.coreID]

	var await func()
	await = func() {
		cache.Evict(respAddr, nil)
		var respLine []byte
		tc.StallOn(func(complete func()) {
			cache.Load(respAddr, func(data []byte) { respLine = data; complete() })
		}, func() {
			if pr, ok := parseClientRespLine(respLine); ok {
				respBody := pr.Inline
				var tail sim.Time
				if pr.BodyLen > len(pr.Inline) {
					aux := h.NIC.ClientAuxIn(pr.Serial)
					full := make([]byte, 0, pr.BodyLen)
					full = append(full, pr.Inline...)
					full = append(full, aux...)
					respBody = full
					tail = sim.Time(h.NIC.AuxLines(pr.BodyLen)) * h.cfg.NIC.Fabric.PerLineStream
				}
				finish := func() { then(pr.Status, respBody) }
				if tail > 0 {
					tc.StallOn(func(complete func()) {
						tc.Sim().After(tail, "lh-client-aux", complete)
					}, finish)
				} else {
					finish()
				}
				return
			}
			// TryAgain: re-issue the load (the response is still coming).
			tc.Run(h.cfg.LoopOverhead, cpu.User, await)
		})
	}
	store := func() {
		tc.StallOn(func(complete func()) {
			cache.Store(reqAddr, line, complete)
		}, func() {
			h.NIC.markStaged(reqAddr)
			tc.Run(h.cfg.LoopOverhead, cpu.User, await)
		})
	}
	if auxCost > 0 {
		tc.Run(auxCost, cpu.User, store)
	} else {
		store()
	}
}
