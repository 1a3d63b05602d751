// Package rpc implements the RPC message format, service registry, and
// marshalling layer shared by every network stack in the simulation.
//
// The wire format is deliberately simple — a fixed header followed by the
// body — and every stack treats the body as opaque bytes. The software
// codec's CPU cost, which the kernel and bypass stacks pay, is charged as
// a fixed plus a per-byte cost (CostModel), never per parsed field;
// Lauberhorn's NIC-resident decoder parses the same format at no host
// cost. This mirrors the paper's use of hardware RPC deserialization in
// the style of Optimus Prime / Cerebros / ProtoAcc.
//
// Determinism invariants: encoding and decoding are pure functions of
// their byte inputs, and the service registry iterates in registration
// order — nothing here can perturb a replay.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message kinds.
const (
	KindRequest  = 1
	KindResponse = 2
)

// Magic identifies an RPC message; Version is the format revision.
const (
	Magic   = 0x4c48 // "LH"
	Version = 1
)

// HeaderLen is the fixed RPC header size in bytes:
// magic(2) version(1) kind(1) service(4) method(2) flags(2) id(8) status(2)
// bodyLen(2).
const HeaderLen = 24

// Flag bits in the RPC header.
const (
	// FlagCompressed marks the body as compressed; Lauberhorn's decoder
	// pipeline runs its decompression stage only for such messages.
	FlagCompressed = 1 << 0
	// FlagEncrypted marks the body as encrypted.
	FlagEncrypted = 1 << 1
	// FlagOneWay marks a request that expects no response.
	FlagOneWay = 1 << 2
)

// Status codes carried on responses.
const (
	StatusOK           = 0
	StatusNoSuchMethod = 1
	StatusNoSuchSvc    = 2
	StatusError        = 3
	StatusOverloaded   = 4
)

// Errors returned by the codec.
var (
	ErrShort      = errors.New("rpc: message too short")
	ErrBadMagic   = errors.New("rpc: bad magic")
	ErrBadVersion = errors.New("rpc: unsupported version")
	ErrBadKind    = errors.New("rpc: unknown message kind")
	ErrBadBody    = errors.New("rpc: body length mismatch")
)

// Header is the fixed part of every RPC message.
type Header struct {
	Kind    uint8
	Service uint32
	Method  uint16
	Flags   uint16
	ID      uint64
	Status  uint16
	BodyLen uint16
}

// Message is a parsed RPC message; Body aliases the input buffer.
type Message struct {
	Header
	Body []byte
}

// IsRequest reports whether the message is a request.
func (m *Message) IsRequest() bool { return m.Kind == KindRequest }

// Size returns the encoded size of the message in bytes.
func (m *Message) Size() int { return HeaderLen + len(m.Body) }

// String renders a compact diagnostic form.
func (m *Message) String() string {
	k := "resp"
	if m.IsRequest() {
		k = "req"
	}
	return fmt.Sprintf("rpc-%s{svc=%d m=%d id=%d body=%dB}", k, m.Service, m.Method, m.ID, len(m.Body))
}

// Encode serializes hdr+body into a fresh buffer.
func Encode(h Header, body []byte) []byte {
	return AppendMessage(nil, h, body)
}

// AppendMessage serializes hdr+body onto dst and returns the extended
// slice. Stacks that must hold a message's encoding pass a per-component
// scratch buffer so the steady state allocates nothing.
//
//lhlint:hotpath
func AppendMessage(dst []byte, h Header, body []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	PutHeader(dst[off:], h, len(body))
	return append(dst, body...)
}

// PutHeader encodes the header of a message with a bodyLen-byte body
// into b[:HeaderLen]; h.BodyLen is ignored. Hot paths that frame a
// message in one pass (the generators, the Lauberhorn NIC) encode the
// header into a stack array and hand it and the body to the frame build
// as separate pieces, so the body is copied once, straight into the frame.
//
//lhlint:hotpath
func PutHeader(b []byte, h Header, bodyLen int) {
	if bodyLen > 0xffff {
		panicBodyTooLarge(bodyLen)
	}
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2] = Version
	b[3] = h.Kind
	binary.BigEndian.PutUint32(b[4:8], h.Service)
	binary.BigEndian.PutUint16(b[8:10], h.Method)
	binary.BigEndian.PutUint16(b[10:12], h.Flags)
	binary.BigEndian.PutUint64(b[12:20], h.ID)
	binary.BigEndian.PutUint16(b[20:22], h.Status)
	binary.BigEndian.PutUint16(b[22:24], uint16(bodyLen))
}

// panicBodyTooLarge keeps the fmt boxing of the oversize panic off
// PutHeader's hot path; it never returns.
func panicBodyTooLarge(n int) {
	panic(fmt.Sprintf("rpc: body too large: %d", n))
}

// EncodeRequest builds a request message.
func EncodeRequest(service uint32, method uint16, id uint64, flags uint16, body []byte) []byte {
	return Encode(Header{Kind: KindRequest, Service: service, Method: method, ID: id, Flags: flags}, body)
}

// EncodeResponse builds a response message.
func EncodeResponse(service uint32, method uint16, id uint64, status uint16, body []byte) []byte {
	return Encode(Header{Kind: KindResponse, Service: service, Method: method, ID: id, Status: status}, body)
}

// Decode parses an RPC message. The returned body aliases b.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses an RPC message into m, which the caller owns
// (typically a reusable staging slot, so steady-state receive paths
// allocate nothing). The body aliases b.
//
//lhlint:hotpath
func DecodeInto(b []byte, m *Message) error {
	if len(b) < HeaderLen {
		return ErrShort
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return ErrBadMagic
	}
	if b[2] != Version {
		return ErrBadVersion
	}
	m.Kind = b[3]
	if m.Kind != KindRequest && m.Kind != KindResponse {
		return ErrBadKind
	}
	m.Service = binary.BigEndian.Uint32(b[4:8])
	m.Method = binary.BigEndian.Uint16(b[8:10])
	m.Flags = binary.BigEndian.Uint16(b[10:12])
	m.ID = binary.BigEndian.Uint64(b[12:20])
	m.Status = binary.BigEndian.Uint16(b[20:22])
	m.BodyLen = binary.BigEndian.Uint16(b[22:24])
	if int(m.BodyLen) != len(b)-HeaderLen {
		// Tolerate trailing padding (Ethernet minimum frame) but not
		// truncation.
		if int(m.BodyLen) > len(b)-HeaderLen {
			return ErrBadBody
		}
	}
	m.Body = b[HeaderLen : HeaderLen+int(m.BodyLen)]
	return nil
}
