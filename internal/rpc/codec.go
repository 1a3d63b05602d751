// Package rpc implements the RPC message format, service registry, and
// marshalling layer shared by every network stack in the simulation.
//
// The wire format is deliberately simple — a fixed header followed by
// varint-length-prefixed argument fields — so that both a software codec
// (whose per-byte CPU cost the kernel and bypass stacks pay) and
// Lauberhorn's NIC-resident decoder (whose cost the host does not pay) can
// parse it. This mirrors the paper's use of hardware RPC deserialization in
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

// ArgWriter encodes a sequence of typed argument fields into a body.
// Fields are varint-length-delimited so the decoder can skip unknown data.
type ArgWriter struct {
	buf []byte
}

// NewArgWriter returns a writer with the given initial capacity.
func NewArgWriter(capacity int) *ArgWriter {
	return &ArgWriter{buf: make([]byte, 0, capacity)}
}

// PutUint64 appends an unsigned integer field.
func (w *ArgWriter) PutUint64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// PutInt64 appends a signed integer field (zigzag).
func (w *ArgWriter) PutInt64(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// PutBytes appends a length-prefixed byte field.
func (w *ArgWriter) PutBytes(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// PutString appends a length-prefixed string field.
func (w *ArgWriter) PutString(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes returns the encoded body.
func (w *ArgWriter) Bytes() []byte { return w.buf }

// Len returns the encoded size so far.
func (w *ArgWriter) Len() int { return len(w.buf) }

// ArgReader decodes fields written by ArgWriter.
type ArgReader struct {
	buf []byte
	off int
	err error
}

// NewArgReader wraps a body for reading.
func NewArgReader(b []byte) *ArgReader { return &ArgReader{buf: b} }

// Err returns the first decoding error, if any.
func (r *ArgReader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *ArgReader) Remaining() int { return len(r.buf) - r.off }

func (r *ArgReader) fail() {
	if r.err == nil {
		r.err = ErrShort
	}
}

// Uint64 reads an unsigned integer field.
func (r *ArgReader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Int64 reads a signed integer field.
func (r *ArgReader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte field (aliasing the body).
func (r *ArgReader) Bytes() []byte {
	n := r.Uint64()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string field.
func (r *ArgReader) String() string { return string(r.Bytes()) }
