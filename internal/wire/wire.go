// Package wire implements the on-the-wire packet formats used throughout
// the simulation: Ethernet II framing, IPv4, and UDP, with real header
// checksums. Packets flow between hosts as genuine byte slices so that both
// NIC models (the traditional DMA NIC and Lauberhorn's decoder pipeline)
// parse exactly what a hardware implementation would.
//
// Determinism invariants: builders, parsers, and the RSS flow hash are
// pure functions of their byte inputs — the same frame always hashes,
// steers, and parses the same way.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Sizes of the fixed headers, in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20 // without options
	UDPHeaderLen      = 8
	HeadersLen        = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen

	// MinFrameLen is the minimum Ethernet payload-carrying frame size
	// (without FCS); shorter frames are padded.
	MinFrameLen = 60
	// MTU is the maximum IP packet size carried in one frame. Datacenter
	// RPC fabrics of the class the paper targets run jumbo frames.
	MTU = 9000
	// MaxFrameLen is the maximum frame size at the jumbo MTU.
	MaxFrameLen = EthernetHeaderLen + MTU
	// MaxUDPPayload is the largest UDP payload in a single frame.
	MaxUDPPayload = MTU - IPv4HeaderLen - UDPHeaderLen
)

// EtherType values understood by the NIC models.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the MAC in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IP is an IPv4 address.
type IP [4]byte

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian integer.
func (ip IP) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IPFromUint32 converts a big-endian integer to an address.
func IPFromUint32(v uint32) IP {
	var ip IP
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// Errors returned by the parsers.
var (
	ErrTruncated     = errors.New("wire: truncated packet")
	ErrNotIPv4       = errors.New("wire: not an IPv4 packet")
	ErrNotUDP        = errors.New("wire: not a UDP datagram")
	ErrBadChecksum   = errors.New("wire: bad checksum")
	ErrBadVersion    = errors.New("wire: bad IP version/IHL")
	ErrBadLength     = errors.New("wire: inconsistent length fields")
	ErrPayloadTooBig = errors.New("wire: payload exceeds MTU")
)

// EthernetHeader is a parsed Ethernet II header.
type EthernetHeader struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// IPv4Header is a parsed IPv4 header (options unsupported — IHL must be 5).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IP
	Dst      IP
}

// UDPHeader is a parsed UDP header.
type UDPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Checksum computes the Internet checksum (RFC 1071) over b.
//
//lhlint:hotpath
func Checksum(b []byte) uint16 {
	return ^bits.ReverseBytes16(fold(sum(0, b)))
}

// sum adds b into the ones'-complement accumulator acc, reading it as
// little-endian 64-bit words: the machine's native order on the amd64
// and arm64 hosts the simulator runs on, so each load is one plain move.
// RFC 1071 defines the checksum over big-endian 16-bit words (an odd
// last byte padded with zero); read little-endian, each 16-bit lane of a
// word holds one of those words byte-swapped. The sum is independent of
// byte order (RFC 1071 §2(B)): summing swapped words gives the swapped
// sum, so callers swap the folded result once. acc must hold swapped
// words too.
//
// The words go into one carry chain whose carry out of bit 63 is added
// back in (RFC 1071 §2). That is exact because 2^16 ≡ 1 (mod 0xffff): a
// 64-bit word is congruent to the sum of its four 16-bit lanes, and a
// carry out of bit 63 is worth 1. b must start at an even offset of the
// checksummed data, so a caller may sum it piecewise as long as only the
// last piece has odd length.
//
// The result is 0 only when acc was 0 and every word of b is 0, so fold
// and one swap give bit for bit what a 16-bit word loop gives, ±0
// included: the swap maps 0 and 0xffff to themselves.
//
//lhlint:hotpath
func sum(acc uint64, b []byte) uint64 {
	var c uint64
	for len(b) >= 64 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[8:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[16:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[24:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[32:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[40:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[48:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[56:]), c)
		b = b[64:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	if len(b) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.LittleEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.LittleEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		// The zero pad byte is the lane's high byte.
		acc, c = bits.Add64(acc, uint64(b[0]), c)
	}
	// Adding the last carry back cannot overflow: an add leaves acc all
	// ones with a carry out only if acc was all ones with a carry in, and
	// the chain starts with none.
	return acc + c
}

// fold reduces a ones'-complement accumulator to 16 bits with
// end-around carries. A nonzero acc never folds to 0.
//
//lhlint:hotpath
func fold(acc uint64) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return uint16(acc)
}

// udpSum computes the RFC 1071 checksum of the IPv4 pseudo-header followed
// by the UDP segment, folding the pseudo-header into the same sum instead
// of materializing it: its words enter acc byte-swapped, as sum reads
// udp's. With skipCksum, the segment's checksum word (bytes 6-7, which
// udp must hold) counts as zero, as verification needs; the segment is
// then summed as udp[:6] and udp[8:], both at even offsets. The
// pseudo-header is an even 12 bytes, so udp's words keep their 2-byte
// alignment and the result matches Checksum over the concatenated
// buffers exactly.
//
//lhlint:hotpath
func udpSum(src, dst IP, udp []byte, skipCksum bool) uint16 {
	acc := uint64(binary.LittleEndian.Uint32(src[:])) + uint64(binary.LittleEndian.Uint32(dst[:])) +
		ProtoUDP<<8 + uint64(bits.ReverseBytes16(uint16(len(udp))))
	if skipCksum {
		acc = sum(acc, udp[:6])
		udp = udp[UDPHeaderLen:]
	}
	return ^bits.ReverseBytes16(fold(sum(acc, udp)))
}

// udpChecksum computes the UDP checksum including the IPv4 pseudo-header.
//
//lhlint:hotpath
func udpChecksum(src, dst IP, udp []byte) uint16 {
	cs := udpSum(src, dst, udp, false)
	if cs == 0 {
		cs = 0xffff // 0 means "no checksum" in UDP
	}
	return cs
}

// Flow identifies a UDP flow endpoint pair; the NICs use it for
// demultiplexing and RSS hashing.
type Flow struct {
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the flow with the direction swapped.
func (f Flow) Reverse() Flow {
	return Flow{SrcIP: f.DstIP, DstIP: f.SrcIP, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// String renders the flow as src -> dst.
func (f Flow) String() string {
	return fmt.Sprintf("%v:%d->%v:%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}

// Hash returns a Toeplitz-flavoured (here: FNV-1a) hash of the flow tuple,
// as used for receive-side scaling.
func (f Flow) Hash() uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime
	}
	for _, b := range f.SrcIP {
		mix(b)
	}
	for _, b := range f.DstIP {
		mix(b)
	}
	mix(byte(f.SrcPort >> 8))
	mix(byte(f.SrcPort))
	mix(byte(f.DstPort >> 8))
	mix(byte(f.DstPort))
	return h
}

// Endpoint is one side of a UDP flow.
type Endpoint struct {
	MAC  MAC
	IP   IP
	Port uint16
}

// BuildUDP assembles a complete Ethernet/IPv4/UDP frame carrying payload
// from src to dst, computing both checksums. The payload must fit the MTU.
// The returned frame is freshly allocated and owned by the caller; it
// outlives the builder (frames sit in NIC rings and propagate through
// the fabric) until a terminal consumer drops it. FramePool.BuildUDP is
// the recycling variant for paths with a provable terminal consumer.
//
//lhlint:hotpath
func BuildUDP(src, dst Endpoint, ipID uint16, payload []byte) ([]byte, error) {
	if len(payload) > MaxUDPPayload {
		return nil, errTooBig(len(payload))
	}
	f := make([]byte, paddedLen(len(payload)))
	fillUDP(f, src, dst, ipID, payload)
	return f, nil
}

// fillUDP writes the frame into f, which must be zeroed and exactly
// paddedLen(len(payload)) long.
//
//lhlint:hotpath
func fillUDP(f []byte, src, dst Endpoint, ipID uint16, payload []byte) {
	// Ethernet.
	copy(f[0:6], dst.MAC[:])
	copy(f[6:12], src.MAC[:])
	binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)

	// IPv4.
	ip := f[EthernetHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	totalLen := IPv4HeaderLen + UDPHeaderLen + len(payload)
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(ip[4:6], ipID)
	ip[8] = 64 // TTL
	ip[9] = ProtoUDP
	copy(ip[12:16], src.IP[:])
	copy(ip[16:20], dst.IP[:])
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))

	// UDP.
	udp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], src.Port)
	binary.BigEndian.PutUint16(udp[2:4], dst.Port)
	udpLen := UDPHeaderLen + len(payload)
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpLen))
	copy(udp[UDPHeaderLen:], payload)
	binary.BigEndian.PutUint16(udp[6:8], udpChecksum(src.IP, dst.IP, udp[:udpLen]))
}

// errTooBig keeps the fmt boxing of the oversize-payload error off
// BuildUDP's hot path.
func errTooBig(n int) error {
	return fmt.Errorf("%w: %d > %d", ErrPayloadTooBig, n, MaxUDPPayload)
}

// Datagram is a fully parsed UDP-in-IPv4-in-Ethernet frame. Payload aliases
// the frame buffer.
type Datagram struct {
	Eth     EthernetHeader
	IP      IPv4Header
	UDP     UDPHeader
	Flow    Flow
	Payload []byte
}

// ParseUDP validates and parses a frame produced by BuildUDP (or any
// compliant stack). It verifies the IP header checksum and, when present,
// the UDP checksum.
func ParseUDP(frame []byte) (*Datagram, error) {
	d := new(Datagram)
	if err := ParseUDPInto(frame, d); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseUDPInto parses frame into d, which the caller owns (typically a
// reusable staging slot, so the steady-state receive path allocates
// nothing). On error d holds whatever fields were decoded before the
// failure. Payload aliases frame either way.
//
//lhlint:hotpath
func ParseUDPInto(frame []byte, d *Datagram) error {
	if len(frame) < HeadersLen {
		return ErrTruncated
	}
	copy(d.Eth.Dst[:], frame[0:6])
	copy(d.Eth.Src[:], frame[6:12])
	d.Eth.EtherType = binary.BigEndian.Uint16(frame[12:14])
	if d.Eth.EtherType != EtherTypeIPv4 {
		return ErrNotIPv4
	}

	ip := frame[EthernetHeaderLen:]
	if ip[0] != 0x45 {
		return ErrBadVersion
	}
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		return ErrBadChecksum
	}
	d.IP.TOS = ip[1]
	d.IP.TotalLen = binary.BigEndian.Uint16(ip[2:4])
	d.IP.ID = binary.BigEndian.Uint16(ip[4:6])
	d.IP.TTL = ip[8]
	d.IP.Protocol = ip[9]
	d.IP.Checksum = binary.BigEndian.Uint16(ip[10:12])
	copy(d.IP.Src[:], ip[12:16])
	copy(d.IP.Dst[:], ip[16:20])
	if d.IP.Protocol != ProtoUDP {
		return ErrNotUDP
	}
	if int(d.IP.TotalLen) < IPv4HeaderLen+UDPHeaderLen || int(d.IP.TotalLen) > len(ip) {
		return ErrBadLength
	}

	udp := ip[IPv4HeaderLen:d.IP.TotalLen]
	d.UDP.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	d.UDP.DstPort = binary.BigEndian.Uint16(udp[2:4])
	d.UDP.Length = binary.BigEndian.Uint16(udp[4:6])
	d.UDP.Checksum = binary.BigEndian.Uint16(udp[6:8])
	if int(d.UDP.Length) != len(udp) {
		return ErrBadLength
	}
	if d.UDP.Checksum != 0 {
		// Verify by summing around the checksum word, so no copy of the
		// segment is needed.
		cs := udpSum(d.IP.Src, d.IP.Dst, udp, true)
		if cs == 0 {
			cs = 0xffff
		}
		if cs != d.UDP.Checksum {
			return ErrBadChecksum
		}
	}
	d.Payload = udp[UDPHeaderLen:]
	d.Flow = Flow{SrcIP: d.IP.Src, DstIP: d.IP.Dst, SrcPort: d.UDP.SrcPort, DstPort: d.UDP.DstPort}
	return nil
}
