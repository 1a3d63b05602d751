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

// sum adds b into the ones'-complement accumulator acc. RFC 1071 defines
// the checksum over big-endian 16-bit words (an odd last byte padded
// with zero); sum reads b little-endian, the machine's native order on
// the amd64 and arm64 hosts the simulator runs on, so each 16-bit lane
// it adds holds one of those words byte-swapped. The sum is independent
// of byte order (RFC 1071 §2(B)): summing swapped words gives the
// swapped sum, so callers swap the folded result once. acc must hold
// swapped words too. b must start at an even offset of the checksummed
// data, so a caller may sum it piecewise as long as only the last piece
// has odd length.
//
// On an amd64 CPU with AVX2, an input of at least avx2MinLen bytes goes
// through sumAVX2 32 bytes a step, in chunks of at most avx2MaxLen; each
// chunk's exact word total is added into acc with the carry brought back
// in (RFC 1071 §2(C): carries into the wide lanes are deferred and added
// once). The tail of under 32 bytes, shorter inputs, other CPUs and other
// architectures take sumWords. Both paths add only non-negative word
// values to acc, so the result is 0 only when acc was 0 and every word of
// b is 0; fold and one swap then give bit for bit what a 16-bit word loop
// gives, ±0 included: the swap maps 0 and 0xffff to themselves.
//
//lhlint:hotpath
func sum(acc uint64, b []byte) uint64 {
	if haveAVX2 && len(b) >= avx2MinLen {
		v := b[:len(b)&^31]
		b = b[len(v):]
		for len(v) > 0 {
			k := min(len(v), avx2MaxLen)
			var c uint64
			acc, c = bits.Add64(acc, sumAVX2(v[:k]), 0)
			// acc+c cannot overflow: after a carry out, acc < 2^64-1.
			acc += c
			v = v[k:]
		}
	}
	return sumWords(acc, b)
}

// avx2MinLen is the shortest input sum hands to sumAVX2. The kernel has a
// fixed cost (the call, the final reduction and VZEROUPPER) that its
// faster steps pay back only over a few hundred bytes: on a 2 GHz Xeon
// the two paths tie at about 256-384 bytes, and at 1 KiB the kernel
// takes half the word loop's time. The threshold sits just above the tie.
const avx2MinLen = 512

// avx2MaxLen is the lane budget: the most bytes one sumAVX2 call may
// take. The kernel adds its accumulators into one set of 32-bit lanes,
// each of which gains at most 0xffff per 16 bytes, so 2^16 such (1 MiB)
// keep every lane below 2^32.
const avx2MaxLen = 16 << 16

// sumWords is sum's portable core. It reads b as little-endian 64-bit
// words and adds them into acc in one carry chain whose carry out of bit
// 63 is added back in (RFC 1071 §2). That is exact because 2^16 ≡ 1
// (mod 0xffff): a 64-bit word is congruent to the sum of its four 16-bit
// lanes, and a carry out of bit 63 is worth 1.
//
//lhlint:hotpath
func sumWords(acc uint64, b []byte) uint64 {
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
// the fabric) until a terminal consumer drops it. It is FramePool.BuildUDP
// with no pool and one piece; the pooled build is the recycling variant
// for paths with a provable terminal consumer.
//
//lhlint:hotpath
func BuildUDP(src, dst Endpoint, ipID uint16, payload []byte) ([]byte, error) {
	return (*FramePool)(nil).BuildUDP(src, dst, ipID, payload)
}

// fillUDP writes the frame into f, which must be exactly paddedLen(n)
// long, where n is the pieces' total length: every header byte, the
// pieces in order as the UDP payload, and zeroed padding. It writes every
// byte of f, so f's prior contents do not matter.
//
//lhlint:hotpath
func fillUDP(f []byte, src, dst Endpoint, ipID uint16, n int, pieces [][]byte) {
	// Ethernet.
	copy(f[0:6], dst.MAC[:])
	copy(f[6:12], src.MAC[:])
	binary.BigEndian.PutUint16(f[12:14], EtherTypeIPv4)

	// IPv4: no TOS or ECN bits, no fragmentation; the checksum field is
	// zero while the header is summed.
	ip := f[EthernetHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPv4HeaderLen+UDPHeaderLen+n))
	binary.BigEndian.PutUint16(ip[4:6], ipID)
	binary.BigEndian.PutUint16(ip[6:8], 0)
	ip[8] = 64 // TTL
	ip[9] = ProtoUDP
	binary.BigEndian.PutUint16(ip[10:12], 0)
	copy(ip[12:16], src.IP[:])
	copy(ip[16:20], dst.IP[:])
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))

	// UDP, with the checksum field zero while the segment is summed.
	udp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], src.Port)
	binary.BigEndian.PutUint16(udp[2:4], dst.Port)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+n))
	binary.BigEndian.PutUint16(udp[6:8], 0)
	off := UDPHeaderLen
	for _, pc := range pieces {
		off += copy(udp[off:], pc)
	}
	clear(udp[off:]) // padding up to MinFrameLen
	binary.BigEndian.PutUint16(udp[6:8], udpChecksum(src.IP, dst.IP, udp[:off]))
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
