package wire

import "encoding/binary"

// ECN signalling lives in the IPv4 TOS byte. The fabric sets the CE
// codepoint (both ECN bits) on frames that waited longer than a link's
// ECNThreshold in a transmit queue; receivers that run an ECN-aware
// transport echo the observation back to the sender by setting the
// EchoCE bit on the response frame. Both mutations are in-place on a
// built frame, with the IP header checksum patched incrementally
// (RFC 1624) — the UDP checksum covers only the pseudo-header and the
// segment, never TOS, so it stays valid.
const (
	// TOSCE is the ECN Congestion Experienced codepoint in the low two
	// bits of TOS.
	TOSCE uint8 = 0x03
	// TOSEchoCE is the DSCP bit transports set on a response to tell the
	// request's sender its data crossed a congested queue (the analogue
	// of TCP's ECE flag — there is no transport header on the wire to
	// carry it, so it rides in TOS).
	TOSEchoCE uint8 = 0x04
)

// IsCE reports whether a parsed TOS byte carries the CE codepoint.
func IsCE(tos uint8) bool { return tos&TOSCE == TOSCE }

// IsEchoCE reports whether a parsed TOS byte carries the echo bit.
func IsEchoCE(tos uint8) bool { return tos&TOSEchoCE != 0 }

// MarkCE sets the CE codepoint on a built IPv4 frame in place, patching
// the IP header checksum. It reports whether the frame was an IPv4 frame
// it could mark (already-marked frames report true).
//
//lhlint:hotpath
func MarkCE(frame []byte) bool { return orTOS(frame, TOSCE) }

// MarkEchoCE sets the echo bit on a built IPv4 frame in place, patching
// the IP header checksum.
//
//lhlint:hotpath
func MarkEchoCE(frame []byte) bool { return orTOS(frame, TOSEchoCE) }

// orTOS ORs bits into the TOS byte of a built frame and incrementally
// patches the IP header checksum per RFC 1624 (HC' = ~(~HC + ~m + m')),
// so parsers keep validating the header without a full recompute.
//
//lhlint:hotpath
func orTOS(frame []byte, bits uint8) bool {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return false
	}
	ip := frame[EthernetHeaderLen:]
	if ip[0] != 0x45 {
		return false
	}
	m := binary.BigEndian.Uint16(ip[0:2]) // word 0: version/IHL, TOS
	m1 := m | uint16(bits)
	if m1 == m {
		return true
	}
	binary.BigEndian.PutUint16(ip[0:2], m1)
	hc := binary.BigEndian.Uint16(ip[10:12])
	binary.BigEndian.PutUint16(ip[10:12], ^fold(uint64(^hc)+uint64(^m)+uint64(m1)))
	return true
}
