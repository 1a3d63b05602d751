package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

var (
	srcEP = Endpoint{MAC: MAC{2, 0, 0, 0, 0, 1}, IP: IP{10, 0, 0, 1}, Port: 4000}
	dstEP = Endpoint{MAC: MAC{2, 0, 0, 0, 0, 2}, IP: IP{10, 0, 0, 2}, Port: 9000}
)

func TestBuildParseRoundTrip(t *testing.T) {
	payload := []byte("hello lauberhorn")
	f, err := BuildUDP(srcEP, dstEP, 77, payload)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatalf("payload mismatch: %q", d.Payload)
	}
	if d.Eth.Src != srcEP.MAC || d.Eth.Dst != dstEP.MAC {
		t.Error("MAC mismatch")
	}
	if d.IP.Src != srcEP.IP || d.IP.Dst != dstEP.IP {
		t.Error("IP mismatch")
	}
	if d.UDP.SrcPort != 4000 || d.UDP.DstPort != 9000 {
		t.Error("port mismatch")
	}
	if d.IP.ID != 77 {
		t.Errorf("IP ID %d, want 77", d.IP.ID)
	}
	if d.IP.TTL != 64 {
		t.Errorf("TTL %d, want 64", d.IP.TTL)
	}
}

func TestBuildPadsToMinFrame(t *testing.T) {
	f, err := BuildUDP(srcEP, dstEP, 1, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != MinFrameLen {
		t.Fatalf("frame len %d, want %d", len(f), MinFrameLen)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != 1 || d.Payload[0] != 1 {
		t.Fatalf("payload after padding: %v", d.Payload)
	}
}

func TestBuildEmptyPayload(t *testing.T) {
	f, err := BuildUDP(srcEP, dstEP, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != 0 {
		t.Fatalf("payload %v, want empty", d.Payload)
	}
}

func TestBuildMaxPayload(t *testing.T) {
	big := make([]byte, MaxUDPPayload)
	for i := range big {
		big[i] = byte(i)
	}
	f, err := BuildUDP(srcEP, dstEP, 1, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != MaxFrameLen {
		t.Fatalf("frame len %d, want %d", len(f), MaxFrameLen)
	}
	d, err := ParseUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, big) {
		t.Fatal("max payload mismatch")
	}
}

func TestBuildTooBig(t *testing.T) {
	_, err := BuildUDP(srcEP, dstEP, 1, make([]byte, MaxUDPPayload+1))
	if !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("err = %v, want ErrPayloadTooBig", err)
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := ParseUDP(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestParseNotIPv4(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	binary.BigEndian.PutUint16(f[12:14], EtherTypeARP)
	if _, err := ParseUDP(f); !errors.Is(err, ErrNotIPv4) {
		t.Fatalf("err = %v, want ErrNotIPv4", err)
	}
}

func TestParseNotUDP(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	ip := f[EthernetHeaderLen:]
	ip[9] = 6 // TCP
	// fix IP checksum
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	if _, err := ParseUDP(f); !errors.Is(err, ErrNotUDP) {
		t.Fatalf("err = %v, want ErrNotUDP", err)
	}
}

func TestParseCorruptIPChecksum(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	f[EthernetHeaderLen+12] ^= 0xff // flip a src IP byte
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestParseCorruptPayload(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("hello"))
	f[HeadersLen] ^= 0x01
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum (UDP)", err)
	}
}

func TestParseBadVersion(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("x"))
	f[EthernetHeaderLen] = 0x46 // IHL 6
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseBadLength(t *testing.T) {
	f, _ := BuildUDP(srcEP, dstEP, 1, []byte("abcdef"))
	ip := f[EthernetHeaderLen:]
	binary.BigEndian.PutUint16(ip[2:4], uint16(len(ip))+100)
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	if _, err := ParseUDP(f); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd length.
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Fatalf("odd-length checksum = %#04x", got)
	}
}

func TestFlowHashAndReverse(t *testing.T) {
	fl := Flow{SrcIP: IP{10, 0, 0, 1}, DstIP: IP{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}
	rev := fl.Reverse()
	if rev.SrcIP != fl.DstIP || rev.SrcPort != fl.DstPort {
		t.Fatal("Reverse wrong")
	}
	if rev.Reverse() != fl {
		t.Fatal("double reverse not identity")
	}
	if fl.Hash() == rev.Hash() {
		t.Log("forward and reverse hash equal (allowed but unlikely)")
	}
	other := fl
	other.SrcPort = 3
	if fl.Hash() == other.Hash() {
		t.Error("different flows hash equal")
	}
}

func TestStringFormats(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String = %q", m.String())
	}
	ip := IP{192, 168, 1, 9}
	if ip.String() != "192.168.1.9" {
		t.Errorf("IP.String = %q", ip.String())
	}
	fl := Flow{SrcIP: ip, DstIP: IP{10, 0, 0, 1}, SrcPort: 5, DstPort: 6}
	if !strings.Contains(fl.String(), "->") {
		t.Errorf("Flow.String = %q", fl.String())
	}
}

func TestIPUint32RoundTrip(t *testing.T) {
	ip := IP{1, 2, 3, 4}
	if IPFromUint32(ip.Uint32()) != ip {
		t.Fatal("IP uint32 round trip failed")
	}
	if ip.Uint32() != 0x01020304 {
		t.Fatalf("Uint32 = %#x", ip.Uint32())
	}
}

// Property: build→parse round-trips arbitrary payloads and endpoints.
func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sp, dp uint16, id uint16, a, b byte) bool {
		if len(payload) > MaxUDPPayload {
			payload = payload[:MaxUDPPayload]
		}
		src := Endpoint{MAC: MAC{2, 0, 0, 0, 0, a}, IP: IP{10, 0, 0, a}, Port: sp}
		dst := Endpoint{MAC: MAC{2, 0, 0, 0, 0, b}, IP: IP{10, 0, 1, b}, Port: dp}
		frame, err := BuildUDP(src, dst, id, payload)
		if err != nil {
			return false
		}
		d, err := ParseUDP(frame)
		if err != nil {
			return false
		}
		return bytes.Equal(d.Payload, payload) &&
			d.UDP.SrcPort == sp && d.UDP.DstPort == dp &&
			d.Flow.SrcIP == src.IP && d.Flow.DstIP == dst.IP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in the UDP section is detected.
func TestCorruptionDetectedProperty(t *testing.T) {
	f := func(payload []byte, pos uint16, bit uint8) bool {
		if len(payload) == 0 || len(payload) > 256 {
			return true
		}
		frame, err := BuildUDP(srcEP, dstEP, 9, payload)
		if err != nil {
			return false
		}
		// Corrupt within the UDP header+payload region (checksummed).
		off := EthernetHeaderLen + IPv4HeaderLen + int(pos)%(UDPHeaderLen+len(payload))
		frame[off] ^= 1 << (bit % 8)
		_, err = ParseUDP(frame)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refSum is the two-bytes-a-step RFC 1071 loop the package summed with
// before its word-at-a-time core, kept as the exactness reference. It
// adds b's 16-bit words to sum, except the one at byte offset skip (-1
// skips none), and returns the folded, complemented checksum.
func refSum(sum uint32, b []byte, skip int) uint16 {
	i := 0
	for ; i+1 < len(b); i += 2 {
		if i == skip {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if i < len(b) {
		sum += uint32(b[i]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// refUDPSum is refSum over the IPv4 pseudo-header and the UDP segment.
func refUDPSum(src, dst IP, udp []byte, skip int) uint16 {
	pseudo := uint32(binary.BigEndian.Uint16(src[0:2])) +
		uint32(binary.BigEndian.Uint16(src[2:4])) +
		uint32(binary.BigEndian.Uint16(dst[0:2])) +
		uint32(binary.BigEndian.Uint16(dst[2:4])) +
		uint32(ProtoUDP) + uint32(uint16(len(udp)))
	return refSum(pseudo, udp, skip)
}

// checkSums compares Checksum and udpSum, with and without the
// checksum-word skip, against the reference loops on one segment.
func checkSums(t *testing.T, src, dst IP, udp []byte) {
	t.Helper()
	if got, want := Checksum(udp), refSum(0, udp, -1); got != want {
		t.Fatalf("len %d: Checksum = %#04x, reference %#04x", len(udp), got, want)
	}
	if got, want := udpSum(src, dst, udp, false), refUDPSum(src, dst, udp, -1); got != want {
		t.Fatalf("len %d %v->%v: udpSum = %#04x, reference %#04x", len(udp), src, dst, got, want)
	}
	if len(udp) < UDPHeaderLen {
		return
	}
	if got, want := udpSum(src, dst, udp, true), refUDPSum(src, dst, udp, 6); got != want {
		t.Fatalf("len %d %v->%v: udpSum skipping the checksum = %#04x, reference %#04x",
			len(udp), src, dst, got, want)
	}
}

// sumPatterns returns the segment contents the exactness tests use, each
// UDPHeaderLen+MaxUDPPayload long: all 0x00, all 0xff (the most carries)
// and seeded random bytes.
func sumPatterns() [][]byte {
	const n = UDPHeaderLen + MaxUDPPayload
	random := make([]byte, n)
	rand.New(rand.NewSource(1071)).Read(random)
	return [][]byte{make([]byte, n), bytes.Repeat([]byte{0xff}, n), random}
}

// sumIPs are the pseudo-header address pairs: all-zero, all-ones, and an
// ordinary pair.
var sumIPs = [][2]IP{
	{{}, {}},
	{{0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff}},
	{srcEP.IP, dstEP.IP},
}

// TestSumMatchesReference: the word-at-a-time sums equal the reference
// bit for bit, ±0 included, at every segment length up to the MTU.
func TestSumMatchesReference(t *testing.T) {
	for _, pat := range sumPatterns() {
		for n := 0; n <= len(pat); n++ {
			ips := sumIPs[n%len(sumIPs)]
			checkSums(t, ips[0], ips[1], pat[:n])
		}
	}
}

// FuzzUDPSum checks the sums against the reference on arbitrary segments
// and addresses. Its seeds are the exactness test's corner cases, so a
// plain go test replays them.
func FuzzUDPSum(f *testing.F) {
	for _, pat := range sumPatterns() {
		for _, n := range []int{0, 1, 2, 3, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1500, 4104, len(pat)} {
			for _, ips := range sumIPs {
				f.Add(ips[0].Uint32(), ips[1].Uint32(), pat[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, src, dst uint32, udp []byte) {
		checkSums(t, IPFromUint32(src), IPFromUint32(dst), udp)
	})
}

// TestParseUDPIntoZeroAlloc pins the receive path's contract: parsing
// into a caller-owned Datagram allocates nothing.
func TestParseUDPIntoZeroAlloc(t *testing.T) {
	f, err := BuildUDP(srcEP, dstEP, 1, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	var d Datagram
	allocs := testing.AllocsPerRun(1000, func() {
		if err := ParseUDPInto(f, &d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseUDPInto allocates %v per op, want 0", allocs)
	}
}

var checksumSink uint16

func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{64, 1500, 4096, 9000} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(buf)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for b.Loop() {
				checksumSink = Checksum(buf)
			}
		})
	}
}

// BenchmarkParseUDPInto parses a frame carrying a 4096-byte payload,
// verifying both checksums.
func BenchmarkParseUDPInto(b *testing.B) {
	const n = 4096
	f, err := BuildUDP(srcEP, dstEP, 1, make([]byte, n))
	if err != nil {
		b.Fatal(err)
	}
	var d Datagram
	b.SetBytes(int64(len(f)))
	for b.Loop() {
		if err := ParseUDPInto(f, &d); err != nil {
			b.Fatal(err)
		}
	}
}
