package rpc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"lauberhorn/internal/sim"
)

func TestEncodeDecodeRequest(t *testing.T) {
	body := []byte("payload-bytes")
	b := EncodeRequest(7, 3, 99, FlagOneWay, body)
	if len(b) != HeaderLen+len(body) {
		t.Fatalf("encoded len %d", len(b))
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsRequest() || m.Service != 7 || m.Method != 3 || m.ID != 99 {
		t.Fatalf("decoded %+v", m.Header)
	}
	if m.Flags != FlagOneWay {
		t.Errorf("flags %d", m.Flags)
	}
	if !bytes.Equal(m.Body, body) {
		t.Errorf("body %q", m.Body)
	}
	if m.Size() != len(b) {
		t.Errorf("Size %d, want %d", m.Size(), len(b))
	}
}

func TestEncodeDecodeResponse(t *testing.T) {
	b := EncodeResponse(1, 2, 55, StatusOverloaded, nil)
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsRequest() || m.Status != StatusOverloaded || m.ID != 55 {
		t.Fatalf("decoded %+v", m.Header)
	}
	if len(m.Body) != 0 {
		t.Errorf("body %v", m.Body)
	}
}

func TestDecodeTrailingPaddingTolerated(t *testing.T) {
	// Ethernet pads short frames; the decoder must use BodyLen, not len(b).
	b := EncodeRequest(1, 1, 1, 0, []byte("ab"))
	padded := append(b, make([]byte, 20)...)
	m, err := Decode(padded)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Body) != "ab" {
		t.Fatalf("body %q", m.Body)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := EncodeRequest(1, 1, 1, 0, []byte("xyz"))

	short := good[:HeaderLen-1]
	if _, err := Decode(short); !errors.Is(err, ErrShort) {
		t.Errorf("short: %v", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0
	if _, err := Decode(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[2] = 9
	if _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}

	badKind := append([]byte(nil), good...)
	badKind[3] = 9
	if _, err := Decode(badKind); !errors.Is(err, ErrBadKind) {
		t.Errorf("kind: %v", err)
	}

	truncated := good[:len(good)-1]
	if _, err := Decode(truncated); !errors.Is(err, ErrBadBody) {
		t.Errorf("truncated body: %v", err)
	}
}

func TestEncodeHugeBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for >64KiB body")
		}
	}()
	Encode(Header{Kind: KindRequest}, make([]byte, 70000))
}

func TestMessageString(t *testing.T) {
	m, _ := Decode(EncodeRequest(4, 2, 8, 0, []byte("hi")))
	if !strings.Contains(m.String(), "svc=4") {
		t.Errorf("String %q", m.String())
	}
	r, _ := Decode(EncodeResponse(4, 2, 8, 0, nil))
	if !strings.Contains(r.String(), "resp") {
		t.Errorf("String %q", r.String())
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.Len() != 0 {
		t.Fatal("new registry not empty")
	}
	svc := &ServiceDesc{ID: 3, Name: "echo", Methods: []MethodDesc{
		{ID: 1, Name: "do", CodeAddr: 0x4000},
		{ID: 7, Name: "other"},
	}}
	reg.Register(svc)
	reg.Register(&ServiceDesc{ID: 1, Name: "a"})
	reg.Register(&ServiceDesc{ID: 2, Name: "b"})

	if got := reg.Lookup(3); got != svc {
		t.Fatal("Lookup failed")
	}
	if reg.Lookup(99) != nil {
		t.Fatal("Lookup of missing service returned non-nil")
	}
	if m := svc.Method(7); m == nil || m.Name != "other" {
		t.Fatal("Method lookup failed")
	}
	if svc.Method(42) != nil {
		t.Fatal("missing method returned non-nil")
	}

	all := reg.Services()
	if len(all) != 3 || all[0].ID != 1 || all[1].ID != 2 || all[2].ID != 3 {
		t.Fatalf("Services not sorted: %v", all)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&ServiceDesc{ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	reg.Register(&ServiceDesc{ID: 1})
}

func TestRegistryNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil register did not panic")
		}
	}()
	NewRegistry().Register(nil)
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.Unmarshal(0) != c.UnmarshalFixed {
		t.Error("zero-byte unmarshal should cost the fixed overhead")
	}
	if c.Unmarshal(100) != c.UnmarshalFixed+100*c.UnmarshalPerByte {
		t.Error("unmarshal per-byte cost wrong")
	}
	if c.Marshal(64) != c.MarshalFixed+64*c.MarshalPerByte {
		t.Error("marshal per-byte cost wrong")
	}
	if c.Unmarshal(1000) <= c.Unmarshal(10) {
		t.Error("unmarshal not monotone in size")
	}
	if c.DispatchLookup <= 0 || c.DispatchLookup > sim.Microsecond {
		t.Errorf("dispatch lookup cost implausible: %v", c.DispatchLookup)
	}
}

// Property: header fields round-trip for arbitrary values.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(service uint32, method uint16, id uint64, flags uint16, status uint16, body []byte) bool {
		if len(body) > 60000 {
			body = body[:60000]
		}
		h := Header{Kind: KindResponse, Service: service, Method: method,
			ID: id, Flags: flags, Status: status}
		b := Encode(h, body)
		// The header-only encoder writes the same header bytes.
		var hdr [HeaderLen]byte
		PutHeader(hdr[:], h, len(body))
		if !bytes.Equal(hdr[:], b[:HeaderLen]) {
			return false
		}
		m, err := Decode(b)
		if err != nil {
			return false
		}
		return m.Service == service && m.Method == method && m.ID == id &&
			m.Flags == flags && m.Status == status && bytes.Equal(m.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
