package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

func testHello() Hello {
	return Hello{
		Version:   ProtocolVersion,
		Partition: 0xdeadbeefcafe,
		Dims:      torus.Dims{2, 2, 1, 1, 2},
		PPN:       4,
		TaskLo:    16,
		TaskHi:    32,
		RecvSeq:   91,
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, kind := range []byte{kindHello, kindWelcome} {
		buf := appendHello(nil, kind, testHello())
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if f.Kind != kind || f.Hello != testHello() {
			t.Fatalf("round trip mangled hello: %+v", f.Hello)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	hdr := mu.Header{
		Dispatch: 7,
		Origin:   mu.TaskAddr{Task: 3, Ctx: 1},
		Seq:      42,
		Offset:   0,
		Total:    5000,
		Meta:     []byte("meta-bytes"),
	}
	payload := bytes.Repeat([]byte{0xa5}, 4096)
	buf := appendPacket(nil, 17, mu.TaskAddr{Task: 9, Ctx: 2}, hdr, payload)
	f, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) || f.Kind != kindPacket {
		t.Fatalf("kind %d, consumed %d of %d", f.Kind, n, len(buf))
	}
	p := f.Packet
	if p.Seq != 17 || p.Dst != (mu.TaskAddr{Task: 9, Ctx: 2}) {
		t.Fatalf("seq/dst mangled: %+v", p)
	}
	if p.Hdr.Dispatch != hdr.Dispatch || p.Hdr.Origin != hdr.Origin ||
		p.Hdr.Seq != hdr.Seq || p.Hdr.Offset != 0 || p.Hdr.Total != hdr.Total {
		t.Fatalf("header mangled: %+v", p.Hdr)
	}
	if !bytes.Equal(p.Hdr.Meta, hdr.Meta) || !bytes.Equal(p.Payload, payload) {
		t.Fatal("meta or payload mangled")
	}
}

func TestPacketMetaOnlyOnOffsetZero(t *testing.T) {
	hdr := mu.Header{Origin: mu.TaskAddr{Task: 1}, Offset: maxSegment, Total: maxSegment + 4, Meta: []byte("meta")}
	buf := appendPacket(nil, 2, mu.TaskAddr{Task: 0}, hdr, []byte("tail"))
	f, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Packet.Hdr.Meta != nil {
		t.Fatalf("meta rode a non-zero-offset segment: %q", f.Packet.Hdr.Meta)
	}
	if string(f.Packet.Payload) != "tail" {
		t.Fatalf("payload mangled: %q", f.Packet.Payload)
	}
}

func TestAckBeatRejectRoundTrip(t *testing.T) {
	f, n, err := DecodeFrame(appendAck(nil, 12345))
	if err != nil || f.Kind != kindAck || f.AckSeq != 12345 || n != 17 {
		t.Fatalf("ack: %+v n=%d err=%v", f, n, err)
	}
	f, _, err = DecodeFrame(appendBeat(nil))
	if err != nil || f.Kind != kindBeat {
		t.Fatalf("beat: %+v err=%v", f, err)
	}
	f, _, err = DecodeFrame(appendReject(nil, rejectPartition, "wrong partition"))
	if err != nil || f.Kind != kindReject || f.RejectCode != rejectPartition || f.RejectMsg != "wrong partition" {
		t.Fatalf("reject: %+v err=%v", f, err)
	}
}

func TestDecodeStreaming(t *testing.T) {
	// Two frames back to back: DecodeFrame consumes exactly one.
	buf := appendAck(nil, 1)
	one := len(buf)
	buf = appendBeat(buf)
	f, n, err := DecodeFrame(buf)
	if err != nil || f.Kind != kindAck || n != one {
		t.Fatalf("first: kind=%d n=%d err=%v", f.Kind, n, err)
	}
	f, n, err = DecodeFrame(buf[n:])
	if err != nil || f.Kind != kindBeat || n != len(buf)-one {
		t.Fatalf("second: kind=%d n=%d err=%v", f.Kind, n, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := appendHello(nil, kindHello, testHello())
	for cut := 0; cut < len(buf); cut++ {
		_, _, err := DecodeFrame(buf[:cut])
		if !errors.Is(err, ErrShortFrame) {
			t.Fatalf("cut at %d: err=%v, want ErrShortFrame", cut, err)
		}
	}
}

func TestDecodeOversized(t *testing.T) {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], MaxFrame+1)
	_, _, err := DecodeFrame(buf[:])
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err=%v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeCRCCorruption(t *testing.T) {
	orig := appendPacket(nil, 5, mu.TaskAddr{Task: 1}, mu.Header{Total: 4}, []byte("data"))
	// Flipping any single bit after the length prefix must fail the CRC
	// (bits inside the length prefix instead shift the frame boundary,
	// landing on short/oversize/corrupt — never a clean decode of the
	// altered bytes).
	for i := 4; i < len(orig); i++ {
		buf := append([]byte(nil), orig...)
		buf[i] ^= 0x10
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flip at byte %d: err=%v, want ErrFrameCorrupt", i, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	h := testHello()
	h.Version = ProtocolVersion + 9
	f, _, err := DecodeFrame(appendHello(nil, kindHello, h))
	if err != nil {
		t.Fatalf("a future version must still frame-decode (the handshake rejects it): %v", err)
	}
	if f.Hello.Version != ProtocolVersion+9 {
		t.Fatalf("version mangled: %d", f.Hello.Version)
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	dst, body := reserve(nil, 3)
	body[0] = 0x7f
	buf := finish(dst, body)
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("unknown kind: err=%v, want ErrFrameCorrupt", err)
	}
}

// FuzzDecodeFrame asserts the frame decoder is total: arbitrary input —
// truncated, oversized, CRC-corrupted, version-skewed — never panics,
// never over-allocates (all views point into the input), and every
// error is one of the typed sentinels.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendHello(nil, kindHello, testHello()))
	f.Add(appendHello(nil, kindWelcome, testHello()))
	f.Add(appendReject(nil, rejectDead, "range contains dead nodes"))
	f.Add(appendPacket(nil, 9, mu.TaskAddr{Task: 2, Ctx: 1},
		mu.Header{Dispatch: 1, Origin: mu.TaskAddr{Task: 0}, Total: 100, Meta: []byte("m")},
		bytes.Repeat([]byte{1}, 100)))
	f.Add(appendAck(nil, 77))
	f.Add(appendBeat(nil))
	skew := testHello()
	skew.Version = 0xffff
	f.Add(appendHello(nil, kindHello, skew))
	var big [8]byte
	binary.BigEndian.PutUint32(big[:4], 1<<31)
	f.Add(big[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n < 9 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Views must alias the input, never fresh allocations sized by a
		// hostile header.
		if p := fr.Packet.Payload; len(p) > 0 && !aliases(data, p) {
			t.Fatal("payload does not alias the input")
		}
		if m := fr.Packet.Hdr.Meta; len(m) > 0 && !aliases(data, m) {
			t.Fatal("meta does not alias the input")
		}
		if len(fr.RejectMsg) > 512+64 {
			t.Fatalf("reject message %d bytes survived decode", len(fr.RejectMsg))
		}
	})
}

func aliases(outer, inner []byte) bool {
	if len(outer) == 0 || len(inner) == 0 {
		return len(inner) == 0
	}
	o0 := &outer[0]
	oN := &outer[len(outer)-1]
	i0 := &inner[0]
	_ = oN
	for j := range outer {
		if &outer[j] == i0 {
			return true
		}
	}
	_ = o0
	return false
}
