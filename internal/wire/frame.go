// Package wire is the inter-process transport of the simulated BG/Q
// partition: it carries MU memory-FIFO traffic between OS processes
// over TCP or Unix-domain sockets, so a partition can span processes
// (and, with TCP, hosts) — the "poor man's supercomputer" move of the
// PMS and QPACE clusters.
//
// The protocol is length-prefixed frames with CRC-32C integrity:
//
//	| length u32 | crc u32 | kind u8 | body ... |
//
// length counts everything after the length field and is bounded by
// MaxFrame before any allocation; crc is CRC-32C (Castagnoli, the same
// polynomial the in-process reliable layer uses) over kind+body. A
// frame that fails its CRC or structural decode kills the connection —
// the resend window replays everything unacknowledged on reconnect, so
// corruption costs a round trip, never correctness.
//
// Data frames carry a per-peer, per-direction sequence number assigned
// at enqueue time and persisted across reconnects; the receiver
// delivers strictly in sequence and acknowledges cumulatively, giving
// exactly-once delivery over any number of connection incarnations.
// Handshake (hello/welcome) frames carry the partition identity —
// protocol version, partition ID, torus dims, PPN, hosted task range,
// incarnation — plus the receiver's cumulative sequence, which
// trims the peer's resend window on reconnect. Any valid frame is a
// sign of life to the phi-accrual detector, and beats fill the silence
// of an idle link; acks are cumulative; rejects carry a typed reason
// back to a dialer that will never be admitted.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// ProtocolVersion is the wire protocol version carried in every
// handshake; processes with different versions refuse to join.
// Version 2 added the Incarnation handshake field and replica frames
// (the self-healing rejoin protocol); version 3 dropped the membership
// epoch from the handshake (nothing read it).
const ProtocolVersion = 3

// Size bounds. MaxFrame bounds one frame's post-length bytes and is
// checked before any allocation; maxSegment is the largest data payload
// the encoder puts in one packet frame (larger messages ship as
// multiple frames, reassembled by offset at the far fabric).
const (
	MaxFrame   = 1 << 20
	maxSegment = 32 << 10
	// maxMessage bounds a reassembled message's Total field — structural
	// sanity against corrupt or hostile headers.
	maxMessage = 1 << 30
)

// Frame kinds.
const (
	kindHello   = byte(1) // dialer's handshake
	kindWelcome = byte(2) // acceptor's handshake reply
	kindReject  = byte(3) // acceptor refuses the join; carries a code
	kindPacket  = byte(4) // one memory-FIFO message segment
	kindAck     = byte(5) // cumulative ack of packet sequence numbers
	kindBeat    = byte(6) // out-of-band heartbeat
	kindReplica = byte(7) // buddy-checkpoint replica blob (recovery traffic)
)

// Reject codes, mapped back to typed errors on the dialer side.
const (
	rejectVersion   = byte(1)
	rejectPartition = byte(2)
	rejectShape     = byte(3)
	rejectRange     = byte(4)
	rejectDead      = byte(5)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Hello is the identity a process presents when joining (and the
// acceptor's symmetric reply): enough to prove both sides describe the
// same partition, plus the receive cursor that makes reconnects
// exactly-once.
type Hello struct {
	Version   uint16
	Partition uint64
	Dims      torus.Dims
	PPN       int
	TaskLo    int // hosted task range [TaskLo, TaskHi)
	TaskHi    int
	RecvSeq   uint64 // last packet seq the sender has delivered from us

	// Incarnation counts how many times the sender's process has been
	// (re)started for this task range: 0 at first launch, bumped by the
	// respawn supervisor on every automatic restart. A dead range
	// presenting a *higher* incarnation than the one that died is a
	// recovered process asking to rejoin; the same or a lower one is a
	// zombie and is fenced with rejectDead.
	Incarnation uint32
}

// PacketFrame is one decoded data frame: a segment of a memory-FIFO
// message. Hdr.Meta and Payload are views into the decode buffer —
// valid only until the next decode into the same Frame; the fabric
// copies them into pooled slabs at delivery.
type PacketFrame struct {
	Seq     uint64
	Dst     mu.TaskAddr
	Hdr     mu.Header
	Payload []byte
}

// Frame is one decoded wire frame; Kind selects which field is set.
type Frame struct {
	Kind       byte
	Hello      Hello       // kindHello, kindWelcome
	RejectCode byte        // kindReject
	RejectMsg  string      // kindReject
	Packet     PacketFrame // kindPacket
	AckSeq     uint64      // kindAck
	ReplicaSeq uint64      // kindReplica: data sequence number (shared with packets)
	Replica    []byte      // kindReplica: encoded recovery snapshot (view into data)
}

const helloBody = 2 + 8 + 2*torus.NumDims + 2 + 4 + 4 + 8 + 4

// appendHello appends an encoded hello or welcome frame.
func appendHello(dst []byte, kind byte, h Hello) []byte {
	dst, body := reserve(dst, 1+helloBody)
	body[0] = kind
	b := body[1:]
	binary.BigEndian.PutUint16(b[0:], h.Version)
	binary.BigEndian.PutUint64(b[2:], h.Partition)
	for i := 0; i < torus.NumDims; i++ {
		binary.BigEndian.PutUint16(b[10+2*i:], uint16(h.Dims[i]))
	}
	off := 10 + 2*torus.NumDims
	binary.BigEndian.PutUint16(b[off:], uint16(h.PPN))
	binary.BigEndian.PutUint32(b[off+2:], uint32(h.TaskLo))
	binary.BigEndian.PutUint32(b[off+6:], uint32(h.TaskHi))
	binary.BigEndian.PutUint64(b[off+10:], h.RecvSeq)
	binary.BigEndian.PutUint32(b[off+18:], h.Incarnation)
	return finish(dst, body)
}

// appendReject appends an encoded reject frame.
func appendReject(dst []byte, code byte, msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	dst, body := reserve(dst, 1+1+2+len(msg))
	body[0] = kindReject
	body[1] = code
	binary.BigEndian.PutUint16(body[2:], uint16(len(msg)))
	copy(body[4:], msg)
	return finish(dst, body)
}

const packetFixed = 8 + 4 + 2 + 2 + 4 + 2 + 8 + 4 + 4 + 2

// appendPacket appends an encoded packet frame carrying one message
// segment. Meta rides only on the offset-0 segment, mirroring the
// MU's first-packet-carries-metadata rule.
func appendPacket(dst []byte, seq uint64, to mu.TaskAddr, hdr mu.Header, payload []byte) []byte {
	meta := hdr.Meta
	if hdr.Offset != 0 {
		meta = nil
	}
	dst, body := reserve(dst, 1+packetFixed+len(meta)+len(payload))
	body[0] = kindPacket
	b := body[1:]
	binary.BigEndian.PutUint64(b[0:], seq)
	binary.BigEndian.PutUint32(b[8:], uint32(to.Task))
	binary.BigEndian.PutUint16(b[12:], uint16(to.Ctx))
	binary.BigEndian.PutUint16(b[14:], hdr.Dispatch)
	binary.BigEndian.PutUint32(b[16:], uint32(hdr.Origin.Task))
	binary.BigEndian.PutUint16(b[20:], uint16(hdr.Origin.Ctx))
	binary.BigEndian.PutUint64(b[22:], hdr.Seq)
	binary.BigEndian.PutUint32(b[30:], uint32(hdr.Offset))
	binary.BigEndian.PutUint32(b[34:], uint32(hdr.Total))
	binary.BigEndian.PutUint16(b[38:], uint16(len(meta)))
	copy(b[packetFixed:], meta)
	copy(b[packetFixed+len(meta):], payload)
	return finish(dst, body)
}

// appendAck appends an encoded cumulative-ack frame.
func appendAck(dst []byte, ackSeq uint64) []byte {
	dst, body := reserve(dst, 1+8)
	body[0] = kindAck
	binary.BigEndian.PutUint64(body[1:], ackSeq)
	return finish(dst, body)
}

// appendBeat appends an encoded heartbeat frame.
func appendBeat(dst []byte) []byte {
	dst, body := reserve(dst, 1)
	body[0] = kindBeat
	return finish(dst, body)
}

// appendReplica appends an encoded replica frame: a buddy-checkpoint
// blob riding the same per-peer sequence space as packet frames, so
// replicas inherit the resend window's exactly-once delivery and flush
// after any data already queued — the low-priority flow.
func appendReplica(dst []byte, seq uint64, blob []byte) []byte {
	dst, body := reserve(dst, 1+8+len(blob))
	body[0] = kindReplica
	binary.BigEndian.PutUint64(body[1:], seq)
	copy(body[9:], blob)
	return finish(dst, body)
}

// reserve grows dst by the frame envelope (length + crc) plus n body
// bytes and returns the body slice (kind onward) to fill in — uncleared:
// every encoder writes all of it. With the capacity already there (a
// slot of a send ring) nothing is allocated.
func reserve(dst []byte, n int) (out, body []byte) {
	start := len(dst)
	out = slices.Grow(dst, 8+n)[:start+8+n]
	return out, out[start+8:]
}

// finish stamps the length prefix and CRC for the frame whose body
// (kind onward) was just filled in at the tail of out.
func finish(out, body []byte) []byte {
	start := len(out) - len(body) - 8
	binary.BigEndian.PutUint32(out[start:], uint32(len(body)+4))
	crc := crc32.Checksum(body, castagnoli)
	binary.BigEndian.PutUint32(out[start+4:], crc)
	return out
}

// DecodeFrame parses one frame from the head of data, returning the
// decoded frame and the bytes consumed. ErrShortFrame means data ends
// before the frame does (read more and retry); ErrFrameTooLarge and
// ErrFrameCorrupt mean the stream is unusable and the connection must
// be dropped. The decoder never allocates more than the bytes actually
// present: the length bound is checked before anything else, and all
// views point into data.
func DecodeFrame(data []byte) (Frame, int, error) {
	var f Frame
	n, err := f.decode(data)
	return f, n, err
}

// decode is DecodeFrame into a caller-owned Frame (the stream reader
// decodes every frame of a connection into one). ErrShortFrame comes
// back bare, so the reader's hot path can test it with ==.
func (f *Frame) decode(data []byte) (int, error) {
	if len(data) < 4 {
		return 0, ErrShortFrame
	}
	n := binary.BigEndian.Uint32(data)
	if n > MaxFrame {
		return 0, fmt.Errorf("%w: frame claims %d bytes (max %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	if n < 5 {
		return 0, fmt.Errorf("%w: frame of %d bytes has no room for crc+kind", ErrFrameCorrupt, n)
	}
	if uint32(len(data)-4) < n {
		return 0, ErrShortFrame
	}
	body := data[4 : 4+n]
	want := binary.BigEndian.Uint32(body)
	if got := crc32.Checksum(body[4:], castagnoli); got != want {
		return 0, fmt.Errorf("%w: crc %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	if err := decodeBody(f, body[4], body[5:]); err != nil {
		return 0, err
	}
	return 4 + int(n), nil
}

// decodeBody fills f from a CRC-verified body. Every length field is
// validated against the bytes actually present before use, and every
// field of the frame's kind is assigned, so f may be reused.
func decodeBody(f *Frame, kind byte, b []byte) error {
	f.Kind = kind
	switch kind {
	case kindHello, kindWelcome:
		if len(b) != helloBody {
			return fmt.Errorf("%w: hello body %d bytes, want %d", ErrFrameCorrupt, len(b), helloBody)
		}
		h := &f.Hello
		h.Version = binary.BigEndian.Uint16(b[0:])
		h.Partition = binary.BigEndian.Uint64(b[2:])
		for i := 0; i < torus.NumDims; i++ {
			h.Dims[i] = int(binary.BigEndian.Uint16(b[10+2*i:]))
		}
		off := 10 + 2*torus.NumDims
		h.PPN = int(binary.BigEndian.Uint16(b[off:]))
		h.TaskLo = int(binary.BigEndian.Uint32(b[off+2:]))
		h.TaskHi = int(binary.BigEndian.Uint32(b[off+6:]))
		h.RecvSeq = binary.BigEndian.Uint64(b[off+10:])
		h.Incarnation = binary.BigEndian.Uint32(b[off+18:])
	case kindReject:
		if len(b) < 3 {
			return fmt.Errorf("%w: reject body %d bytes", ErrFrameCorrupt, len(b))
		}
		ml := int(binary.BigEndian.Uint16(b[1:]))
		if ml != len(b)-3 {
			return fmt.Errorf("%w: reject message %d bytes in %d-byte body", ErrFrameCorrupt, ml, len(b))
		}
		f.RejectCode = b[0]
		f.RejectMsg = string(b[3:])
	case kindPacket:
		if len(b) < packetFixed {
			return fmt.Errorf("%w: packet body %d bytes, want at least %d", ErrFrameCorrupt, len(b), packetFixed)
		}
		p := &f.Packet
		p.Seq = binary.BigEndian.Uint64(b[0:])
		p.Dst.Task = int(binary.BigEndian.Uint32(b[8:]))
		p.Dst.Ctx = int(binary.BigEndian.Uint16(b[12:]))
		p.Hdr = mu.Header{
			Dispatch: binary.BigEndian.Uint16(b[14:]),
			Origin:   mu.TaskAddr{Task: int(binary.BigEndian.Uint32(b[16:])), Ctx: int(binary.BigEndian.Uint16(b[20:]))},
			Seq:      binary.BigEndian.Uint64(b[22:]),
			Offset:   int(binary.BigEndian.Uint32(b[30:])),
			Total:    int(binary.BigEndian.Uint32(b[34:])),
		}
		p.Payload = nil
		ml := int(binary.BigEndian.Uint16(b[38:]))
		if ml > len(b)-packetFixed {
			return fmt.Errorf("%w: packet meta %d bytes in %d-byte body", ErrFrameCorrupt, ml, len(b))
		}
		if p.Hdr.Total > maxMessage {
			return fmt.Errorf("%w: message total %d exceeds %d", ErrFrameCorrupt, p.Hdr.Total, maxMessage)
		}
		payload := b[packetFixed+ml:]
		if p.Hdr.Offset+len(payload) > p.Hdr.Total {
			return fmt.Errorf("%w: segment %d+%d overruns message total %d",
				ErrFrameCorrupt, p.Hdr.Offset, len(payload), p.Hdr.Total)
		}
		if ml > 0 {
			p.Hdr.Meta = b[packetFixed : packetFixed+ml]
		}
		if len(payload) > 0 {
			p.Payload = payload
		}
	case kindAck:
		if len(b) != 8 {
			return fmt.Errorf("%w: ack body %d bytes", ErrFrameCorrupt, len(b))
		}
		f.AckSeq = binary.BigEndian.Uint64(b)
	case kindBeat:
		if len(b) != 0 {
			return fmt.Errorf("%w: beat body %d bytes", ErrFrameCorrupt, len(b))
		}
	case kindReplica:
		if len(b) < 8 {
			return fmt.Errorf("%w: replica body %d bytes", ErrFrameCorrupt, len(b))
		}
		f.ReplicaSeq = binary.BigEndian.Uint64(b)
		f.Replica = nil
		if len(b) > 8 {
			f.Replica = b[8:]
		}
	default:
		return fmt.Errorf("%w: unknown frame kind %d", ErrFrameCorrupt, kind)
	}
	return nil
}
