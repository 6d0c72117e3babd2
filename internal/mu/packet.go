package mu

import (
	"fmt"

	"pamigo/internal/bufpool"
)

// InlineMax is the largest len(meta)+len(payload) a packet carries in
// itself instead of in pooled slabs: the paper's short-message path (the
// sender copies the bytes once, into the packet — §II.C, Tables 1-2). It
// is what the 128-byte element has left once the narrow header and the
// two slab references are paid for: a property of the layout, so a
// constant, not an option. The MPI envelope + 48 B, the RTS and the
// rendezvous ack fit.
const InlineMax = 64

// Packet is one torus packet as it sits in a reception FIFO: the header
// stored narrow, the bytes either inline (len(meta)+len(payload) <=
// InlineMax: the packet holds no pooled buffer) or as views into pooled
// slabs (internal/bufpool). Header, Meta and Payload compute their views
// from the receiver, so a view of an inline packet points into the value
// it was taken from: a copy's views read the copy's bytes, and they die
// with the value. Layout and byte budget: DESIGN §7.
//
// The consumer that polls a packet out of a reception FIFO owns one
// reference to its slabs and must Release it after dispatch; a layer
// that stores the packet beyond that (the retransmit window, a delayed
// list) holds its own via Retain. On an inline packet both are no-ops.
type Packet struct {
	seq      uint64       // Header.Seq
	pktSeq   uint64       // Header.PktSeq
	pbuf     *bufpool.Buf // slab behind Payload; nil when inline or empty
	mbuf     *bufpool.Buf // slab behind Meta; nil when inline or empty
	task     uint32       // Header.Origin.Task, at the wire frame's width
	offset   uint32
	total    uint32
	checksum uint32
	poff     uint32 // where Payload starts in pbuf.Bytes()
	mlen     uint32
	dispatch uint16
	ctx      uint16          // Header.Origin.Ctx
	plen     uint32          // at most MaxPayload, but on the shared-memory leg the whole message
	inl      [InlineMax]byte // meta, then payload, of an inline packet
}

// Header returns the packet's software header, widened; its Meta is the
// view Meta returns.
func (p *Packet) Header() Header {
	return Header{
		Dispatch: p.dispatch,
		Origin:   p.origin(),
		Seq:      p.seq,
		Offset:   int(p.offset),
		Total:    int(p.total),
		Meta:     p.Meta(),
		PktSeq:   p.pktSeq,
		Checksum: p.checksum,
	}
}

// Whole reports whether the packet carries its entire message.
func (p *Packet) Whole() bool { return p.offset == 0 && p.plen == p.total }

func (p *Packet) origin() TaskAddr { return TaskAddr{Task: int(p.task), Ctx: int(p.ctx)} }

// Meta returns the metadata blob (first packet of a message only). The
// view is valid until the packet is released, overwritten or dropped.
func (p *Packet) Meta() []byte {
	switch {
	case p.mlen == 0:
		return nil
	case p.mbuf == nil:
		return p.inl[:p.mlen]
	}
	return p.mbuf.Bytes()
}

// Payload returns the packet's chunk of the message, under the same
// lifetime rule as Meta.
func (p *Packet) Payload() []byte {
	switch {
	case p.plen == 0:
		return nil
	case p.pbuf == nil:
		return p.inl[p.mlen:][:p.plen]
	}
	return p.pbuf.Bytes()[p.poff:][:p.plen]
}

// Retain adds a reference to the packet's pooled buffers.
func (p *Packet) Retain() { p.pbuf.Retain(); p.mbuf.Retain() }

// unretain drops a reference without writing the packet: for a reader of
// a packet other goroutines read in place.
func (p *Packet) unretain() { p.pbuf.Release(); p.mbuf.Release() }

// Release drops the consumer's reference to the packet's pooled buffers;
// its views must not be touched afterwards. Under -tags bufpooldebug a
// kept view of inline bytes reads 0xDB, not the element's next packet.
func (p *Packet) Release() {
	if p.pbuf != nil || p.mbuf != nil {
		p.unretain()
		p.pbuf, p.mbuf = nil, nil
	}
	if bufpool.DebugEnabled {
		for i := range p.inl {
			p.inl[i] = 0xDB
		}
	}
}

// checkNarrow refuses, before a byte is copied, a message of total
// payload bytes that the packet's narrow header would truncate.
func (h *Header) checkNarrow(total int) error {
	if uint64(total|len(h.Meta)|h.Origin.Task)>>32|uint64(h.Origin.Ctx)>>16 != 0 {
		return fmt.Errorf("%w: %d payload + %d metadata bytes from %v", ErrTooLarge, total, len(h.Meta), h.Origin)
	}
	return nil
}

// The packetizer — slabFor, then nextPacket until nothing is left — cuts
// one message (on the wire leg, one segment of it) into packets of at
// most chunk payload bytes: MaxPayload on the torus and wire legs, the
// whole message on the shared-memory leg (PackWhole). The tiling, the
// metadata-on-the-first-packet rule and the inline-or-slab choice live
// here and nowhere else; the five legs (copy-in, ownership transfer,
// reliable staging, wire delivery, shared memory) differ only in the
// chunk bound and in what they do with a built packet. The slab carries
// one reference per packet not yet built: slabFor takes them all, in one
// add, before the first packet can reach a consumer, because from then
// on consumer and acks release concurrently and a later Retain could
// find the slab free.
// nextPacket hands one to a slab packet and releases the one an inline
// packet does not need — on the injecting goroutine, so the slab returns
// to the pool shard it came from; abandon releases the rest.

// packetsFor is how many packets of at most chunk bytes carry an n-byte
// message, the empty message included.
func packetsFor(n, chunk int) int { return max(1, (n+chunk-1)/chunk) }

// slabFor returns the slab the packets of the message will view: own,
// the relinquished buffer whose Bytes are exactly src, or with own nil
// (the caller keeps src) a pooled copy of src if some packet needs one.
func slabFor(hdr *Header, src []byte, own *bufpool.Buf, chunk int) *bufpool.Buf {
	if len(hdr.Meta)+len(src) <= InlineMax {
		return own // one inline packet: nextPacket releases own
	}
	if own == nil && len(src) > 0 {
		own = bufpool.GetCopy(src)
	}
	own.RetainN(int32(packetsFor(len(src), chunk) - 1))
	return own
}

// nextPacket builds into *p the next packet of the message: hdr.Meta, if
// any, and up to chunk bytes off the front of src, the tail of the slab
// own. All of *p is overwritten but stale inline bytes; hdr.Offset and
// hdr.Meta advance; what is left of src comes back — nothing, after the
// last packet. The reliable leg stamps PktSeq and Checksum afterwards.
func nextPacket(p *Packet, hdr *Header, src []byte, own *bufpool.Buf, chunk int) []byte {
	n, m := min(len(src), chunk), len(hdr.Meta)
	p.seq, p.pktSeq, p.checksum = hdr.Seq, hdr.PktSeq, hdr.Checksum
	p.task, p.ctx, p.dispatch = uint32(hdr.Origin.Task), uint16(hdr.Origin.Ctx), hdr.Dispatch
	p.offset, p.total = uint32(hdr.Offset), uint32(hdr.Total)
	p.plen, p.mlen = uint32(n), uint32(m)
	p.pbuf, p.mbuf, p.poff = nil, nil, 0
	if m+n <= InlineMax {
		if m > 0 {
			copy(p.inl[:], hdr.Meta)
		}
		if n > 0 {
			copy(p.inl[m:], src[:n])
		}
	} else {
		if m > 0 {
			p.mbuf = bufpool.GetCopy(hdr.Meta)
		}
		if n > 0 {
			p.pbuf, p.poff, own = own, uint32(len(own.Bytes())-len(src)), nil
		}
	}
	if own != nil {
		own.Release() // an inline or empty packet holds no reference
	}
	hdr.Meta, hdr.Offset = nil, hdr.Offset+n
	return src[n:]
}

// abandon releases the references of the MaxPayload packets nextPacket
// would still have built from src (one, for an empty message not yet
// started).
func abandon(own *bufpool.Buf, src []byte) {
	for i := packetsFor(len(src), MaxPayload); i > 0; i-- {
		own.Release()
	}
}

// PackWhole builds into *p the shared-memory leg's element: the whole
// message as one packet, under the inline and ownership rules of every
// other leg. own is the relinquished slab src views, nil when the caller
// keeps src; its reference is consumed on every path, and on error
// nothing was built.
func (p *Packet) PackWhole(hdr Header, src []byte, own *bufpool.Buf) error {
	if err := hdr.checkNarrow(len(src)); err != nil {
		own.Release()
		return err
	}
	hdr.Offset, hdr.Total = 0, len(src)
	chunk := max(1, len(src))
	nextPacket(p, &hdr, src, slabFor(&hdr, src, own, chunk), chunk)
	return nil
}
