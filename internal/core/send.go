package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"pamigo/internal/bufpool"
	"pamigo/internal/mu"
	"pamigo/internal/shmem"
)

// SendMode selects the point-to-point protocol.
type SendMode int

// Protocol selection: Auto picks eager at or below the client's
// EagerThreshold and rendezvous above it (paper §III.E).
const (
	ModeAuto SendMode = iota
	ModeEager
	ModeRendezvous
)

// SendParams describes one active-message send.
type SendParams struct {
	// Dest is the destination endpoint.
	Dest Endpoint
	// Dispatch selects the remote handler (must be < MaxUserDispatch).
	Dispatch uint16
	// Meta is the small out-of-band header delivered with the message
	// (the MPI envelope rides here). It must fit in the first packet.
	Meta []byte
	// Data is the payload.
	Data []byte
	// DataBuf, when non-nil, replaces Data with an ownership transfer: the
	// caller relinquishes the pooled buffer (its Bytes are exactly the
	// payload) and the context consumes that reference on every path —
	// success, error, deferral or cancellation. Eager delivery then
	// dispatches straight out of this slab with no copy at all — same-node
	// as one shared-memory element, off-node as packets that view it —
	// unless Meta and payload together fit in the element itself
	// (mu.InlineMax, 64 bytes): then they are copied into it and the slab
	// is released before Send returns, on this thread, so it goes back to
	// the pool shard it came from. The cut is a constant of the packet
	// layout, not an option, and the same for both devices. Do not set
	// Data and DataBuf together, and do not touch the buffer after Send.
	DataBuf *bufpool.Buf
	// OnDone, if non-nil, runs when the send buffer may be reused: at
	// injection for eager, at remote-completion ack for rendezvous. It
	// runs on the thread advancing this context.
	OnDone func()
	// OnFail, if non-nil, runs instead of OnDone when a rendezvous send is
	// cancelled because the destination node was confirmed dead before the
	// completion ack arrived. The error wraps mu.ErrPeerDead. When OnFail
	// is nil, OnDone fires on cancellation too (the buffer is reusable
	// either way), so completion-counting waiters never hang.
	OnFail func(error)
	// Mode forces a protocol; ModeAuto sizes it from the payload.
	Mode SendMode
}

// payload returns the bytes the send carries: DataBuf's, else Data.
func (p *SendParams) payload() []byte {
	if p.DataBuf != nil {
		return p.DataBuf.Bytes()
	}
	return p.Data
}

// Delivery is what a dispatch handler receives. For eager messages Data
// holds the full payload (valid only during the handler call). For
// rendezvous messages Data is nil: the handler — immediately or later,
// e.g. after MPI matching — calls Receive to pull the payload straight
// into the destination buffer.
type Delivery struct {
	// Origin is the sending endpoint.
	Origin Endpoint
	// Meta is the sender's metadata (valid only during the handler call;
	// copy to keep).
	Meta []byte
	// Size is the payload size in bytes.
	Size int
	// Data is the eager payload, nil for rendezvous.
	Data []byte

	ctx *Context
	rdv bool    // rts is set: the payload waits to be pulled
	rts rtsInfo // held by value: a retained Delivery is one object

	// pulled is claimed by the first Receive or Discard, on whichever
	// thread: one pull and one ack per rendezvous, however often it is
	// called.
	pulled atomic.Bool
}

// ErrDeliveryConsumed is returned by a second Receive or Discard of one
// rendezvous Delivery: the first already pulled the payload and
// acknowledged the sender, whose publication may since have been retired.
var ErrDeliveryConsumed = errors.New("core: rendezvous delivery already received")

// rtsInfo is the sender state a rendezvous Delivery carries: where the
// payload lives until the receiver pulls it.
type rtsInfo struct {
	sendID uint64
	mrID   uint64
	size   int
}

// IsRendezvous reports whether the payload must be pulled with Receive.
func (d *Delivery) IsRendezvous() bool { return d.rdv }

// SendImmediate sends a small message that fits in a single packet,
// copying it out of the caller's buffers before returning — the paper's
// lowest-latency path (Table 1). meta+data must fit in one packet
// payload; up to mu.InlineMax (64 bytes, what the 128-byte reception-FIFO
// element has room for: a constant of its layout) they ride in the
// element itself and no pooled buffer is involved at either end.
func (ctx *Context) SendImmediate(dst Endpoint, dispatch uint16, meta, data []byte) error {
	return ctx.sendImmediate(dst, dispatch, meta, data, nil)
}

// SendImmediateBuf is SendImmediate with ownership transfer: the caller
// relinquishes data — a pooled buffer whose Bytes are the payload — and
// the context consumes that reference on every path that *acts* on the
// send, success or hard failure. ErrThrottled is the one exception,
// deliberately EAGAIN-shaped: nothing was sent, the caller still owns
// the buffer, and the natural retry loop reuses it as-is — a throttled
// flood must not pay a pool round-trip and a payload copy per refusal.
// Past mu.InlineMax the payload is not copied on the same-node path:
// the receiving context dispatches straight out of this slab.
func (ctx *Context) SendImmediateBuf(dst Endpoint, dispatch uint16, meta []byte, data *bufpool.Buf) error {
	if data == nil {
		return ctx.sendImmediate(dst, dispatch, meta, nil, nil)
	}
	return ctx.sendImmediate(dst, dispatch, meta, data.Bytes(), data)
}

// sendImmediate is both immediate sends: data is the payload, and own,
// when non-nil, the pooled buffer it lives in, whose reference the call
// consumes unless it refuses with ErrThrottled.
func (ctx *Context) sendImmediate(dst Endpoint, dispatch uint16, meta, data []byte, own *bufpool.Buf) error {
	if dispatch >= MaxUserDispatch {
		own.Release()
		return fmt.Errorf("core: dispatch %#x is reserved", dispatch)
	}
	if len(meta)+len(data) > mu.MaxPayload {
		own.Release()
		return fmt.Errorf("core: SendImmediate of %d bytes exceeds the %d byte packet payload",
			len(meta)+len(data), mu.MaxPayload)
	}
	if ctx.deferredLen > 0 && len(ctx.deferred[dst]) > 0 {
		// Sends are already parked for this destination; letting the
		// immediate path jump the queue would reorder the flow.
		ctx.stats.throttled.Inc()
		return fmt.Errorf("core: immediate send %v -> %v: %d sends deferred ahead of it: %w",
			ctx.addr, dst, len(ctx.deferred[dst]), ErrThrottled)
	}
	if occ, budget, over := ctx.overBudget(dst); over {
		// The immediate path has no rendezvous to degrade to: refuse the
		// send outright rather than let an unbounded flood pile up at the
		// receiver. PAMI_EAGAIN semantics — advance and retry.
		ctx.stats.throttled.Inc()
		return fmt.Errorf("core: immediate send %v -> %v: inbound queue at %d of budget %d: %w",
			ctx.addr, dst, occ, budget, ErrThrottled)
	}
	ctx.sendSeq++
	hdr := mu.Header{
		Dispatch: dispatch,
		Origin:   ctx.addr,
		Seq:      ctx.sendSeq,
		Meta:     meta,
	}
	ctx.stats.sendsImmediate.Inc()
	ctx.stats.bytesSent.Add(int64(len(data)))
	if own != nil {
		return ctx.transportSendBuf(dst, hdr, own)
	}
	return ctx.transportSend(dst, hdr, data)
}

// Send sends an active message using the eager or rendezvous protocol.
// Call with the context lock held (or from a posted work function).
func (ctx *Context) Send(p SendParams) error {
	if p.Dispatch >= MaxUserDispatch {
		p.DataBuf.Release()
		return fmt.Errorf("core: dispatch %#x is reserved", p.Dispatch)
	}
	plen := len(p.payload())
	mode := p.Mode
	if mode == ModeAuto && !ctx.client.mach.Hosted(p.Dest.Task) {
		// The destination lives in another OS process: rendezvous is off
		// the table, because its RDMA get reaches into the sender's
		// memory and remote memory is not addressable across processes.
		// The wire transport carries eager payloads of any size,
		// segmented and flow-controlled, so eager is always safe here.
		mode = ModeEager
	}
	if mode == ModeAuto {
		if plen <= ctx.client.EagerThreshold {
			mode = ModeEager
			if ctx.destCongested(p.Dest) {
				// Degrade gracefully: ship a rendezvous RTS (one header-sized
				// packet) instead of committing the payload to a receiver
				// that is not draining.
				ctx.stats.eagerFallbacks.Inc()
				mode = ModeRendezvous
			}
		} else {
			mode = ModeRendezvous
		}
	}
	if mode != ModeEager && mode != ModeRendezvous {
		p.DataBuf.Release()
		return fmt.Errorf("core: unknown send mode %d", mode)
	}
	// Hard budget: past it, even the RTS stays home. The send parks in the
	// per-destination deferred queue (payload in our memory, retried by
	// Advance), and once a destination has a queue every later Send joins
	// the tail so point-to-point order survives the detour.
	park := len(ctx.deferred[p.Dest]) > 0
	if !park && mode == ModeRendezvous {
		_, _, park = ctx.overBudget(p.Dest)
	}
	if park {
		p.Mode = mode
		ctx.deferSend(p)
		return nil
	}
	return ctx.sendResolved(mode, p)
}

// sendResolved dispatches a Send whose protocol has been decided.
func (ctx *Context) sendResolved(mode SendMode, p SendParams) error {
	if mode == ModeEager {
		return ctx.sendEager(p)
	}
	return ctx.sendRendezvous(p)
}

// deferSend parks a protocol-resolved send for a destination that sits at
// or over the hard unexpected-message budget. The first send queued
// registers the queue at core.deferred.send.
func (ctx *Context) deferSend(p SendParams) {
	if ctx.deferredLen == 0 {
		ctx.deferredPark.Enter()
	}
	ctx.deferred[p.Dest] = append(ctx.deferred[p.Dest], p)
	ctx.deferredLen++
	ctx.stats.deferredSends.Set(int64(ctx.deferredLen))
}

// deferredLeft settles the deferred queue after sends left it: its park
// restarts while sends remain and is left once the queue is empty.
func (ctx *Context) deferredLeft() {
	ctx.stats.deferredSends.Set(int64(ctx.deferredLen))
	if ctx.deferredLen == 0 {
		ctx.deferredPark.Leave()
	} else {
		ctx.deferredPark.Enter()
	}
}

// drainDeferred retries parked sends, oldest first per destination, while
// the destination stays under the hard budget. A transport failure here
// has no Send call to return through: it goes to the send's OnFail, or
// panics like an in-handler failure would, so it cannot vanish.
func (ctx *Context) drainDeferred(max int) int {
	n := 0
	for dst, q := range ctx.deferred {
		for len(q) > 0 && n < max {
			if _, _, over := ctx.overBudget(dst); over {
				break
			}
			p := q[0]
			q[0] = SendParams{}
			q = q[1:]
			ctx.deferredLen--
			n++
			if err := ctx.sendResolved(p.Mode, p); err != nil {
				if p.OnFail != nil {
					p.OnFail(err)
				} else {
					panic(fmt.Sprintf("core: deferred send %v -> %v failed with no OnFail: %v",
						ctx.addr, dst, err))
				}
			}
		}
		if len(q) == 0 {
			delete(ctx.deferred, dst)
		} else {
			ctx.deferred[dst] = q
		}
		if n >= max {
			break
		}
	}
	if n > 0 {
		ctx.deferredLeft()
	}
	return n
}

// sendEager copies the payload into packets (or the shared-memory queue)
// — or, for a DataBuf send, transfers the caller's slab with no copy at
// all; local completion is immediate either way.
func (ctx *Context) sendEager(p SendParams) error {
	ctx.sendSeq++
	hdr := mu.Header{
		Dispatch: p.Dispatch,
		Origin:   ctx.addr,
		Seq:      ctx.sendSeq,
		Meta:     p.Meta,
	}
	ctx.stats.sendsEager.Inc()
	ctx.stats.bytesSent.Add(int64(len(p.payload())))
	var err error
	if p.DataBuf != nil {
		err = ctx.transportSendBuf(p.Dest, hdr, p.DataBuf)
	} else {
		err = ctx.transportSend(p.Dest, hdr, p.Data)
	}
	if err != nil {
		return err
	}
	if p.OnDone != nil {
		p.OnDone()
	}
	return nil
}

// rtsMeta is the wire encoding of a rendezvous request-to-send: fixed
// fields followed by the user's metadata.
//
//	sendID   uint64 — key for the completion ack
//	mrID     uint64 — the payload's memregion in the sender's table
//	size     uint64 — payload bytes
//	dispatch uint16 — the user dispatch to deliver to
const rtsFixed = 8 + 8 + 8 + 2

// encodeRTS writes the RTS wire form into a pooled scratch slab; the
// caller releases it after the transport has copied the header out.
func encodeRTS(info rtsInfo, dispatch uint16, userMeta []byte) *bufpool.Buf {
	bb := bufpool.Get(rtsFixed + len(userMeta))
	buf := bb.Bytes()
	binary.LittleEndian.PutUint64(buf[0:], info.sendID)
	binary.LittleEndian.PutUint64(buf[8:], info.mrID)
	binary.LittleEndian.PutUint64(buf[16:], uint64(info.size))
	binary.LittleEndian.PutUint16(buf[24:], dispatch)
	copy(buf[rtsFixed:], userMeta)
	return bb
}

func decodeRTS(meta []byte) (info rtsInfo, dispatch uint16, userMeta []byte, err error) {
	if len(meta) < rtsFixed {
		return info, 0, nil, fmt.Errorf("core: malformed RTS of %d bytes", len(meta))
	}
	info.sendID = binary.LittleEndian.Uint64(meta[0:])
	info.mrID = binary.LittleEndian.Uint64(meta[8:])
	info.size = int(binary.LittleEndian.Uint64(meta[16:]))
	dispatch = binary.LittleEndian.Uint16(meta[24:])
	return info, dispatch, meta[rtsFixed:], nil
}

// sendRendezvous publishes the payload in the sender task's memregion
// table, wherever the peer is, and sends a request-to-send; the receiver
// pulls the data (Delivery.Receive picks the leg) and sends a completion
// ack, which fires OnDone and retires the publication.
func (ctx *Context) sendRendezvous(p SendParams) error {
	ctx.sendSeq++
	sendID := ctx.sendSeq
	// A DataBuf rendezvous publishes the caller's slab directly: the
	// pending send holds the reference until the completion ack (or a
	// peer-death cancellation) retires the publication and releases it.
	data := p.payload()
	ps := ctx.newPending()
	*ps = pendingSend{dst: p.Dest, onDone: p.OnDone, onFail: p.OnFail, buf: p.DataBuf}
	ctx.stats.sendsRdv.Inc()
	ctx.stats.bytesSent.Add(int64(len(data)))
	ctx.stats.rdvInflight.Inc()
	// Publication IDs embed the context ordinal: the table is the task's,
	// and a task's contexts allocate independently.
	ctx.nextMR++
	ps.mrID = mrSendIDBase | uint64(ctx.addr.Ctx)<<48 | ctx.nextMR
	ctx.client.mach.Fabric().RegisterMemregion(ctx.addr.Task, ps.mrID, data)
	ctx.pending[sendID] = ps
	rts := encodeRTS(rtsInfo{sendID: sendID, mrID: ps.mrID, size: len(data)}, p.Dispatch, p.Meta)
	hdr := mu.Header{
		Dispatch: dispatchRTS,
		Origin:   ctx.addr,
		Seq:      ctx.sendSeq,
		Meta:     rts.Bytes(),
	}
	err := ctx.transportSend(p.Dest, hdr, nil)
	rts.Release() // both transports copy the header before returning
	if err != nil {
		// The RTS never left: unwind the publication so the pending table
		// does not pin the payload (or an owned DataBuf slab) forever.
		delete(ctx.pending, sendID)
		ctx.stats.rdvInflight.Dec()
		ctx.unpublish(ps)
		ctx.retirePending(ps)
	}
	return err
}

// mrSendIDBase marks sender-side publication IDs, disjoint from user
// memregions (bit 62 clear).
const mrSendIDBase uint64 = 1 << 62

// destEntry is one resolved destination route, cached per context so the
// per-message cost of repeated sends to one endpoint is a handful of
// compares instead of a registry probe. Validation is by generation
// stamp: the shmem node bumps its Gen on endpoint (de)registration, the
// fabric bumps ContextsGen when its COW context map swaps.
type destEntry struct {
	dst      Endpoint
	valid    bool
	sameNode bool

	snode *shmem.Node
	sgen  uint64
	dev   *shmem.Device // nil when the endpoint is not (yet) registered

	cgen uint64
	fifo *mu.RecFIFO // nil for wire-remote destinations
}

// destResolve returns the cached route for dst, refilling on miss or
// stale generation. Owner-thread only (it mutates ctx.dcache).
func (ctx *Context) destResolve(dst Endpoint) *destEntry {
	e := &ctx.dcache
	m := ctx.client.mach
	if e.valid && e.dst == dst {
		if e.sameNode {
			if e.sgen == e.snode.Gen() {
				return e
			}
		} else if e.cgen == m.Fabric().ContextsGen() {
			return e
		}
	}
	*e = destEntry{dst: dst, valid: true}
	if m.SameNode(ctx.addr.Task, dst.Task) {
		e.sameNode = true
		e.snode = m.Shmem(ctx.client.proc.Node().Rank)
		e.sgen = e.snode.Gen()
		e.dev, _ = e.snode.Resolve(dst)
	} else {
		fab := m.Fabric()
		e.cgen = fab.ContextsGen()
		e.fifo, _ = fab.RecFIFOOf(dst)
	}
	return e
}

// transportSend routes a header+payload to the destination over shared
// memory (same node) or the MU (off node); eager messages between two
// endpoints always take the same path, preserving point-to-point order.
// Owner-thread only: it resolves through the context's destination cache.
func (ctx *Context) transportSend(dst Endpoint, hdr mu.Header, data []byte) error {
	if e := ctx.destResolve(dst); e.sameNode {
		if e.dev != nil {
			return e.snode.SendTo(e.dev, hdr, data)
		}
		return e.snode.Send(dst, hdr, data)
	}
	inj := ctx.muRes.PinnedInj(dst.Task)
	return ctx.client.mach.Fabric().InjectMemFIFO(inj, dst, hdr, data)
}

// transportSendBuf is transportSend with ownership transfer: the payload
// reference is consumed by the transport on every path, and no copy is
// made on the same-node leg. Owner-thread only.
func (ctx *Context) transportSendBuf(dst Endpoint, hdr mu.Header, data *bufpool.Buf) error {
	if e := ctx.destResolve(dst); e.sameNode {
		if e.dev != nil {
			return e.snode.SendBufTo(e.dev, hdr, data)
		}
		return e.snode.SendBuf(dst, hdr, data)
	}
	inj := ctx.muRes.PinnedInj(dst.Task)
	return ctx.client.mach.Fabric().InjectMemFIFOBuf(inj, dst, hdr, data)
}

// transportSendAnyThread is the cache-free transportSend used where the
// thread contract is loose: Delivery.Receive (and so the rendezvous ack)
// may run on any thread, which must touch neither the context's
// destination cache nor an injection FIFO's single-owner cache.
func (ctx *Context) transportSendAnyThread(dst Endpoint, hdr mu.Header, data []byte) error {
	m := ctx.client.mach
	if m.SameNode(ctx.addr.Task, dst.Task) {
		return m.Shmem(ctx.client.proc.Node().Rank).Send(dst, hdr, data)
	}
	inj := ctx.muRes.PinnedInj(dst.Task)
	return m.Fabric().InjectMemFIFO(inj, dst, hdr, data)
}

// handleRTS dispatches a rendezvous arrival to the user handler with a
// pull-capable Delivery.
func (ctx *Context) handleRTS(hdr mu.Header) {
	info, dispatch, userMeta, err := decodeRTS(hdr.Meta)
	if err != nil {
		panic("core: " + err.Error())
	}
	fn, ok := ctx.dispatchFor(dispatch)
	if !ok {
		panic(fmt.Sprintf("core: endpoint %v received RTS for unregistered dispatch %#x", ctx.addr, dispatch))
	}
	ctx.stats.delivered.Inc()
	fn(ctx, &Delivery{
		Origin: hdr.Origin,
		Meta:   userMeta,
		Size:   info.size,
		ctx:    ctx,
		rdv:    true,
		rts:    info,
	})
}

// Receive pulls a rendezvous payload into buf (len(buf) bytes, at most
// d.Size) and acknowledges the sender. The pull reads the sender's
// publication in its memregion table: in place when the sender shares
// this node, with a remote get otherwise; on either leg a retired
// publication fails with mu.ErrNoSuchMemregion. Receive may be called
// from the dispatch handler or later (MPI calls it when the message
// finally matches); it is safe from any thread. done, if non-nil, runs
// before Receive returns — data movement is synchronous in this fabric
// model. The first Receive or Discard consumes the Delivery, whether or
// not it succeeds; every later one returns ErrDeliveryConsumed and sends
// nothing.
func (d *Delivery) Receive(buf []byte, done func()) error {
	if !d.rdv {
		return fmt.Errorf("core: Receive on an eager delivery")
	}
	if !d.pulled.CompareAndSwap(false, true) {
		return fmt.Errorf("%w: send %d from %v", ErrDeliveryConsumed, d.rts.sendID, d.Origin)
	}
	n := len(buf)
	if n > d.rts.size {
		n = d.rts.size
	}
	ctx := d.ctx
	m := ctx.client.mach
	if m.SameNode(d.Origin.Task, ctx.addr.Task) {
		// A node peer reads the sender's registered buffer in place, as
		// CNK's shared address space lets it (paper §II.D): no remote get
		// and nothing on the torus.
		src, ok := m.Fabric().Memregion(d.Origin.Task, d.rts.mrID)
		if !ok {
			return fmt.Errorf("%w: rendezvous publication %d of task %d", mu.ErrNoSuchMemregion, d.rts.mrID, d.Origin.Task)
		}
		copy(buf[:n], src)
	} else {
		inj := ctx.muRes.PinnedInj(d.Origin.Task)
		if err := m.Fabric().InjectRemoteGet(inj, ctx.addr, d.Origin.Task, d.rts.mrID, 0, buf[:n], nil); err != nil {
			return err
		}
	}
	// Ack: tell the sender its buffer is free. The 8-byte scratch comes
	// from the pool (Receive may run on any thread, so no context scratch).
	ack := bufpool.Get(8)
	binary.LittleEndian.PutUint64(ack.Bytes(), d.rts.sendID)
	hdr := mu.Header{
		Dispatch: dispatchAck,
		Origin:   ctx.addr,
		Meta:     ack.Bytes(),
	}
	err := ctx.transportSendAnyThread(d.Origin, hdr, nil)
	ack.Release()
	if err != nil {
		return err
	}
	if done != nil {
		done()
	}
	return nil
}

// Discard acknowledges a rendezvous message without pulling any data —
// the zero-length-receive / truncation path.
func (d *Delivery) Discard() error {
	if !d.rdv {
		return nil
	}
	return d.Receive(nil, nil)
}

// handleAck completes a rendezvous send: retire the publication and fire
// the sender's completion callback.
func (ctx *Context) handleAck(hdr mu.Header) {
	if len(hdr.Meta) < 8 {
		panic("core: malformed rendezvous ack")
	}
	sendID := binary.LittleEndian.Uint64(hdr.Meta)
	ps, ok := ctx.pending[sendID]
	if !ok {
		panic(fmt.Sprintf("core: ack for unknown send %d on %v", sendID, ctx.addr))
	}
	delete(ctx.pending, sendID)
	ctx.stats.rdvInflight.Dec()
	ctx.stats.rdvCompleted.Inc()
	ctx.unpublish(ps)
	onDone := ps.onDone
	ctx.retirePending(ps)
	if onDone != nil {
		onDone()
	}
}
