package mu

import "fmt"

// Transport moves memory-FIFO messages addressed to tasks hosted by
// another OS process. The fabric consults it on every injection: tasks
// the transport reports as local stay on the in-process path (zero
// allocations, direct FIFO delivery); the rest are handed to the
// transport, which owns framing, integrity, ordering, and liveness for
// the inter-process leg. internal/wire provides the TCP/Unix-socket
// implementation; a single-process machine installs none and pays
// one atomic load per send.
type Transport interface {
	// Local reports whether the task runs inside this OS process.
	Local(task int) bool
	// Send ships one complete memory-FIFO message (hdr.Offset 0,
	// hdr.Total unset — the transport owns segmentation) to the process
	// hosting dst.Task. It must either accept the whole message or fail
	// it typed: health.ErrPeerDead once the peer is confirmed dead,
	// lockless.ErrBackpressure when the peer's bounded outbound queue is
	// full. The payload is copied before Send returns.
	Send(dst TaskAddr, hdr Header, payload []byte) error
	// Close tears the transport down and unblocks its goroutines.
	Close() error
}

// transportSlot boxes the interface so the fabric can swap it atomically.
type transportSlot struct{ t Transport }

// InstallTransport routes sends to non-local tasks through t. Installed
// once at machine boot, before any traffic.
func (f *Fabric) InstallTransport(t Transport) {
	f.transport.Store(&transportSlot{t: t})
}

// Transport returns the installed inter-process transport, or nil.
func (f *Fabric) Transport() Transport {
	if s := f.transport.Load(); s != nil {
		return s.t
	}
	return nil
}

// remoteFor returns the transport when dst.Task lives in another OS
// process, nil otherwise. Sits on the injection fast path: one atomic
// load when no transport is installed.
func (f *Fabric) remoteFor(task int) Transport {
	s := f.transport.Load()
	if s == nil || s.t.Local(task) {
		return nil
	}
	return s.t
}

// injectRemote hands a memory-FIFO message to the inter-process
// transport, keeping the fabric's injection accounting so telemetry
// views traffic uniformly regardless of which leg carried it.
func (f *Fabric) injectRemote(t Transport, inj *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
	inj.sends.Add(1)
	hdr.Total = len(payload)
	hdr.Offset = 0
	npkts := int64(packetsFor(len(payload), MaxPayload))
	f.account(inj, hdr.Origin.Task, dst.Task, npkts, int64(len(payload))+npkts*PacketHeaderBytes)
	return t.Send(dst, hdr, payload)
}

// DeliverRemoteBurst injects a message segment that arrived from a peer
// process into the destination endpoint's reception FIFO, packetized
// exactly like a local injection (MaxPayload chunks, metadata only on
// the offset-0 packet, the same packetizer). hdr.Offset is the segment's
// absolute offset within hdr.Total; meta and payload are copied — into
// the packet itself when they fit (InlineMax), else into pooled slabs —
// so the caller may reuse its frame buffer immediately. The packets are
// queued without waking the consumer: the transport owes one
// EndRemoteBurst naming dst once its burst is over — and before it
// sleeps on a refusal, or a full FIFO whose consumer is parked never
// drains.
//
// It returns the number of payload bytes delivered. On backpressure
// (the FIFO's overflow is at cap) the error wraps
// lockless.ErrBackpressure and consumed < len(payload): the caller
// retries with the remainder — hdr.Offset advanced by consumed — once
// the consumer drains, so no packet is ever delivered twice.
func (f *Fabric) DeliverRemoteBurst(dst TaskAddr, hdr Header, payload []byte) (consumed int, err error) {
	fifo, err := f.lookupContext(dst)
	if err == nil {
		err = hdr.checkNarrow(max(hdr.Total, hdr.Offset+len(payload)))
	}
	if err != nil {
		return 0, err
	}
	// Wire integrity and ordering are the transport's job; mark the
	// packets as having bypassed the in-process reliable layer.
	hdr.PktSeq, hdr.Checksum = 0, 0
	if hdr.Offset != 0 {
		hdr.Meta = nil
	}
	return f.enqueue(nil, fifo, dst, &hdr, payload, nil)
}

// EndRemoteBurst wakes the consumers of the endpoints a burst of
// DeliverRemoteBurst calls queued packets for: one touch of each
// endpoint's wakeup region, however many packets it was sent.
func (f *Fabric) EndRemoteBurst(dsts []TaskAddr) {
	contexts := *f.contexts.Load()
	for _, dst := range dsts {
		if fifo, ok := contexts[dst]; ok {
			fifo.region.Touch()
		}
	}
}

// crossProcessRDMACheck rejects RDMA naming a task in another process:
// memregions are process memory, and the simulated MU
// cannot reach across address spaces. Rendezvous between processes is
// avoided above this layer (core forces eager for remote tasks); this
// guard turns any residual attempt into a typed error instead of a
// silent miss deep in the memregion table.
func (f *Fabric) crossProcessRDMACheck(op string, task int) error {
	if t := f.remoteFor(task); t != nil {
		return fmt.Errorf("%w: %s names task %d hosted by another process", ErrCrossProcessRDMA, op, task)
	}
	return nil
}
