// Package shmem models PAMI's intra-node shared-memory device (paper
// §III.F). With multiple processes per node, messages between node peers
// never touch the torus: each process (strictly, each context) owns one
// reception queue that peers write into with L2 atomic bounded-increment
// slot allocation — "each process owns only one queue to which others
// atomically write into" — and the wakeup unit replaces polling on the
// receive path, exactly as it does for the MU.
//
// The queue carries the MU's reception element, mu.Packet, built by the
// MU's one packetizer with the whole message as its chunk: one element
// per message. Up to mu.InlineMax bytes of metadata and payload ride in
// the element itself, so the sender copies them once and no pooled
// buffer moves; a larger payload is a view of a slab — the sender's own
// under ownership transfer, else a pooled copy — that the consumer
// dispatches from and releases. Large messages go by the PAMI core's
// rendezvous protocol instead: the sender publishes its buffer in its
// memregion table (package mu), the node peer copies directly out of the
// sender's memory, as CNK's shared address space allows, and the queue
// carries only the control messages.
package shmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/bufpool"
	"pamigo/internal/lockless"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
)

// Message is the queue's element: the MU reception element, under the
// name the benchmark's ladder uses.
type Message = mu.Packet

// Device is the shared-memory reception queue of one context.
type Device struct {
	addr   mu.TaskAddr
	q      *lockless.Queue[mu.Packet]
	region *wakeup.Region
}

// Poll removes the next message, if one is ready. Single consumer: the
// thread advancing the owning context, which must Release the message
// after dispatch.
func (d *Device) Poll() (mu.Packet, bool) {
	m, ok := d.q.Dequeue()
	return m, ok
}

// PollBatch drains up to len(dst) messages in delivery order with one
// head update on the lockless queue. The consumer must Release each
// drained message after dispatch.
func (d *Device) PollBatch(dst []mu.Packet) int {
	return d.q.DrainInto(dst)
}

// Empty reports whether the queue holds no messages.
func (d *Device) Empty() bool { return d.q.Empty() }

// Region returns the wakeup region touched on every delivery.
func (d *Device) Region() *wakeup.Region { return d.region }

// Received returns the number of messages delivered to this device: the
// queue's tail ticket, which every delivery already advances.
func (d *Device) Received() int64 { return d.q.Enqueued() }

// Pressure reports the device's queue occupancy, the figure senders pace
// eager traffic on before committing a copy into shared memory.
func (d *Device) Pressure() int64 { return int64(d.q.Len()) }

// Node is the per-node shared-memory segment: the registry mapping local
// endpoints to their reception queues.
type Node struct {
	rank torus.Rank

	mu  sync.RWMutex
	eps map[mu.TaskAddr]*Device
	gen atomic.Uint64 // bumped on every Register/Deregister; see Gen
}

// NewNode returns an empty shared-memory segment for the node with the
// given torus rank (the rank only labels errors and diagnostics).
func NewNode(rank torus.Rank) *Node {
	return &Node{rank: rank, eps: make(map[mu.TaskAddr]*Device)}
}

// Register creates and publishes the reception queue for a local endpoint.
// Deliveries signal region; pass the owning context's shared region. The
// queue's lock-free array holds slots messages before spilling into the
// mutex-protected overflow.
func (n *Node) Register(addr mu.TaskAddr, slots int, region *wakeup.Region) (*Device, error) {
	if region == nil {
		region = wakeup.NewRegion()
	}
	d := &Device{
		addr:   addr,
		q:      lockless.NewQueue[mu.Packet](slots),
		region: region,
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[addr]; dup {
		return nil, fmt.Errorf("shmem: endpoint %v already registered", addr)
	}
	n.eps[addr] = d
	n.gen.Add(1)
	return d, nil
}

// Deregister removes a local endpoint's queue.
func (n *Node) Deregister(addr mu.TaskAddr) {
	n.mu.Lock()
	delete(n.eps, addr)
	n.gen.Add(1)
	n.mu.Unlock()
}

// Gen returns a generation stamp that changes with every Register or
// Deregister. Senders that cache a Resolve result revalidate against it
// instead of re-probing the endpoint map under its lock per message.
func (n *Node) Gen() uint64 { return n.gen.Load() }

// Resolve looks up the reception device of a local endpoint, for senders
// that pin a destination: resolve once, revalidate with Gen, then send
// through SendTo/SendBufTo with no lock or map probe per message.
func (n *Node) Resolve(dst mu.TaskAddr) (*Device, bool) {
	n.mu.RLock()
	d, ok := n.eps[dst]
	n.mu.RUnlock()
	return d, ok
}

// Send copies the message into the destination endpoint's queue and
// wakes its region, so the caller may reuse its buffers immediately.
// Safe for concurrent use by any number of local producers; per-producer
// FIFO order is preserved by the lockless queue.
func (n *Node) Send(dst mu.TaskAddr, hdr mu.Header, payload []byte) error {
	d, ok := n.Resolve(dst)
	if !ok {
		return fmt.Errorf("shmem: no endpoint %v on this node", dst)
	}
	return n.send(d, hdr, payload, nil)
}

// SendTo is Send against an already-resolved device.
func (n *Node) SendTo(d *Device, hdr mu.Header, payload []byte) error {
	return n.send(d, hdr, payload, nil)
}

// SendBuf is Send with ownership transfer: the caller relinquishes the
// pooled payload and the queue takes it with no copy at all — the
// receiving context dispatches straight out of the sender's slab and
// Releases it — unless the message fits in the element, which then holds
// a copy and the slab is released on the spot. The reference is
// consumed on every path, error included. A nil payload is the
// zero-length message.
func (n *Node) SendBuf(dst mu.TaskAddr, hdr mu.Header, payload *bufpool.Buf) error {
	d, ok := n.Resolve(dst)
	if !ok {
		payload.Release()
		return fmt.Errorf("shmem: no endpoint %v on this node", dst)
	}
	return n.SendBufTo(d, hdr, payload)
}

// SendBufTo is SendBuf against an already-resolved device.
func (n *Node) SendBufTo(d *Device, hdr mu.Header, payload *bufpool.Buf) error {
	if payload == nil {
		return n.send(d, hdr, nil, nil)
	}
	return n.send(d, hdr, payload.Bytes(), payload)
}

// send packs the message into one element, queues it and wakes the
// consumer. own is the relinquished slab src views, nil when the caller
// keeps src; on refusal the element's references are reclaimed.
func (n *Node) send(d *Device, hdr mu.Header, src []byte, own *bufpool.Buf) error {
	var p mu.Packet
	if err := p.PackWhole(hdr, src, own); err != nil {
		return err
	}
	if err := d.q.EnqueueRef(&p); err != nil {
		p.Release()
		return fmt.Errorf("shmem: endpoint %v on node %d refused message from %v: %w",
			d.addr, n.rank, hdr.Origin, err)
	}
	d.region.Touch()
	return nil
}
