package mpilib

import (
	"encoding/binary"
	"fmt"

	"pamigo/internal/bufpool"
	"pamigo/internal/core"
)

// Wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG). Wildcard receives are common
// in BG/Q applications, which is why the paper keeps the single MPICH2
// receive queue under an L2-atomic mutex instead of per-source queues
// (§IV.A).
const (
	AnySource = -1
	AnyTag    = -1
)

// dispatchMPI is the PAMI dispatch ID of all MPI point-to-point traffic.
const dispatchMPI uint16 = 0x0001

// envelope is the MPI matching header carried as PAMI metadata.
type envelope struct {
	comm uint64
	src  int32 // communicator rank of the sender
	tag  int32
}

const envelopeLen = 8 + 4 + 4

// encode writes the envelope's wire form into buf (a Request's own
// bytes, so a send allocates no header).
func (e envelope) encode(buf *[envelopeLen]byte) {
	binary.LittleEndian.PutUint64(buf[0:], e.comm)
	binary.LittleEndian.PutUint32(buf[8:], uint32(e.src))
	binary.LittleEndian.PutUint32(buf[12:], uint32(e.tag))
}

func decodeEnvelope(meta []byte) (envelope, error) {
	if len(meta) < envelopeLen {
		return envelope{}, fmt.Errorf("mpilib: short envelope (%d bytes)", len(meta))
	}
	return envelope{
		comm: binary.LittleEndian.Uint64(meta[0:]),
		src:  int32(binary.LittleEndian.Uint32(meta[8:])),
		tag:  int32(binary.LittleEndian.Uint32(meta[12:])),
	}, nil
}

// matches applies the MPI matching rules of a receive's (comm, src, tag)
// against an incoming envelope.
func matches(comm uint64, src, tag int, e envelope) bool {
	if comm != e.comm {
		return false
	}
	if src != AnySource && int32(src) != e.src {
		return false
	}
	if tag != AnyTag && int32(tag) != e.tag {
		return false
	}
	return true
}

// The matching queues are intrusive doubly linked lists, like MPICH2's:
// matching may remove from the middle (wildcards), and removal must be
// O(1) so deep queues (thousands of posted receives) stay linear overall.
// The links live in the entries, so queueing allocates nothing.

// postedRecv is a posted receive's entry in the posted queue. It is
// embedded in its Request.
type postedRecv struct {
	comm       uint64
	src        int // communicator rank or AnySource
	tag        int
	buf        []byte
	req        *Request
	prev, next *postedRecv
}

// postedQueue holds the posted receives in post order.
type postedQueue struct {
	head, tail *postedRecv
	n          int
}

func (q *postedQueue) pushBack(p *postedRecv) {
	p.prev, p.next = q.tail, nil
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

func (q *postedQueue) remove(p *postedRecv) {
	if p.prev == nil {
		q.head = p.next
	} else {
		p.prev.next = p.next
	}
	if p.next == nil {
		q.tail = p.prev
	} else {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	q.n--
}

// unexpectedMsg is an entry in the unexpected queue: an eager message's
// payload, copied into a pool slab at arrival, or a retained rendezvous
// Delivery whose data is still parked in the sender's memory. Entries
// are recycled through the World's free list.
type unexpectedMsg struct {
	env        envelope
	data       *bufpool.Buf   // eager payload; nil for rendezvous and for 0 B
	size       int            // full message size
	rdv        *core.Delivery // non-nil for rendezvous
	prev, next *unexpectedMsg
}

// unexpectedQueue holds the unexpected messages in arrival order.
type unexpectedQueue struct {
	head, tail *unexpectedMsg
	n          int
}

func (q *unexpectedQueue) pushBack(u *unexpectedMsg) {
	u.prev, u.next = q.tail, nil
	if q.tail == nil {
		q.head = u
	} else {
		q.tail.next = u
	}
	q.tail = u
	q.n++
}

func (q *unexpectedQueue) remove(u *unexpectedMsg) {
	if u.prev == nil {
		q.head = u.next
	} else {
		u.prev.next = u.next
	}
	if u.next == nil {
		q.tail = u.prev
	} else {
		u.next.prev = u.prev
	}
	u.prev, u.next = nil, nil
	q.n--
}

// onMessage is the pamid dispatch: it looks up the posted-receive list
// and either lands the message in the matched buffer or files it in the
// unexpected queue (paper §IV). It runs on whichever thread advances the
// receiving context; the queue itself is serialized by the L2 mutex while
// payload copying into a matched buffer happens outside it, on the
// advancing thread — the parallelization split of §IV.A.
func (w *World) onMessage(ctx *core.Context, d *core.Delivery) {
	env, err := decodeEnvelope(d.Meta)
	if err != nil {
		panic(err.Error())
	}
	w.queueMu.Lock()
	match := w.matchPosted(env)
	if match == nil {
		w.fileUnexpected(env, d)
		w.queueMu.Unlock()
		return
	}
	w.queueMu.Unlock()

	// Deliver outside the queue mutex.
	n := min(d.Size, len(match.buf))
	if d.IsRendezvous() {
		if err := d.Receive(match.buf[:n], nil); err != nil {
			panic(err.Error())
		}
	} else {
		copy(match.buf[:n], d.Data[:n])
	}
	match.req.complete(Status{Source: int(env.src), Tag: int(env.tag), Count: n})
}

// matchPosted removes and returns the oldest posted receive the envelope
// matches, or nil. Caller holds queueMu.
func (w *World) matchPosted(env envelope) *postedRecv {
	for p := w.posted.head; p != nil; p = p.next {
		w.tele.matchAttempts.Inc()
		if matches(p.comm, p.src, p.tag, env) {
			w.posted.remove(p)
			w.tele.posted.Dec()
			w.tele.matchHits.Inc()
			return p
		}
	}
	return nil
}

// fileUnexpected queues a message no posted receive wanted: a rendezvous
// Delivery is kept as is (its payload stays in the sender's memory until
// a receive matches — rendezvous flow control for free), an eager payload
// is copied into a pool slab. Caller holds queueMu.
func (w *World) fileUnexpected(env envelope, d *core.Delivery) {
	un := w.unexFree
	if un != nil {
		w.unexFree = un.next
	} else {
		un = new(unexpectedMsg)
	}
	*un = unexpectedMsg{env: env, size: d.Size}
	if d.IsRendezvous() {
		un.rdv = d
	} else if len(d.Data) > 0 {
		un.data = bufpool.GetCopy(d.Data)
	}
	w.unex.pushBack(un)
	w.tele.unexpected.Inc()
}

// matchUnexpected removes the oldest unexpected message the receive
// matches and returns a copy of it. The entry goes straight back on the
// free list; the caller owns the payload slab in the copy and releases it
// once the payload is out. Caller holds queueMu.
func (w *World) matchUnexpected(comm uint64, src, tag int) (m unexpectedMsg, ok bool) {
	for un := w.unex.head; un != nil; un = un.next {
		w.tele.matchAttempts.Inc()
		if matches(comm, src, tag, un.env) {
			w.unex.remove(un)
			w.tele.unexpected.Dec()
			w.tele.matchHits.Inc()
			m = *un
			*un = unexpectedMsg{next: w.unexFree}
			w.unexFree = un
			return m, true
		}
	}
	return m, false
}

// QueueDepths reports the current posted/unexpected queue lengths
// (benchmark instrumentation).
func (w *World) QueueDepths() (posted, unexpected int) {
	w.queueMu.Lock()
	p, u := w.posted.n, w.unex.n
	w.queueMu.Unlock()
	return p, u
}
