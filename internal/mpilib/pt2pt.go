package mpilib

import (
	"fmt"
	"runtime"

	"pamigo/internal/bufpool"
	"pamigo/internal/core"
	"pamigo/internal/l2atomic"
)

// Status describes a completed receive.
type Status struct {
	// Source is the sender's communicator rank.
	Source int
	// Tag is the message tag.
	Tag int
	// Count is the number of payload bytes delivered.
	Count int
}

// Request is a nonblocking operation handle. Completion is signalled
// through an L2-atomic counter that communication threads increment and
// the application thread polls — the cache interaction the two-phase
// Waitall of §IV.A is designed around.
//
// A Request carries what its point-to-point operation needs, so a pooled
// request of the thread-optimized build sends or receives without
// allocating: the envelope bytes a send's SendParams.Meta points at, the
// send's completion func (built the first time the object sends, then
// kept with it) and the posted-queue entry of a receive.
type Request struct {
	done   l2atomic.Counter
	status Status
	w      *World
	freed  bool

	env  [envelopeLen]byte
	sent func()
	recv postedRecv
}

func (r *Request) complete(st Status) {
	r.status = st
	r.done.Store(1)
}

// Done reports whether the operation has completed (non-blocking poll).
func (r *Request) Done() bool { return r.done.Load() != 0 }

// Status returns the completion status; valid only after Done.
func (r *Request) Status() Status { return r.status }

func (w *World) newRequest() *Request {
	if w.opts.Library == ThreadOptimized {
		r, _ := w.reqPool.Get().(*Request)
		if r == nil {
			r = new(Request)
		}
		r.done.Store(0)
		r.status = Status{}
		r.w = w
		r.freed = false
		return r
	}
	return &Request{w: w}
}

// Free releases the request. A completed request of the thread-optimized
// build goes back to the pool. An active one is orphaned instead: the
// matcher or the send in flight still holds it, so its operation
// completes into it and the garbage collector takes it afterwards. A
// second Free is a no-op.
func (r *Request) Free() {
	if r.freed {
		return
	}
	r.freed = true
	if r.w != nil && r.w.opts.Library == ThreadOptimized && r.Done() {
		r.w.reqPool.Put(r)
	}
}

// Isend starts a nonblocking send of buf to dest (communicator rank) with
// the given tag and returns its request.
func (c *Comm) Isend(buf []byte, dest, tag int) (*Request, error) {
	return c.isend(buf, dest, tag, core.ModeAuto)
}

// IsendMode is Isend with an explicit protocol choice (the Table 3
// benchmark compares forced eager against forced rendezvous at 1MB).
func (c *Comm) IsendMode(buf []byte, dest, tag int, mode core.SendMode) (*Request, error) {
	return c.isend(buf, dest, tag, mode)
}

func (c *Comm) isend(buf []byte, dest, tag int, mode core.SendMode) (*Request, error) {
	w := c.w
	if dest < 0 || dest >= c.size {
		return nil, fmt.Errorf("mpilib: send to rank %d of %d", dest, c.size)
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpilib: negative send tag %d", tag)
	}
	w.enter()
	defer w.exit()
	req := w.newRequest()
	destWorld := c.group[dest]
	envelope{comm: c.id, src: int32(c.rank), tag: int32(tag)}.encode(&req.env)
	// The status is known now; completion only publishes it.
	req.status = Status{Source: c.rank, Tag: tag, Count: len(buf)}
	if req.sent == nil {
		req.sent = func() { req.done.Store(1) }
	}
	srcCtx := w.contextForDest(destWorld, c.id)
	dstOrd := w.contextOrdinalForSrc(w.rank, c.id)
	params := core.SendParams{
		Dest:     core.Endpoint{Task: destWorld, Ctx: dstOrd},
		Dispatch: dispatchMPI,
		Meta:     req.env[:],
		Mode:     mode,
		OnDone:   req.sent,
	}
	if mode != core.ModeRendezvous && len(buf) <= w.client.EagerThreshold {
		// Eager-size payloads are copied once here, at the MPI boundary,
		// into a relinquished pool slab: the layers below reference the
		// slab instead of re-copying (same-node receivers dispatch
		// straight out of it), and on the commthread path the copy runs
		// on the application thread, off the injection thread. Rendezvous
		// payloads stay in caller memory — MPI forbids touching the
		// buffer until completion, so the pull reads it in place. A
		// zero-length payload takes no slab at all.
		if len(buf) > 0 {
			params.DataBuf = bufpool.GetCopy(buf)
		}
	} else {
		params.Data = buf
	}
	if w.client.CommThreadsEnabled() && w.opts.Library == ThreadOptimized {
		// Hand off descriptor construction and injection to the context's
		// commthread (paper §IV.A: "leveraged parallelism from PAMI
		// contexts to hand off the work in MPI_Isends ... to a
		// communication thread").
		srcCtx.Post(func() {
			if err := srcCtx.Send(params); err != nil {
				panic("mpilib: posted send failed: " + err.Error())
			}
		})
		return req, nil
	}
	srcCtx.Lock()
	err := srcCtx.Send(params)
	srcCtx.Unlock()
	if err != nil {
		return nil, err
	}
	return req, nil
}

// Irecv posts a nonblocking receive into buf from src (communicator rank
// or AnySource) with the given tag (or AnyTag) and returns its request.
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	w := c.w
	if src != AnySource && (src < 0 || src >= c.size) {
		return nil, fmt.Errorf("mpilib: receive from rank %d of %d", src, c.size)
	}
	w.enter()
	defer w.exit()
	req := w.newRequest()
	w.queueMu.Lock()
	if un, ok := w.matchUnexpected(c.id, src, tag); ok {
		w.queueMu.Unlock()
		n := min(un.size, len(buf))
		if un.rdv != nil {
			if err := un.rdv.Receive(buf[:n], nil); err != nil {
				return nil, err
			}
		} else if un.data != nil {
			copy(buf[:n], un.data.Bytes())
			un.data.Release()
		}
		req.complete(Status{Source: int(un.env.src), Tag: int(un.env.tag), Count: n})
		return req, nil
	}
	req.recv = postedRecv{comm: c.id, src: src, tag: tag, buf: buf, req: req}
	w.posted.pushBack(&req.recv)
	w.tele.posted.Inc()
	w.queueMu.Unlock()
	return req, nil
}

// Send is the blocking send.
func (c *Comm) Send(buf []byte, dest, tag int) error {
	req, err := c.Isend(buf, dest, tag)
	if err != nil {
		return err
	}
	c.w.Wait(req)
	req.Free()
	return nil
}

// Recv is the blocking receive; it returns the completion status.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	req, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	c.w.Wait(req)
	st := req.Status()
	req.Free()
	return st, nil
}

// SendRecv performs a combined blocking send and receive, safe against
// head-to-head exchanges.
func (c *Comm) SendRecv(sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	rreq, err := c.Irecv(recvBuf, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	sreq, err := c.Isend(sendBuf, dest, sendTag)
	if err != nil {
		return Status{}, err
	}
	c.w.Waitall([]*Request{rreq, sreq})
	st := rreq.Status()
	rreq.Free()
	sreq.Free()
	return st, nil
}

// Wait blocks until the request completes, driving progress as needed.
func (w *World) Wait(req *Request) {
	if req.Done() {
		return
	}
	w.waitall([]*Request{req}) // on the stack, like waitall's residue of it
}

// Waitall blocks until every request completes, using the two-phase
// algorithm of paper §IV.A: the first pass visits each request once —
// overlapping the ID-to-object conversion with the (likely cache-missing)
// load of the next completion counter — and queues the incomplete ones;
// the second pass polls only the queued residue while driving progress.
func (w *World) Waitall(reqs []*Request) {
	w.waitall(reqs)
}

func (w *World) waitall(reqs []*Request) {
	// Phase 1: single sweep; prefetch-style pipelining of counter loads.
	// The residue of a blocking Send, Recv or SendRecv fits on the stack.
	var few [2]*Request
	pending := few[:0]
	for i, r := range reqs {
		if i+1 < len(reqs) {
			_ = reqs[i+1].done.Load() // warm the next counter's line
		}
		if !r.Done() {
			pending = append(pending, r)
		}
	}
	// Phase 2: poll the residue while making progress. Yield whenever a
	// poll pass achieves nothing, so the senders/commthreads we depend on
	// get CPU time even on a single-core host.
	for len(pending) > 0 {
		worked := 0
		if !w.client.CommThreadsEnabled() {
			worked = w.progress()
		}
		alive := pending[:0]
		for _, r := range pending {
			if !r.Done() {
				alive = append(alive, r)
			}
		}
		completed := len(pending) - len(alive)
		pending = alive
		if worked == 0 && completed == 0 {
			runtime.Gosched()
		}
	}
}

// Test reports whether the request has completed, driving progress once
// if it has not (MPI_Test).
func (w *World) Test(req *Request) bool {
	if req.Done() {
		return true
	}
	if !w.client.CommThreadsEnabled() {
		w.progress()
	} else {
		runtime.Gosched()
	}
	return req.Done()
}

// Testall reports whether every request has completed (MPI_Testall),
// driving progress once if not.
func (w *World) Testall(reqs []*Request) bool {
	all := true
	for _, r := range reqs {
		if !r.Done() {
			all = false
			break
		}
	}
	if all {
		return true
	}
	if !w.client.CommThreadsEnabled() {
		w.progress()
	} else {
		runtime.Gosched()
	}
	for _, r := range reqs {
		if !r.Done() {
			return false
		}
	}
	return true
}

// Waitany blocks until at least one request completes and returns its
// index (MPI_Waitany). With an empty slice it returns -1.
func (w *World) Waitany(reqs []*Request) int {
	if len(reqs) == 0 {
		return -1
	}
	for {
		for i, r := range reqs {
			if r.Done() {
				return i
			}
		}
		worked := 0
		if !w.client.CommThreadsEnabled() {
			worked = w.progress()
		}
		if worked == 0 {
			runtime.Gosched()
		}
	}
}

// Probe checks, without receiving, whether a matching message has arrived
// (it drives progress once per call like MPICH2's MPI_Iprobe).
func (c *Comm) Probe(src, tag int) (Status, bool) {
	w := c.w
	if !w.client.CommThreadsEnabled() {
		w.progress()
	}
	w.queueMu.Lock()
	defer w.queueMu.Unlock()
	for un := w.unex.head; un != nil; un = un.next {
		w.tele.matchAttempts.Inc()
		if matches(c.id, src, tag, un.env) {
			return Status{Source: int(un.env.src), Tag: int(un.env.tag), Count: un.size}, true
		}
	}
	return Status{}, false
}
