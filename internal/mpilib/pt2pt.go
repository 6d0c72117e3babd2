package mpilib

import (
	"fmt"
	"runtime"
	"slices"

	"pamigo/internal/abort"
	"pamigo/internal/bufpool"
	"pamigo/internal/core"
	"pamigo/internal/l2atomic"
	"pamigo/internal/watchdog"
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
//
// A request carries its failure: a send that cannot complete (its
// rendezvous cancelled by the receiver's death, its deferred retry or
// its commthread injection failed) completes with err set, and the wait
// that collects it returns err.
type Request struct {
	done   l2atomic.Counter
	status Status
	err    error
	w      *World
	freed  bool

	env    [envelopeLen]byte
	sent   func()
	failed func(error)
	recv   postedRecv
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
		r.status, r.err = Status{}, nil
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
		req.failed = func(err error) { req.err = err; req.done.Store(1) }
	}
	srcCtx := w.contextForDest(destWorld, c.id)
	dstOrd := w.contextOrdinalForSrc(w.rank, c.id)
	params := core.SendParams{
		Dest:     core.Endpoint{Task: destWorld, Ctx: dstOrd},
		Dispatch: dispatchMPI,
		Meta:     req.env[:],
		Mode:     mode,
		OnDone:   req.sent,
		OnFail:   req.failed,
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
				req.failed(err)
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

// Send is the blocking send. It returns the send's failure, such as a
// rendezvous cancelled by its receiver's death, or the World's abort.
// After an abort the receiver may still pull a rendezvous payload that
// was pending: that pull reads buf in place and never writes it.
func (c *Comm) Send(buf []byte, dest, tag int) error {
	req, err := c.Isend(buf, dest, tag)
	if err != nil {
		return err
	}
	return c.w.waitFree([]*Request{req})
}

// Recv is the blocking receive; it returns the completion status, or the
// World's abort, with the receive withdrawn from matching.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	req, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	err = c.w.waitall([]*Request{req})
	st := req.Status()
	req.Free()
	return st, err
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
	err = c.w.waitall([]*Request{rreq, sreq})
	st := rreq.Status()
	rreq.Free()
	sreq.Free()
	return st, err
}

// idleBudget is how many passes in a row that move nothing a wait makes
// before it registers at the mpilib.wait site, so only a wait that is
// already stalled pays for the registration.
const idleBudget = 256

// wait is the one wait every MPI request completes through. Each pass
// drives progress and polls; it returns nil once poll reports done, else
// the World's latched abort cause if there is one, else yields the
// processor when neither progress nor poll moved anything, so the
// senders and commthreads it depends on run even on one core. After
// idleBudget idle passes in a row the wait enters a park of its own at
// mpilib.wait and leaves it when a pass moves something, so the park's
// age measures one continuous stall; if it outlives the stall deadline
// the sentinel's hook latches the World's cause, and this wait and every
// later one return it.
func (w *World) wait(poll func() (done, moved bool)) (err error) {
	var park *watchdog.Park
	for idle := 0; ; {
		worked := w.progress()
		done, moved := poll()
		if done {
			break
		}
		if c := w.cause.Load(); c != nil {
			err = c
			break
		}
		if worked > 0 || moved {
			if idle >= idleBudget {
				park.Leave()
			}
			idle = 0
			continue
		}
		if idle++; idle == idleBudget {
			if park == nil {
				// A park belongs to one waiter, and under
				// MPI_THREAD_MULTIPLE several threads wait at once.
				park = new(watchdog.Park)
				w.site.Attach(park, w.latch)
			}
			park.Enter()
		}
		runtime.Gosched()
	}
	if park != nil {
		park.Detach()
	}
	return err
}

// latch is the escalation hook of every park at mpilib.wait: the first
// cause wins, and the abort is terminal for the World.
func (w *World) latch(c *abort.Cause) { w.cause.CompareAndSwap(nil, c) }

// withdraw takes the receives among reqs that are still posted out of the
// posted queue, so that after an abort a late message is filed as
// unexpected instead of landing in a buffer its caller got back. A
// receive a progress thread has already matched is past withdrawal; its
// delivery is one synchronous copy, under way.
func (w *World) withdraw(reqs []*Request) {
	w.queueMu.Lock()
	for _, r := range reqs {
		if p := &r.recv; p.prev != nil || w.posted.head == p {
			w.posted.remove(p)
			w.tele.posted.Dec()
		}
	}
	w.queueMu.Unlock()
}

// Wait blocks until the request completes, driving progress as needed.
// The signature is void, so a failed request or an aborted World panics
// with the error; an aborted wait first withdraws its pending receives
// from matching.
func (w *World) Wait(req *Request) {
	w.Waitall([]*Request{req}) // on the stack, like waitall's residue of it
}

// Waitall blocks until every request completes, using the two-phase
// algorithm of paper §IV.A: the first pass visits each request once —
// overlapping the ID-to-object conversion with the (likely cache-missing)
// load of the next completion counter — and queues the incomplete ones;
// the second pass polls only the queued residue while driving progress.
// It panics like Wait.
func (w *World) Waitall(reqs []*Request) {
	if err := w.waitall(reqs); err != nil {
		panic(err)
	}
}

// waitall is Waitall returning the World's abort cause or, once every
// request completed, the first request's failure.
func (w *World) waitall(reqs []*Request) error {
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
	// Phase 2: poll the residue while making progress.
	if len(pending) > 0 {
		if err := w.wait(func() (bool, bool) {
			alive := pending[:0]
			for _, r := range pending {
				if !r.Done() {
					alive = append(alive, r)
				}
			}
			moved := len(alive) < len(pending)
			pending = alive
			return len(pending) == 0, moved
		}); err != nil {
			w.withdraw(pending)
			return err
		}
	}
	for _, r := range reqs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// waitFree completes and frees reqs, returning waitall's error.
func (w *World) waitFree(reqs []*Request) error {
	err := w.waitall(reqs)
	for _, r := range reqs {
		r.Free()
	}
	return err
}

// Test reports whether the request has completed, driving progress once
// if it has not (MPI_Test).
func (w *World) Test(req *Request) bool {
	return w.Testall([]*Request{req})
}

// Testall reports whether every request has completed (MPI_Testall):
// it polls and, if they have not, makes one step of the wait — one pass
// of progress and a poll, or, where commthreads own progress, a poll,
// the idle yield and a poll. A failed request counts as completed; its
// error surfaces from the Wait that collects it. An aborted World panics
// with its cause.
func (w *World) Testall(reqs []*Request) bool {
	all, polls := allDone(reqs), 1
	if w.client.CommThreadsEnabled() {
		polls = 2
	}
	if !all {
		if err := w.wait(func() (bool, bool) {
			all, polls = allDone(reqs), polls-1
			return all || polls == 0 && w.cause.Load() == nil, false
		}); err != nil {
			panic(err)
		}
	}
	return all
}

func allDone(reqs []*Request) bool {
	for _, r := range reqs {
		if !r.Done() {
			return false
		}
	}
	return true
}

// Waitany blocks until at least one request completes and returns its
// index (MPI_Waitany). With an empty slice it returns -1. It panics like
// Wait.
func (w *World) Waitany(reqs []*Request) int {
	if len(reqs) == 0 {
		return -1
	}
	idx := -1
	err := w.wait(func() (bool, bool) {
		idx = slices.IndexFunc(reqs, (*Request).Done)
		return idx >= 0, false
	})
	if err == nil {
		err = reqs[idx].err
	} else {
		w.withdraw(reqs)
	}
	if err != nil {
		panic(err)
	}
	return idx
}

// Probe checks, without receiving, whether a matching message has arrived
// (it drives progress once per call like MPICH2's MPI_Iprobe).
func (c *Comm) Probe(src, tag int) (Status, bool) {
	w := c.w
	w.progress()
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
