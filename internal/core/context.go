package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"pamigo/internal/abort"
	"pamigo/internal/bufpool"
	"pamigo/internal/l2atomic"
	"pamigo/internal/lockless"
	"pamigo/internal/mu"
	"pamigo/internal/shmem"
	"pamigo/internal/telemetry"
	"pamigo/internal/wakeup"
	"pamigo/internal/watchdog"
)

// DispatchFn is an active-message handler. It runs during Advance on the
// thread advancing the context. d.Data and d.Meta point into pooled
// transport buffers that are recycled as soon as the handler returns, and
// for an eager delivery d itself is a per-context scratch object — copy
// anything you keep (the PAMI "pipe address" contract) and never retain d
// past the call. The one exception is rendezvous: d.Data is nil and the
// handler (now or later) calls d.Receive to pull the payload, so a
// rendezvous d may be retained until Receive completes.
type DispatchFn func(ctx *Context, d *Delivery)

// Dispatch ID space: user handlers below MaxUserDispatch, internal
// protocol handlers above it.
const (
	// MaxUserDispatch is the first dispatch ID reserved for PAMI itself.
	MaxUserDispatch uint16 = 0xFF00

	dispatchRTS  uint16 = 0xFF10 // rendezvous request-to-send
	dispatchAck  uint16 = 0xFF11 // rendezvous completion ack
	dispatchColl uint16 = 0xFF12 // software collective payload

	// dispatchLowIDs bounds the flat handler array that serves the packet
	// hot path; IDs at or above it fall back to the map.
	dispatchLowIDs = 64
)

// Context is a PAMI communication context (paper §III.B): an independent
// unit of messaging parallelism with exclusive hardware resources.
//
// Thread contract, exactly as the paper states it: Advance, Send and
// SendImmediate are thread-unsafe — callers either pin one thread per
// context, hold the context lock, or hand work off through Post, which is
// always safe from any thread.
type Context struct {
	client   *Client
	addr     Endpoint
	hwThread int
	region   *wakeup.Region

	work   *lockless.Queue[func()]
	muRes  *mu.ContextResources
	shmDev *shmem.Device

	lock l2atomic.Mutex

	// dispatchLow short-circuits the handler lookup for the small IDs
	// every runtime actually uses (MPI, chare, and the benches all
	// register single-digit dispatch numbers): an indexed load instead of
	// a map hash per delivered packet. dispatch remains the authoritative
	// table for the full ID space.
	dispatchLow [dispatchLowIDs]DispatchFn
	dispatch    map[uint16]DispatchFn

	// Sender-side state (touched only while advancing/sending).
	sendSeq uint64
	nextMR  uint64
	pending map[uint64]*pendingSend
	reasm   map[reasmKey]*reasmState
	inbox   map[inboxKey][]byte

	// deferred parks sends whose destination sat at or over the hard
	// unexpected-message budget: the payload stays in our memory and the
	// send is retried by Advance once pressure clears. Keyed per
	// destination, and once a destination has a queue every later Send to
	// it joins the tail, so point-to-point order survives the detour.
	// deferredLen mirrors the total across destinations (checked on every
	// Advance, so it must not cost a map walk).
	deferred    map[Endpoint][]SendParams
	deferredLen int

	// epoch is the membership epoch this context last observed. Advance
	// compares it against the machine's (one atomic load; always 0 when no
	// failure detector is armed) and on a change cancels rendezvous sends
	// whose peer died — their completion ack will never arrive.
	epoch int64

	// Batch-drain scratch, reused across every Advance call so the steady
	// state allocates nothing. Only the advancing thread touches these
	// (Advance is thread-unsafe by contract), and handlers never re-enter
	// Advance on the same context, so one set per context suffices.
	workBatch []func()
	pktBatch  []mu.Packet

	// del is the scratch Delivery reused for every eager dispatch. The
	// DispatchFn contract makes the Delivery (not just Data) valid only for
	// the duration of the call; rendezvous deliveries, which handlers may
	// legitimately retain until Receive, are still allocated fresh.
	del Delivery

	// dcache is the context's single-entry destination-resolution cache:
	// repeated sends to one endpoint (the dominant pattern under pinned
	// routes) skip the shmem endpoint map / MU context map per message.
	// Owner-thread only, like every other send-side field.
	dcache destEntry

	stats *ctxStats

	// aborted is the typed cancellation flag for the deferred-send
	// queues: any thread (the stall sentinel's scanner, a shutdown path)
	// stores a cause via Abort, and the owning thread drains it on its
	// next Advance — failing every parked deferred send with the cause —
	// because only the owner may touch the thread-unsafe queues.
	aborted atomic.Pointer[abort.Cause]

	// userMRs numbers the context's RegisterMemory regions; any thread
	// may register.
	userMRs atomic.Uint64

	// Stall-sentinel wiring, attached at creation: the observe-only idle
	// park of the progress loop (a loop sleeping on the wakeup region is
	// legitimately indefinite) and the deferred queue's park, whose hook
	// is Abort: entered with the first deferred send, restarted whenever
	// a send leaves the queue, left when it empties (deferredLeft).
	idlePark     watchdog.Park
	deferredPark watchdog.Park

	// drainedGen is the region generation at which a progress-loop pass
	// last found the context's sources drained: the pass began at it,
	// came up short and ended with the generation unmoved. Until the
	// region is touched again there is nothing to advance, so the loop
	// sleeps on it without a pass; passes of other callers in between
	// only take items out. Written only by advance (scripts/lint_parks.sh
	// pins that); a second writer could put a waiter to sleep on a
	// generation nobody drained. Owner-thread only, like the queues.
	drainedGen uint64

	// reasmOld holds finished reassembly states for reuse; without it
	// every multi-packet message allocates one. pendOld does the same for
	// retired rendezvous sends. Owner-thread only.
	reasmOld []*reasmState
	pendOld  []*pendingSend
}

// ctxStats is a context's hardware-counter set (paper §V quantities):
// lock-free telemetry slots created once at context creation and updated
// with single atomic adds on the hot paths.
type ctxStats struct {
	sendsImmediate *telemetry.Counter
	sendsEager     *telemetry.Counter
	sendsRdv       *telemetry.Counter
	bytesSent      *telemetry.Counter
	delivered      *telemetry.Counter
	advances       *telemetry.Counter
	workItems      *telemetry.Counter
	rdvInflight    *telemetry.Gauge   // rendezvous sends awaiting ack (hwm = peak exposure)
	rdvCompleted   *telemetry.Counter // rendezvous sends acked
	rdvFailed      *telemetry.Counter // rendezvous sends cancelled: peer died

	eagerFallbacks *telemetry.Counter // ModeAuto eager sends degraded to rendezvous: destination congested
	throttled      *telemetry.Counter // SendImmediate calls refused with ErrThrottled
	inboxMsgs      *telemetry.Gauge   // software-collective fragments parked in the inbox (hwm = peak)
	deferredSends  *telemetry.Gauge   // sends parked for an over-budget destination (hwm = peak)

	// How each collective wait, classroute or software, resolved: without
	// a park, or by parking on its wakeup region. Parked waits dominating is
	// normal (seven of eight members wait for the last); parked falling to
	// zero while throughput falls means waiting has become spinning again.
	collSpun   *telemetry.Counter
	collParked *telemetry.Counter
}

func newCtxStats(reg *telemetry.Registry) *ctxStats {
	return &ctxStats{
		sendsImmediate: reg.Counter("sends_immediate"),
		sendsEager:     reg.Counter("sends_eager"),
		sendsRdv:       reg.Counter("sends_rendezvous"),
		bytesSent:      reg.Counter("bytes_sent"),
		delivered:      reg.Counter("dispatches"),
		advances:       reg.Counter("advances"),
		workItems:      reg.Counter("work_items"),
		rdvInflight:    reg.Gauge("rdv_inflight"),
		rdvCompleted:   reg.Counter("rdv_completed"),
		rdvFailed:      reg.Counter("rdv_failed"),

		eagerFallbacks: reg.Counter("eager_fallbacks"),
		throttled:      reg.Counter("throttled"),
		inboxMsgs:      reg.Gauge("inbox_msgs"),
		deferredSends:  reg.Gauge("deferred_sends"),

		collSpun:   reg.Counter("coll_waits_spun"),
		collParked: reg.Counter("coll_waits_parked"),
	}
}

type reasmKey struct {
	origin Endpoint
	seq    uint64
}

type reasmState struct {
	buf      []byte // full-message assembly area, backed by bbuf
	bbuf     *bufpool.Buf
	got      int
	dispatch uint16
	meta     []byte // copied out of the first packet, backed by mbuf
	mbuf     *bufpool.Buf
}

type inboxKey struct {
	geom  uint64
	seq   uint64
	src   int
	phase uint8
}

type pendingSend struct {
	dst    Endpoint
	onDone func()
	onFail func(error)
	mrID   uint64
	buf    *bufpool.Buf // ownership-transfer payload; released when the send retires
}

// Client returns the owning client.
func (ctx *Context) Client() *Client { return ctx.client }

// Endpoint returns the context's own address.
func (ctx *Context) Endpoint() Endpoint { return ctx.addr }

// Region returns the context's wakeup region; posting work or delivering
// traffic touches it.
func (ctx *Context) Region() *wakeup.Region { return ctx.region }

// Lock acquires the context's L2-atomic mutex. Two threads that must use
// the same context serialize through it (paper §III.B).
func (ctx *Context) Lock() { ctx.lock.Lock() }

// Unlock releases the context lock.
func (ctx *Context) Unlock() { ctx.lock.Unlock() }

// TryLock acquires the context lock only if it is free.
func (ctx *Context) TryLock() bool { return ctx.lock.TryLock() }

// RegisterDispatch installs the handler for a user dispatch ID. Register
// all handlers before communication starts; registration is not
// synchronized with Advance.
func (ctx *Context) RegisterDispatch(id uint16, fn DispatchFn) error {
	if id >= MaxUserDispatch {
		return fmt.Errorf("core: dispatch id %#x is reserved", id)
	}
	if fn == nil {
		return fmt.Errorf("core: nil dispatch handler")
	}
	ctx.dispatch[id] = fn
	if id < dispatchLowIDs {
		ctx.dispatchLow[id] = fn
	}
	return nil
}

// dispatchFor resolves the handler for a dispatch ID: indexed load for
// the low IDs on the packet hot path, map lookup above that.
func (ctx *Context) dispatchFor(id uint16) (DispatchFn, bool) {
	if id < dispatchLowIDs {
		fn := ctx.dispatchLow[id]
		return fn, fn != nil
	}
	fn, ok := ctx.dispatch[id]
	return fn, ok
}

// Post hands a work function to the context's lock-free work queue to be
// executed by whichever thread next advances the context — the message
// handoff that lets application threads drive many contexts without locks
// (paper §III.B-C). Safe from any thread.
func (ctx *Context) Post(fn func()) {
	if err := ctx.work.Enqueue(fn); err != nil {
		// Tens of thousands of posted closures pending means the context
		// is never advanced again (its process died mid-run); dropping
		// work silently would turn that into a quiet deadlock.
		panic(fmt.Sprintf("core: context %v work queue: %v", ctx.addr, err))
	}
	ctx.region.Touch()
}

// Advance makes progress on the context: it runs posted work, then
// receives from the MU reception FIFO and, into what is left of the
// batch, the shared-memory queue, up to max items, and returns the number
// processed. Both devices queue mu.Packet, so one scratch array and one
// loop serve them. Each source is drained in batches — one queue-head
// update per batch rather than per item — into per-context scratch
// arrays, so the steady state performs no allocation. A pass that comes
// up short of max returns: there is no second, dry scan, and the caller's
// progress loop makes the next look.
// Thread-unsafe by design; see the type comment.
func (ctx *Context) Advance(max int) int { return ctx.advance(max, false) }

// advance is Advance. With ends set — the progress loop's passes — a pass
// that comes up short ends on the region's generation, read on entry:
// every publish into the context's sources is followed by a touch of its
// region (DESIGN §7, progress-engine invariants), so if the generation
// has not moved, nothing the pass missed was published and touched
// before it began, and advance records the generation in drainedGen. If
// it moved, a pass that found something repeats; a dry one returns 0
// and leaves the next look to the loop. Only the loop sleeps on
// drainedGen, so only its passes pay the two loads of the region's line,
// which every producer's touch writes: a caller that polls (mpilib's
// wait) would take that miss on every message.
func (ctx *Context) advance(max int, ends bool) int {
	var gen uint64
	if ends {
		gen = ctx.region.Gen()
	}
	if e := ctx.client.mach.Epoch(); e != ctx.epoch {
		ctx.epoch = e
		ctx.cancelDeadSends()
	}
	if c := ctx.aborted.Load(); c != nil {
		ctx.aborted.Store(nil)
		ctx.failDeferred(false, "aborted", c)
	}
	n := 0
	if ctx.deferredLen > 0 {
		n += ctx.drainDeferred(max)
	}
	for from := n; n < max; {
		k := max - n
		if k > len(ctx.workBatch) {
			k = len(ctx.workBatch)
		}
		if w := ctx.work.DrainInto(ctx.workBatch[:k]); w > 0 {
			for i := 0; i < w; i++ {
				fn := ctx.workBatch[i]
				ctx.workBatch[i] = nil
				fn()
			}
			n += w
			continue
		}
		k = max - n
		if k > len(ctx.pktBatch) {
			k = len(ctx.pktBatch)
		}
		g := ctx.muRes.Rec.PollBatch(ctx.pktBatch[:k])
		if g < k {
			g += ctx.shmDev.PollBatch(ctx.pktBatch[g:k])
		}
		for i := 0; i < g; i++ {
			// An inline packet's bytes are this scratch element: the
			// handler's views die when the next drain overwrites it.
			ctx.handlePacket(&ctx.pktBatch[i])
			ctx.pktBatch[i].Release() // drops the slab pointers too
		}
		n += g
		if g < k {
			if !ends || ctx.deferredLen > 0 {
				// The loop does not sleep while a deferred send, which
				// nothing touches for, is queued.
				break
			}
			now := ctx.region.Gen()
			if now == gen {
				ctx.drainedGen = gen
				break
			}
			if n == from {
				// Touched during a pass that found nothing: the caller's
				// next look decides, so a region touched on someone
				// else's behalf cannot keep this call going.
				break
			}
			gen, from = now, n
		}
	}
	if n > 0 {
		ctx.stats.workItems.Add(int64(n))
	}
	ctx.stats.advances.Inc()
	return n
}

// AdvanceAuto is Advance at the progress loops' width, advanceBatch: the
// width of the scratch arrays, so one pass drains each source with one
// queue-head update.
func (ctx *Context) AdvanceAuto() int { return ctx.Advance(advanceBatch) }

// AdvanceUntil advances the context until cond reports true. It is the
// blocking-progress idiom the MPI layer uses while waiting for a request:
// the owner's call into the context's one progress loop, with no lock.
func (ctx *Context) AdvanceUntil(cond func() bool) { ctx.advanceUntil(cond, &ctx.idlePark, false) }

// advanceUntil is the context's one progress loop, run by AdvanceUntil,
// the commthread and the software collectives' fragment wait. At the
// generation in drainedGen nothing waits in the context's sources, so it
// may sleep on the wakeup region with no dry pass, registered at park
// until a pass makes progress. The first time a call finds itself idle
// it yields once instead and looks again: the peer its own send readied
// usually answers on this processor during the yield, a run-queue hop
// in place of a park and a wake. A later idle spell sleeps at once. A
// deferred send is never touched for: while one is queued it yields
// after a pass that moved nothing.
//
// With shared set, other threads advance the context too, and each pass
// holds the context lock, so cond may claim what a pass filed. Lock, not
// TryLock: a holder may have filed what cond waits for and touched the
// region before this pass read its generation, and a pass that left
// without looking would sleep on it. It reports whether it slept.
func (ctx *Context) advanceUntil(cond func() bool, park *watchdog.Park, shared bool) (slept bool) {
	parked, yielded := false, false
	defer func() {
		if parked {
			park.Leave()
		}
	}()
	for {
		// Observe, then re-check the condition under the observed
		// generation: a touch after the read ends the Wait below.
		gen := ctx.region.Gen()
		if shared {
			ctx.Lock()
		}
		done := cond()
		idle := !done && ctx.deferredLen == 0 && gen == ctx.drainedGen
		moved := !done && !idle && ctx.advance(advanceBatch, true) > 0
		deferred := ctx.deferredLen > 0
		if shared {
			ctx.Unlock()
		}
		switch {
		case done:
			return slept
		case idle && yielded:
			if !parked {
				parked = true
				park.Enter()
			}
			slept = true
			ctx.region.Wait(gen)
		case moved:
			// Progress resumed: leave the park so its age measures one
			// continuous stall, not the sum of unrelated idle spells.
			if parked {
				parked = false
				park.Leave()
			}
		case idle || deferred:
			// Let the peer this thread just readied run here: before the
			// call's first sleep, so that its answer lands while nobody
			// waits and costs no wake; and after every idle pass while a
			// deferred send waits on the destination's consumer.
			yielded = yielded || idle
			runtime.Gosched()
		}
	}
}

// advanceBatch is the progress loops' Advance width and the size of the
// batch-drain scratch arrays. 32 and 128 both measured 15-40 % slower,
// 512 less than half the rate (DESIGN §6b).
const advanceBatch = 64

// Abort posts a typed cancellation to the context's deferred-send
// queues. Safe from any thread (the stall sentinel's scanner, shutdown
// paths): the cause is latched — first one wins — and the owning thread
// drains it on its next Advance, failing every parked deferred send
// with an ErrAborted-wrapped error. The region touch wakes the owner if
// it is sleeping.
func (ctx *Context) Abort(c *abort.Cause) {
	if c == nil {
		return
	}
	if ctx.aborted.CompareAndSwap(nil, c) {
		ctx.region.Touch()
	}
}

// failDeferred fails parked deferred sends, destination by destination,
// with cause: every one of them on an abort, or with deadOnly only those
// whose destination died — its queue occupancy will never drain, so
// waiting on it would hang forever. Callbacks fire exactly as rendezvous
// cancellation fires them. Runs on the advancing thread, which owns the
// queues.
func (ctx *Context) failDeferred(deadOnly bool, verb string, cause error) {
	if ctx.deferredLen == 0 {
		return
	}
	queued := ctx.deferredLen
	for dst, q := range ctx.deferred {
		if deadOnly && ctx.client.mach.Alive(dst.Task) {
			continue
		}
		delete(ctx.deferred, dst)
		ctx.deferredLen -= len(q)
		for _, p := range q {
			p.DataBuf.Release()
			err := fmt.Errorf("core: deferred send %v -> %v %s: %w", ctx.addr, dst, verb, cause)
			if p.OnFail != nil {
				p.OnFail(err)
			} else if p.OnDone != nil {
				p.OnDone()
			}
		}
	}
	if ctx.deferredLen != queued {
		ctx.deferredLeft()
	}
}

// cancelDeadSends fails every pending rendezvous send whose destination
// node has been confirmed dead: the receiver can no longer pull the
// payload or ack it, so the publication is retired and the sender's
// completion callback fires exceptionally. Runs on the advancing thread
// when Advance observes a membership epoch change.
func (ctx *Context) cancelDeadSends() {
	ctx.failDeferred(true, "cancelled", mu.ErrPeerDead)
	if len(ctx.pending) == 0 {
		return
	}
	m := ctx.client.mach
	for sendID, ps := range ctx.pending {
		if m.Alive(ps.dst.Task) {
			continue
		}
		delete(ctx.pending, sendID)
		ctx.stats.rdvInflight.Dec()
		ctx.stats.rdvFailed.Inc()
		ctx.unpublish(ps)
		err := fmt.Errorf("core: rendezvous send %d to %v cancelled: %w", sendID, ps.dst, mu.ErrPeerDead)
		onDone, onFail := ps.onDone, ps.onFail
		ctx.retirePending(ps)
		if onFail != nil {
			onFail(err)
		} else if onDone != nil {
			// No failure callback: fire the completion callback anyway so a
			// waiter counting completions does not hang forever. The send
			// buffer really is reusable — nobody will ever pull from it.
			onDone()
		}
	}
}

// newPending takes a rendezvous send record from the context's free list.
func (ctx *Context) newPending() *pendingSend {
	if n := len(ctx.pendOld); n > 0 {
		ps := ctx.pendOld[n-1]
		ctx.pendOld = ctx.pendOld[:n-1]
		return ps
	}
	return new(pendingSend)
}

// unpublish retires a rendezvous send's memregion and releases its
// DataBuf slab.
func (ctx *Context) unpublish(ps *pendingSend) {
	ctx.client.mach.Fabric().DeregisterMemregion(ctx.addr.Task, ps.mrID)
	ps.buf.Release()
}

// retirePending returns a record that has left the pending table to the
// free list; the caller reads what it still needs out of it first.
func (ctx *Context) retirePending(ps *pendingSend) {
	*ps = pendingSend{}
	ctx.pendOld = append(ctx.pendOld, ps)
}

// Drain advances the context until it is quiescent: no posted work, no
// undelivered MU packets or shared-memory messages, no partial
// reassemblies, and no rendezvous sends awaiting their completion ack.
// Call it only once every peer has stopped initiating traffic (after a
// team barrier, or after a failure cancelled the job) — Drain is the
// quiesce step checkpointing requires, not a general-purpose flush.
// Quiet but not quiescent, it parks at core.ctx.idle until a late packet
// or ack touches the region. Rendezvous sends to dead peers are cancelled
// by the epoch check inside Advance, and the machine touches every region
// on a death, so Drain terminates even when a peer crashed mid-protocol.
func (ctx *Context) Drain() {
	ctx.AdvanceUntil(func() bool {
		return ctx.work.Empty() && ctx.muRes.Rec.Empty() && ctx.shmDev.Empty() &&
			len(ctx.reasm) == 0 && len(ctx.pending) == 0 && ctx.deferredLen == 0
	})
}

// Stats reports how many Advance calls ran, how many work items were
// processed, and how many user messages were delivered. The values come
// from the context's telemetry counters; the full set (sends by mode,
// bytes, rendezvous latencies) is in the machine's telemetry snapshot
// under core.task<T>.ctx<N>.
func (ctx *Context) Stats() (advances, workDone, delivered int64) {
	return ctx.stats.advances.Load(), ctx.stats.workItems.Load(), ctx.stats.delivered.Load()
}

// handlePacket processes one packet of either device: the whole message
// (every shared-memory element, and a single-packet MU message) or a
// piece to reassemble. It takes the packet by pointer into the drain
// scratch so the hot path never copies the Packet struct.
func (ctx *Context) handlePacket(pkt *mu.Packet) {
	if pkt.Whole() {
		ctx.handleMessage(pkt.Header(), pkt.Payload())
		return
	}
	hdr, payload := pkt.Header(), pkt.Payload()
	key := reasmKey{origin: hdr.Origin, seq: hdr.Seq}
	st, ok := ctx.reasm[key]
	if !ok {
		bb := bufpool.Get(hdr.Total)
		if n := len(ctx.reasmOld); n > 0 {
			st, ctx.reasmOld = ctx.reasmOld[n-1], ctx.reasmOld[:n-1]
		} else {
			st = new(reasmState)
		}
		*st = reasmState{buf: bb.Bytes(), bbuf: bb, dispatch: hdr.Dispatch}
		ctx.reasm[key] = st
	}
	if hdr.Offset == 0 && len(hdr.Meta) > 0 {
		// The packet's meta lives in the packet or in a pooled slab that
		// is released when the packet is; the reassembly outlives both.
		st.mbuf = bufpool.GetCopy(hdr.Meta)
		st.meta = st.mbuf.Bytes()
	}
	copy(st.buf[hdr.Offset:], payload)
	st.got += len(payload)
	if st.got >= len(st.buf) {
		delete(ctx.reasm, key)
		full := mu.Header{
			Dispatch: st.dispatch,
			Origin:   hdr.Origin,
			Seq:      hdr.Seq,
			Total:    len(st.buf),
			Meta:     st.meta,
		}
		ctx.handleMessage(full, st.buf)
		st.bbuf.Release()
		st.mbuf.Release()
		ctx.reasmOld = append(ctx.reasmOld, st)
	}
}

// handleMessage dispatches a fully reassembled message.
func (ctx *Context) handleMessage(hdr mu.Header, payload []byte) {
	switch hdr.Dispatch {
	case dispatchRTS:
		ctx.handleRTS(hdr)
		return
	case dispatchAck:
		ctx.handleAck(hdr)
		return
	case dispatchColl:
		ctx.handleCollMsg(hdr, payload)
		return
	}
	fn, ok := ctx.dispatchFor(hdr.Dispatch)
	if !ok {
		panic(fmt.Sprintf("core: endpoint %v received message for unregistered dispatch %#x", ctx.addr, hdr.Dispatch))
	}
	ctx.stats.delivered.Inc()
	// Eager dispatch reuses the context's scratch Delivery: per the
	// DispatchFn contract the Delivery is valid only during the call, and
	// only rendezvous deliveries (allocated fresh in handleRTS) may be
	// retained by handlers.
	d := &ctx.del
	*d = Delivery{
		Origin: hdr.Origin,
		Meta:   hdr.Meta,
		Size:   hdr.Total,
		Data:   payload,
		ctx:    ctx,
	}
	fn(ctx, d)
	*d = Delivery{}
}
