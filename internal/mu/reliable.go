package mu

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/bufpool"
	"pamigo/internal/fault"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
)

// The real MU never shows software a lost packet: every link protects
// its traffic with a CRC and retransmits on error, and the control
// system programs static routes around failed links at partition boot.
// This file reproduces that contract in software. It activates only
// when a fault injector is installed; with faults off, the fabric's
// send paths never touch any of this state.
//
// Protocol. Every packet of a (source endpoint -> destination endpoint)
// flow carries a link-level sequence number and a CRC-32C. The receiver
// side — which models MU hardware, not the destination CPU, and runs
// inline on whichever goroutine transmits — verifies the checksum,
// suppresses duplicates and restores strict in-order delivery (MPI
// matching and the collective inbox rely on per-flow ordering): the
// packet that is next in line goes straight into the reception FIFO, one
// that arrives past a hole parks in a reorder ring until the hole fills.
//
// Bursts. Software pays per burst, not per packet, as it pays the MU per
// descriptor: a sender stages up to burstMax packets of one message
// under one smu hold, the attempt pass decides each packet's fate, and
// the receiver takes the surviving copies under one rmu hold and answers
// them with one ack, selective and cumulative at once: seq (the highest
// sequence number the burst's copies reached), frontier (nextExp-1, the
// end of the in-order prefix), sack (what is parked past it) and seen
// (the highest sequence number accepted), plus a nack bit per copy whose
// CRC failed. The sender retires seq, the sack and everything <=
// frontier in one step, so a lost ack is repaired by the next one with
// no resend and no duplicate; seen > frontier says there is a hole, and
// that it starts at frontier+1.
//
// Who resends when. deliver does not apply the ack; it hands it to the
// goroutine that ran the attempt, which applies it under the send lock
// it needs anyway to stage its next burst and, if the ack reports a
// hole, resends the missing packet itself, at once, as a burst of one —
// provided the report proves a loss: the packet is unacknowledged, no
// attempt of it is executing, and the receiver has seen a packet staged
// after its last transmission (seen >= sentBefore). Each resend needs
// fresh proof. A nacked packet is resent the same way, up to maxFastRetx
// times per call. The daemon and its doubling timeout are the fallback:
// the tail of a stream (nothing later exposes the hole), delay faults,
// stalled or saturated receivers. However long a peer stays silent, the
// daemon keeps retrying; only the health monitor says it is dead.
//
// Window. Both sides keep fixed rings of sendWindow slots indexed by
// seq & winMask; the sender never stages at or past base+sendWindow, the
// receiver refuses anything at or past nextExp+sendWindow, and nothing on
// the per-packet path allocates. Bounds and lifecycle: DESIGN §7.
//
// Backpressure. A reception FIFO whose consumer has stopped draining
// refuses what it cannot hold (the origin's shard at its overflow cap):
// a refused packet gets no ack, so it stays in the window, the window
// fills, and the sender parks at the window gate until the daemon's
// resend finds room. That is the backpressure a full hardware FIFO
// exerts, and the only gate; a sender facing a deep queue also backs off
// paceDelay per message, well before any refusal.
const (
	// sendWindow bounds the span of unretired packets per flow (nextSeq -
	// base); injection blocks when the window is full, modeling FIFO
	// backpressure. It is also the size of the sender's window ring and of
	// the receiver's reorder ring, so it must stay a power of two.
	sendWindow = 64
	winMask    = sendWindow - 1
	// burstMax bounds a burst, so how long one sender holds smu and rmu; at
	// most sendWindow, since nack bits are seq&winMask. 4 KiB is one burst.
	burstMax = 16
	// initialRTO is the first retransmission timeout; it doubles on
	// every expiry up to maxRTO.
	initialRTO = 2 * time.Millisecond
	maxRTO     = 32 * time.Millisecond
	// daemonTick is the retransmission daemon's polling period.
	daemonTick = 500 * time.Microsecond
	// maxFastRetx bounds consecutive nack-triggered retransmits before the
	// sender falls back to its timer (guards pathological corruption rates).
	maxFastRetx = 8
	// maxRDMAAttempts bounds the per-chunk retry loop of faulted RDMA
	// operations.
	maxRDMAAttempts = 1 << 16
	// paceDepth is the reception-queue depth, in packets, past which a
	// sender backs off paceDelay before each message.
	paceDepth = 4096
	paceDelay = 50 * time.Microsecond
	hdrBytes  = 50 // serialized size of the header fields the checksum covers
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// packetChecksum computes the CRC-32C over every packet field except
// the checksum itself — header fields at their Header widths, metadata,
// payload, inline or slab alike. The header is serialized into scratch,
// which the caller keeps in the flow: crc32 reaches its hardware kernels
// through a function value, so a stack buffer would escape to the heap.
func packetChecksum(scratch *[hdrBytes]byte, p *Packet) uint32 {
	b := scratch[:]
	binary.LittleEndian.PutUint16(b[0:], p.dispatch)
	binary.LittleEndian.PutUint64(b[2:], uint64(p.task))
	binary.LittleEndian.PutUint64(b[10:], uint64(p.ctx))
	binary.LittleEndian.PutUint64(b[18:], p.seq)
	binary.LittleEndian.PutUint64(b[26:], uint64(p.offset))
	binary.LittleEndian.PutUint64(b[34:], uint64(p.total))
	binary.LittleEndian.PutUint64(b[42:], p.pktSeq)
	crc := crc32.Checksum(b, crcTable)
	if p.mlen > 0 {
		crc = crc32.Update(crc, crcTable, p.Meta())
	}
	return crc32.Update(crc, crcTable, p.Payload())
}

// corruptCopy returns a copy of the packet with one byte flipped, never
// in a slab the original views (the sender keeps it pristine for
// retransmission). The copy holds its own references: release it.
func corruptCopy(p *Packet, pick uint64) Packet {
	q := *p
	q.Retain()
	flip := byte(pick>>8) | 1
	switch {
	case q.plen > 0:
		if shared := q.pbuf; shared != nil {
			q.pbuf, q.poff = bufpool.GetCopy(p.Payload()), 0
			shared.Release()
		}
		q.Payload()[pick%uint64(q.plen)] ^= flip
	case q.mlen > 0:
		if shared := q.mbuf; shared != nil {
			q.mbuf = bufpool.GetCopy(p.Meta())
			shared.Release()
		}
		q.Meta()[pick%uint64(q.mlen)] ^= flip
	default:
		q.checksum ^= uint32(pick) | 1
	}
	return q
}

type flowKey struct{ src, dst TaskAddr }

// pendingPkt is one slot of a flow's send window. Lifecycle: staged
// (unacked, inflight 1 for the attempt its stager is about to run);
// further inflight holds for resends; acked by its own ack, a frontier or
// the flow's failure; the window's reference to the pooled slabs dropped
// once acked AND inflight == 0, never earlier, because attempts read pkt
// in place without the lock; reused once base has passed it and inflight
// has drained. All other fields are guarded by the flow's smu; times are
// the layer's clock (reliableLayer.now).
//
// Ownership (DESIGN §7): a reference is taken before the packet copy
// becomes reachable by a second goroutine — the receiver retains before
// it enqueues or parks, the delayed list before it appends, a
// multi-packet send takes every chunk's before the first is staged.
type pendingPkt struct {
	pkt      Packet
	deadline int64
	rto      time.Duration
	// sentBefore is the flow's nextSeq when this packet's latest
	// transmission was scheduled: a hole report that has seen a sequence
	// number >= sentBefore proves that transmission was overtaken.
	sentBefore uint64
	attempts   int32
	inflight   int32 // attempts executing outside smu; guards slab release and slot reuse
	acked      bool  // left the window; slabs released when inflight drains
}

// flow is the reliable-delivery state of one sender->receiver stream:
// the sender's window under smu, the receiver's reorder ring under rmu.
// The two locks are never held together; rmu -> reception FIFO internals
// is the only nesting.
type flow struct {
	key  flowKey
	hash uint64

	// Placement of the two endpoints, fixed for the flow's lifetime (a
	// revived node gets fresh flows).
	srcNode, dstNode torus.Rank
	srcOK, dstOK     bool

	smu     sync.Mutex
	cond    *sync.Cond
	base    uint64 // lowest unretired PktSeq; everything below has left the window
	nextSeq uint64
	win     [sendWindow]pendingPkt // slot of seq is win[seq&winMask], live for base <= seq < nextSeq
	failed  error                  // set once, permanently, by failFlow

	lastFifo *RecFIFO // destination FIFO; the daemon's resends and drain retries use it
	sscratch [hdrBytes]byte

	rmu      sync.Mutex
	nextExp  uint64
	maxSeen  uint64              // highest PktSeq accepted (delivered or parked)
	parked   uint64              // bit seq&winMask per packet in reorder
	reorder  *[sendWindow]Packet // slot of seq is reorder[seq&winMask]; allocated at the first hole
	rscratch [hdrBytes]byte
}

// retireLocked takes an unacked packet out of the window (acked, or the
// flow failed) and drops the window's reference to its pooled slabs
// unless an attempt still reads them. Caller holds fl.smu.
func (r *reliableLayer) retireLocked(pp *pendingPkt) {
	pp.acked = true
	r.unackedG.Dec()
	if pp.inflight == 0 {
		pp.pkt.Release()
	}
}

// ackInfo is what one attempt pass brings back to the sender: the
// burst's ack (ok) and its nacks, bit seq&winMask per copy whose CRC
// failed. sack is the receiver's reorder ring, bit i for frontier+1+i.
// No ack means no copy got past the CRC and the refusals — they were
// dropped, refused or held back — or the ack was lost on the reverse
// path, and the timer recovers it.
type ackInfo struct {
	ok                  bool
	seq, frontier, seen uint64
	sack, nacks         uint64
}

type delayedPkt struct {
	due     int64
	fl      *flow
	pkt     Packet
	fifo    *RecFIFO
	attempt int
}

type routeEntry struct {
	hops     int
	ok       bool
	rerouted bool
}

// reliableLayer is installed on a Fabric by InstallFaults and owns all
// fault-injection and recovery state.
type reliableLayer struct {
	f   *Fabric
	inj *fault.Injector

	epoch time.Time // origin of the layer's clock

	fmu sync.Mutex
	// flowList holds the values of flows for the daemon and the audits to
	// walk without copying: appended in place, replaced wholesale on
	// teardown, so a slice read under fmu stays valid after.
	flows    map[flowKey]*flow
	flowList []*flow

	dmu     sync.Mutex
	delayed []delayedPkt

	rmu      sync.Mutex
	routeGen int64
	routes   map[[2]torus.Rank]routeEntry

	closed    atomic.Bool
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}

	retransmits      *telemetry.Counter // fastRetransmits + timerRetransmits
	fastRetransmits  *telemetry.Counter // hole- and nack-driven resends, RDMA link retries
	timerRetransmits *telemetry.Counter // the daemon's
	cumAcked         *telemetry.Counter // packets retired by a frontier, not their own ack
	reorderDepth     *telemetry.Gauge   // packets parked in reorder rings, all flows
	corruptDrops     *telemetry.Counter
	dupDrops         *telemetry.Counter
	dropsInjected    *telemetry.Counter
	delaysInjected   *telemetry.Counter
	stallDrops       *telemetry.Counter
	acksSent         *telemetry.Counter
	acksDropped      *telemetry.Counter
	nacksSent        *telemetry.Counter
	reroutes         *telemetry.Counter
	linkDownEvents   *telemetry.Counter
	backoffNS        *telemetry.Counter
	unackedG         *telemetry.Gauge
	blackholed       *telemetry.Counter
	peerDeadFails    *telemetry.Counter
	fifoRefusals     *telemetry.Counter
	windowStalls     *telemetry.Counter // times a sender parked at the window gate
	paceWaits        *telemetry.Counter // messages delayed because the reception queue was past paceDepth
}

// InstallFaults threads a fault injector through the fabric: every send
// is routed through the reliable-delivery layer (checksums, sequence
// numbers, ack/retransmit), and the injector's link failures steer
// route-around. Call before traffic starts; Close stops the layer's
// retransmission daemon.
func (f *Fabric) InstallFaults(inj *fault.Injector) {
	g := f.tele.Group("reliable")
	rl := &reliableLayer{
		f:                f,
		inj:              inj,
		epoch:            time.Now(),
		flows:            make(map[flowKey]*flow),
		routes:           make(map[[2]torus.Rank]routeEntry),
		stop:             make(chan struct{}),
		done:             make(chan struct{}),
		retransmits:      g.Counter("retransmits"),
		fastRetransmits:  g.Counter("fast_retransmits"),
		timerRetransmits: g.Counter("timer_retransmits"),
		cumAcked:         g.Counter("cum_acked"),
		reorderDepth:     g.Gauge("reorder_depth"),
		corruptDrops:     g.Counter("corrupt_drops"),
		dupDrops:         g.Counter("dup_drops"),
		dropsInjected:    g.Counter("drops_injected"),
		delaysInjected:   g.Counter("delays_injected"),
		stallDrops:       g.Counter("stall_drops"),
		acksSent:         g.Counter("acks_sent"),
		acksDropped:      g.Counter("acks_dropped"),
		nacksSent:        g.Counter("nacks_sent"),
		reroutes:         g.Counter("reroutes"),
		linkDownEvents:   g.Counter("link_down_events"),
		backoffNS:        g.Counter("backoff_ns"),
		unackedG:         g.Gauge("unacked"),
		blackholed:       g.Counter("blackholed"),
		peerDeadFails:    g.Counter("peer_dead_fails"),
		fifoRefusals:     g.Counter("fifo_refusals"),
		windowStalls:     g.Counter("window_stalls"),
		paceWaits:        g.Counter("pace_waits"),
	}
	inj.OnLinkDown(func(torus.Rank, torus.Link) { rl.linkDownEvents.Inc() })
	f.rel.Store(rl)
	go rl.daemon()
}

// now is the layer's clock: nanoseconds since InstallFaults, never 0 (an
// unset time). One monotonic read, cheaper than time.Now.
func (r *reliableLayer) now() int64 { return int64(time.Since(r.epoch)) + 1 }

// Injector returns the installed fault injector, or nil when the fabric
// runs fault-free.
func (f *Fabric) Injector() *fault.Injector {
	if rl := f.rel.Load(); rl != nil {
		return rl.inj
	}
	return nil
}

// Close stops the reliable layer's retransmission daemon and unblocks
// senders waiting on window space. Idempotent; a no-op when faults were
// never installed.
func (f *Fabric) Close() {
	if rl := f.rel.Load(); rl != nil {
		rl.close()
	}
}

func (r *reliableLayer) close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.stop)
		<-r.done
		for _, fl := range r.allFlows() {
			fl.smu.Lock()
			fl.cond.Broadcast()
			fl.smu.Unlock()
		}
	})
}

func (r *reliableLayer) flowFor(key flowKey) *flow {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	fl, ok := r.flows[key]
	if !ok {
		fl = &flow{
			key:     key,
			hash:    fault.FlowHash(key.src.Task, key.src.Ctx, key.dst.Task, key.dst.Ctx),
			base:    1,
			nextSeq: 1,
			nextExp: 1,
		}
		fl.cond = sync.NewCond(&fl.smu)
		fl.dstNode, fl.dstOK = r.f.TaskNode(key.dst.Task)
		fl.srcNode, fl.srcOK = r.f.TaskNode(key.src.Task)
		r.flows[key] = fl
		r.flowList = append(r.flowList, fl)
	}
	return fl
}

// allFlows returns every flow the layer knows; the slice is read-only.
func (r *reliableLayer) allFlows() []*flow {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	return r.flowList
}

// routeInfo returns the hop count of the (possibly detoured) route
// between two nodes and whether one exists at all: routes dodge failed
// links, and with none failed the deterministic route stands. Results
// are cached per link-failure generation; the reroutes counter advances
// once per (pair, generation) whose deterministic route is blocked.
func (r *reliableLayer) routeInfo(sn, dn torus.Rank) (int, bool) {
	d := r.f.dims
	downFn := r.inj.DownFn()
	if downFn == nil {
		return d.Hops(sn, dn), true
	}
	gen := r.inj.DownGen()
	key := [2]torus.Rank{sn, dn}
	r.rmu.Lock()
	if r.routeGen != gen {
		r.routeGen = gen
		r.routes = make(map[[2]torus.Rank]routeEntry)
	}
	if e, ok := r.routes[key]; ok {
		r.rmu.Unlock()
		return e.hops, e.ok
	}
	r.rmu.Unlock()

	def := d.Route(sn, dn)
	path, ok := d.RouteAround(sn, dn, downFn)
	e := routeEntry{ok: ok}
	if ok {
		e.hops = len(path)
		if len(path) != len(def) {
			e.rerouted = true
		} else {
			for i := range path {
				if path[i] != def[i] {
					e.rerouted = true
					break
				}
			}
		}
	}
	r.rmu.Lock()
	if _, dup := r.routes[key]; !dup && r.routeGen == gen {
		r.routes[key] = e
		if e.rerouted {
			r.reroutes.Inc()
		}
	}
	r.rmu.Unlock()
	return e.hops, e.ok
}

// burstSentHook, when non-nil, runs on the sending goroutine between one
// burst's attempt pass (ack applied) and the staging of the next. Tests
// use it to force a consumer's release into that gap.
var burstSentHook func()

// injectMemFIFOBuf is the faulted leg of injectMemFIFO, copy-in (own
// nil) and ownership transfer alike: same packetization and accounting,
// but every packet is built in the flow's window, attempted in a burst,
// and only forgotten once acknowledged. The own reference is consumed on
// every path, error included.
func (r *reliableLayer) injectMemFIFOBuf(inj *InjFIFO, fifo *RecFIFO, dst TaskAddr, hdr *Header, src []byte, own *bufpool.Buf) error {
	if r.closed.Load() {
		own.Release()
		return ErrFabricClosed
	}
	fl := r.flowFor(flowKey{src: hdr.Origin, dst: dst})
	if r.f.hmon.Load().Dead(fl.dstNode) {
		own.Release()
		r.peerDeadFails.Inc()
		return fmt.Errorf("mu: send to task %d on node %d: %w", dst.Task, fl.dstNode, ErrPeerDead)
	}
	if r.inj.HasDownLinks() && fl.srcOK {
		if _, routeOK := r.routeInfo(fl.srcNode, fl.dstNode); !routeOK {
			own.Release()
			return fmt.Errorf("%w: node %d -> node %d", ErrNoRoute, fl.srcNode, fl.dstNode)
		}
	}
	inj.sends.Add(1)
	own = slabFor(hdr, src, own, MaxPayload) // every chunk's reference, before chunk 0 is staged
	if occ, _ := fifo.Occupancy(); occ >= paceDepth {
		// The consumer is milliseconds behind. A refusal would only stop us
		// a whole overflow budget later; until then back off a bounded
		// moment per message: no cycle of senders can turn that into a
		// deadlock, and a consumer with paceDepth packets in hand never runs
		// dry.
		r.paceWaits.Inc()
		time.Sleep(paceDelay)
	}
	now := r.now()
	fl.smu.Lock()
	for more := true; more; more = len(src) > 0 {
		first, n, err := r.stageLocked(fl, hdr, &src, own, fifo, &now)
		if err != nil {
			fl.smu.Unlock()
			// Staged chunks keep their references until acked; the rest's
			// were never handed over.
			abandon(own, src)
			return err
		}
		r.transmitLocked(fl, first, n, nil)
		if h := burstSentHook; h != nil {
			fl.smu.Unlock()
			h()
			fl.smu.Lock()
		}
	}
	fl.smu.Unlock()
	nchunks := int64(packetsFor(hdr.Total, MaxPayload))
	r.f.account(inj, hdr.Origin.Task, dst.Task, nchunks, int64(hdr.Total)+nchunks*PacketHeaderBytes)
	return nil
}

// stageLocked stages the message's next burst, sequence numbers
// first..first+n-1: it waits for window space, then builds packets
// (nextPacket; *src advances) into consecutive window slots while
// canStage holds, up to burstMax or the message's end. It
// never parks once a packet is staged: no one can ack a packet before
// its attempt pass, so the window would never open. Each packet is
// stamped with its number and checksum and holds one inflight for the
// attempt pass the caller runs next. On error nothing was staged.
// Caller holds fl.smu; *now is refreshed if it parked.
func (r *reliableLayer) stageLocked(fl *flow, hdr *Header, src *[]byte, own *bufpool.Buf, fifo *RecFIFO, now *int64) (first uint64, n int, err error) {
	fl.lastFifo = fifo
	if !fl.canStage() {
		r.awaitWindowLocked(fl)
		*now = r.now()
	}
	if fl.failed != nil {
		return 0, 0, fl.failed
	}
	if r.closed.Load() {
		return 0, 0, ErrFabricClosed
	}
	first = fl.nextSeq
	for more := true; more && n < burstMax && fl.canStage(); more = len(*src) > 0 {
		pp := &fl.win[fl.nextSeq&winMask]
		*pp = pendingPkt{
			deadline:   *now + int64(initialRTO),
			rto:        initialRTO,
			sentBefore: fl.nextSeq + 1,
			attempts:   1,
			inflight:   1,
		}
		*src = nextPacket(&pp.pkt, hdr, *src, own, MaxPayload)
		pp.pkt.pktSeq = fl.nextSeq
		pp.pkt.checksum = packetChecksum(&fl.sscratch, &pp.pkt)
		fl.nextSeq++
		n++
	}
	r.unackedG.Update(int64(n))
	return first, n, nil
}

// canStage reports whether the next sequence number may be staged now:
// the window has room and no straggling attempt still reads the ring
// slot it would overwrite.
func (fl *flow) canStage() bool {
	return fl.nextSeq-fl.base < sendWindow && fl.win[fl.nextSeq&winMask].inflight == 0
}

// awaitWindowLocked parks the sender until it may stage, or the flow
// fails, or the fabric closes; each park counts one window stall.
// Caller holds fl.smu.
func (r *reliableLayer) awaitWindowLocked(fl *flow) {
	r.windowStalls.Inc()
	if st := r.f.stallSite.Load(); st != nil {
		var park watchdog.Park
		st.Attach(&park, func(c *abort.Cause) {
			// Scanner goroutine, no locks held: fail the flow so the parked
			// sender (and everyone behind it) wakes with the typed cause.
			r.failFlow(fl, fmt.Errorf("mu: flow %v -> %v: %w", fl.key.src, fl.key.dst, c))
		})
		park.Enter()
		defer park.Detach()
	}
	for !fl.canStage() && !r.closed.Load() && fl.failed == nil {
		fl.cond.Wait()
	}
}

// transmitLocked runs one attempt pass over the window's packets
// first..first+n-1 and then whatever its outcome asks of this goroutine:
// the resend of the packet the ack proved missing, else of a packet
// whose copy failed its CRC (at most maxFastRetx of those), each a burst
// of one, until nothing is asked. cause is nil for a fresh burst, which
// stageLocked has already counted in attempts and inflight, and the
// counter to charge for a resend (n == 1); first 0 asks nothing.
// Entered and left with fl.smu held; the lock is dropped around every
// attempt pass.
func (r *reliableLayer) transmitLocked(fl *flow, first uint64, n int, cause *telemetry.Counter) {
	var nacked uint64 // seq&winMask of nacked packets not yet looked at
	for fast := 0; first != 0; n, cause = 1, r.fastRetransmits {
		pp := &fl.win[first&winMask]
		if cause != nil {
			pp.attempts++
			pp.inflight++
			cause.Inc()
			r.retransmits.Inc()
		}
		attempt, fifo := int(pp.attempts), fl.lastFifo
		fl.smu.Unlock()
		a := r.attemptOnce(fl, first, n, attempt, fifo)
		fl.smu.Lock()
		for seq := first; seq < first+uint64(n); seq++ {
			pp := &fl.win[seq&winMask]
			if pp.inflight--; pp.acked && pp.inflight == 0 {
				// Retired while this attempt ran: the last reader drops the
				// window's reference, and a stager may be waiting for the slot.
				pp.pkt.Release()
				fl.cond.Broadcast()
			}
		}
		first, nacked = 0, nacked|a.nacks
		if a.ok {
			first = r.applyAckLocked(fl, a)
		}
		// A bit names its slot's live seq; a later tenant's went unanswered too.
		for seq := fl.base; first == 0 && nacked != 0 && fast < maxFastRetx && seq < fl.nextSeq; seq++ {
			if bit := uint64(1) << (seq & winMask); nacked&bit != 0 {
				nacked &^= bit
				if pp := &fl.win[seq&winMask]; !pp.acked && pp.inflight == 0 {
					first, fast = seq, fast+1
				}
			}
		}
	}
}

// applyAckLocked is the sender's half of the ack protocol: retire the
// acknowledged packet, every packet the receiver holds parked, and
// everything up to the cumulative frontier, advance base over the
// retired prefix, and decide whether the hole the ack reports is proof
// of a loss. It returns the sequence number the caller must resend, or
// 0. Caller holds fl.smu.
func (r *reliableLayer) applyAckLocked(fl *flow, a ackInfo) uint64 {
	if a.seq >= fl.base && a.seq < fl.nextSeq {
		if pp := &fl.win[a.seq&winMask]; !pp.acked {
			r.retireLocked(pp)
		}
	}
	for m := a.sack; m != 0; m &= m - 1 {
		if seq := a.frontier + 1 + uint64(bits.TrailingZeros64(m)); seq >= fl.base && seq < fl.nextSeq {
			if pp := &fl.win[seq&winMask]; !pp.acked {
				r.retireLocked(pp)
			}
		}
	}
	base := fl.base
	for fl.base < fl.nextSeq {
		pp := &fl.win[fl.base&winMask]
		if !pp.acked {
			if fl.base > a.frontier {
				break
			}
			r.retireLocked(pp)
			r.cumAcked.Inc()
		}
		fl.base++
	}
	if fl.base != base {
		fl.cond.Broadcast()
	}
	if hole := a.frontier + 1; a.seen > a.frontier && hole >= fl.base && hole < fl.nextSeq {
		if pp := &fl.win[hole&winMask]; !pp.acked && pp.inflight == 0 && a.seen >= pp.sentBefore {
			pp.sentBefore = fl.nextSeq
			return hole
		}
	}
	return 0
}

// attemptOnce pushes one copy of each of the window's packets
// first..first+n-1 through the injector — NotePacket, NodeFaulted and
// Decide per packet, in sequence order, so count-triggered faults trip
// on the same packet whatever the burst — and hands the copies that
// survive to the receiver as one burst. It returns what came back.
func (r *reliableLayer) attemptOnce(fl *flow, first uint64, n, attempt int, fifo *RecFIFO) ackInfo {
	var burst [2 * burstMax]*Packet // each packet may arrive twice
	var bad *[burstMax]Packet       // corrupt copies, allocated at the first
	k, nbad := 0, 0
	for seq := first; seq < first+uint64(n); seq++ {
		if r.inj.NotePacket(fl.dstNode) {
			r.stallDrops.Inc()
			continue
		}
		if r.inj.NodeFaulted(fl.dstNode) {
			// The destination node has crashed or hung: its MU accepts
			// nothing. The packet vanishes; the timer retries until the
			// health monitor declares the peer dead.
			r.blackholed.Inc()
			continue
		}
		pkt := &fl.win[seq&winMask].pkt
		act := r.inj.Decide(fl.hash, seq, attempt)
		if act.Has(fault.Duplicate) {
			// An extra copy arrives; the receiver suppresses the second one.
			burst[k], k = pkt, k+1
		}
		if act.Has(fault.Drop) {
			r.dropsInjected.Inc()
			continue
		}
		if act.Has(fault.Corrupt) {
			if bad == nil {
				bad = new([burstMax]Packet)
			}
			bad[nbad] = corruptCopy(pkt, r.inj.CorruptByte(fl.hash, seq, attempt))
			pkt, nbad = &bad[nbad], nbad+1
		}
		if act.Has(fault.Delay) {
			r.delaysInjected.Inc()
			r.holdBack(fl, pkt, fifo, attempt, r.inj.DelayFor(fl.hash, seq, attempt))
			continue
		}
		burst[k], k = pkt, k+1
	}
	a := r.deliver(fl, burst[:k], fifo, attempt)
	for i := 0; i < nbad; i++ {
		bad[i].Release()
	}
	return a
}

// deliver is the receiver side, run inline by fabric code (it models MU
// hardware, not the destination CPU): under one rmu hold it takes the
// burst's copies in order through CRC verify, duplicate suppression,
// refusal, in-order publish or park and the reorder drain, and answers
// with one ack, returned, not applied. Copies are read in place. Each
// one's reference is taken before the first can reach the consumer, one
// add per run viewing the same slab; a copy not accepted drops its own.
// Publishing is quiet, with one wake-up once rmu is released.
func (r *reliableLayer) deliver(fl *flow, burst []*Packet, fifo *RecFIFO, attempt int) ackInfo {
	for i, run := 0, int32(1); i < len(burst); i, run = i+1, run+1 {
		burst[i].mbuf.Retain()
		if i+1 == len(burst) || burst[i+1].pbuf != burst[i].pbuf {
			burst[i].pbuf.RetainN(run)
			run = 0
		}
	}
	var a ackInfo
	published := false
	fl.rmu.Lock()
	for _, pkt := range burst {
		seq := pkt.pktSeq
		if packetChecksum(&fl.rscratch, pkt) != pkt.checksum {
			pkt.unretain()
			r.corruptDrops.Inc()
			r.nacksSent.Inc()
			a.nacks |= 1 << (seq & winMask)
			continue
		}
		switch {
		case seq < fl.nextExp || (fl.parked&(1<<(seq&winMask)) != 0 && fl.reorder[seq&winMask].pktSeq == seq):
			// Duplicate. Re-ack: the earlier ack may have been lost, leaving
			// the sender retransmitting an already-delivered packet.
			pkt.unretain()
			r.dupDrops.Inc()
		case seq-fl.nextExp >= sendWindow || fifo.saturatedFor(fl.key.src):
			// Past the reorder ring (base ran ahead of a stuck in-order
			// prefix), or this flow's shard of the reception FIFO has its
			// overflow at cap: the consumer has stopped draining. Refuse the
			// packet — no ack for it, so the sender's timer retries: the
			// backpressure a full hardware FIFO exerts.
			pkt.unretain()
			r.fifoRefusals.Inc()
			continue
		case seq == fl.nextExp:
			// Next in line: straight into the reception FIFO.
			if fifo.deliver(pkt, true) != nil {
				// Saturation raced past the pre-check: withdraw; the sender retries.
				pkt.unretain()
				r.fifoRefusals.Inc()
				continue
			}
			fl.nextExp++
			published = true
		default:
			// Past a hole: park until the hole fills.
			if fl.reorder == nil {
				fl.reorder = new([sendWindow]Packet)
			}
			fl.reorder[seq&winMask] = *pkt
			fl.parked |= 1 << (seq & winMask)
			r.reorderDepth.Inc()
		}
		a.ok, a.seq, fl.maxSeen = true, max(a.seq, seq), max(fl.maxSeen, seq)
		if r.drainLocked(fl, fifo) {
			published = true
		}
	}
	a.frontier, a.seen = fl.nextExp-1, fl.maxSeen
	a.sack = bits.RotateLeft64(fl.parked, -int(fl.nextExp&winMask))
	fl.rmu.Unlock()
	if published {
		fifo.region.Touch()
	}
	// The ack crosses the reverse path, subject to ack loss; the next ack
	// repairs a lost one. Nacks are not lost with it.
	if a.ok && r.inj.DropAck(fl.hash, a.seq, attempt) {
		r.acksDropped.Inc()
		a.ok = false
	} else if a.ok {
		r.acksSent.Inc()
	}
	return a
}

// drainLocked publishes the reorder ring's in-order prefix, quietly,
// and reports whether it published anything. It runs under rmu, so
// concurrent deliveries cannot interleave the restored order. A refusal
// leaves the rest parked (acked already) for the next arrival or the
// daemon to retry. Caller holds fl.rmu.
func (r *reliableLayer) drainLocked(fl *flow, fifo *RecFIFO) (published bool) {
	for bit := uint64(1) << (fl.nextExp & winMask); fl.parked&bit != 0; bit = bits.RotateLeft64(bit, 1) {
		slot := &fl.reorder[fl.nextExp&winMask]
		if fifo.deliver(slot, true) != nil {
			r.fifoRefusals.Inc()
			break
		}
		*slot = Packet{}
		fl.nextExp++
		fl.parked &^= bit
		r.reorderDepth.Dec()
		published = true
	}
	return published
}

func (r *reliableLayer) holdBack(fl *flow, pkt *Packet, fifo *RecFIFO, attempt int, d time.Duration) {
	// The delayed list outlives the sender's window copy (resent, acked
	// and retired before the delay elapses), so it holds its own reference.
	pkt.Retain()
	r.dmu.Lock()
	r.delayed = append(r.delayed, delayedPkt{
		due: r.now() + int64(d), fl: fl, pkt: *pkt, fifo: fifo, attempt: attempt,
	})
	r.dmu.Unlock()
}

// daemon is the fallback retransmission engine: it releases held-back
// packets, retransmits what is past its deadline, with capped backoff,
// and retries refused reorder drains. It never fails a flow.
func (r *reliableLayer) daemon() {
	defer close(r.done)
	t := time.NewTicker(daemonTick)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			now := r.now()
			r.releaseDelayed(now)
			for _, fl := range r.allFlows() {
				r.retransmitDue(fl, now)
			}
		}
	}
}

// releaseDelayed delivers the held-back packets that have come due.
func (r *reliableLayer) releaseDelayed(now int64) {
	r.dmu.Lock()
	var rel []delayedPkt
	keep := r.delayed[:0]
	for _, dp := range r.delayed {
		if now > dp.due {
			rel = append(rel, dp)
		} else {
			keep = append(keep, dp)
		}
	}
	r.delayed = keep
	r.dmu.Unlock()
	for i := range rel {
		dp := &rel[i]
		// A burst of one; a nack is ignored, the sender's timer covers it.
		if a := r.deliver(dp.fl, []*Packet{&dp.pkt}, dp.fifo, dp.attempt); a.ok {
			dp.fl.smu.Lock()
			r.transmitLocked(dp.fl, r.applyAckLocked(dp.fl, a), 1, r.fastRetransmits)
			dp.fl.smu.Unlock()
		}
		dp.pkt.Release()
	}
}

// retransmitDue is the daemon's pass over one flow: walk the window
// base..nextSeq retransmitting what is past its deadline, and retry a
// refused reorder drain. A silent peer is retried at maxRTO for as long
// as it stays silent; whether it is dead is the health monitor's to say.
func (r *reliableLayer) retransmitDue(fl *flow, now int64) {
	fl.smu.Lock()
	// Each retransmission drops the lock, and its ack may retire a whole
	// run behind it (one resend fills the hole, the frontier jumps), so
	// the walk re-reads base and nextSeq as it goes.
	for seq := fl.base; seq < fl.nextSeq; seq = max(seq+1, fl.base) {
		pp := &fl.win[seq&winMask]
		if pp.acked || now <= pp.deadline {
			continue
		}
		pp.rto = min(2*pp.rto, maxRTO)
		pp.deadline = now + int64(pp.rto)
		pp.sentBefore = fl.nextSeq
		r.backoffNS.Add(int64(pp.rto))
		r.transmitLocked(fl, seq, 1, r.timerRetransmits)
	}
	fifo, failed := fl.lastFifo, fl.failed
	fl.smu.Unlock()
	// The receiver half: a drain a saturated FIFO refused waits for the
	// next arrival, and none comes once the sender's window is all acked.
	if fifo != nil && failed == nil {
		fl.rmu.Lock()
		published := r.drainLocked(fl, fifo)
		fl.rmu.Unlock()
		if published {
			fifo.region.Touch()
		}
	}
}

// failFlow marks the flow permanently failed, releases its send window,
// and wakes blocked senders. Idempotent; must be called without smu held.
// A flow fails in no other way than through its three callers — the
// health monitor's confirmed death (MarkNodeDead), a revival's reset
// (ReviveNode), the stall sentinel's escalation of a parked sender
// (awaitWindowLocked) — or stops at Close.
func (r *reliableLayer) failFlow(fl *flow, err error) {
	fl.smu.Lock()
	if fl.failed == nil {
		fl.failed = err
		r.peerDeadFails.Inc()
		for seq := fl.base; seq < fl.nextSeq; seq++ {
			if pp := &fl.win[seq&winMask]; !pp.acked {
				r.retireLocked(pp)
			}
		}
		fl.cond.Broadcast()
	}
	fl.smu.Unlock()
}

// touches reports whether either endpoint of the flow lives on node.
func (fl *flow) touches(node torus.Rank) bool {
	return (fl.srcOK && fl.srcNode == node) || (fl.dstOK && fl.dstNode == node)
}

// MarkNodeDead is the fabric's reaction to the health monitor
// confirming node dead: every flow touching the node fails with
// ErrPeerDead — blocked senders wake, send windows release their pooled
// buffers. Sends that start later fail fast on the monitor's word.
// Idempotent; a no-op when faults were never installed.
func (f *Fabric) MarkNodeDead(node torus.Rank) {
	rl := f.rel.Load()
	if rl == nil {
		return
	}
	for _, fl := range rl.allFlows() {
		if fl.touches(node) {
			rl.failFlow(fl, fmt.Errorf("mu: flow %v -> %v: node %d confirmed dead: %w",
				fl.key.src, fl.key.dst, node, ErrPeerDead))
		}
	}
}

// ReviveNode tears down every flow that touched node, so the next send
// builds a fresh flow starting at sequence 1: the revived incarnation
// shares no sequence space with the dead one. The machine calls it
// while the health monitor still calls node dead, so no sender can
// resume a torn-down flow. A no-op on a node the monitor calls alive,
// and when faults were never installed.
func (f *Fabric) ReviveNode(node torus.Rank) {
	r := f.rel.Load()
	if r == nil || !f.hmon.Load().Dead(node) {
		return
	}
	// Unhook every flow touching the node while the map is locked, so a
	// concurrent sender's next flowFor builds a fresh flow (nextSeq 1,
	// nextExp 1) instead of resuming the dead incarnation's stream.
	r.fmu.Lock()
	var torn, kept []*flow
	for _, fl := range r.flowList {
		if fl.touches(node) {
			delete(r.flows, fl.key)
			torn = append(torn, fl)
		} else {
			kept = append(kept, fl)
		}
	}
	r.flowList = kept
	r.fmu.Unlock()
	for _, fl := range torn {
		// Sender side: release the unacked window and wake anyone still
		// blocked (most of these already failed when the death was marked).
		r.failFlow(fl, fmt.Errorf("mu: flow %v -> %v: node %d revived, flow reset: %w",
			fl.key.src, fl.key.dst, node, ErrEpochChanged))
		// Receiver side: release what is parked past a hole the dead
		// incarnation will never fill.
		fl.rmu.Lock()
		for ; fl.parked != 0; fl.parked &= fl.parked - 1 {
			slot := &fl.reorder[bits.TrailingZeros64(fl.parked)]
			slot.Release()
			*slot = Packet{}
			r.reorderDepth.Dec()
		}
		fl.rmu.Unlock()
	}
}

// attemptsRunning counts the attempts executing outside smu. An ack can
// retire a slot while one of them still reads it (a first attempt
// descheduled long enough for the timer to send a twin), and that
// attempt holds the slot's slabs until it returns. Caller holds fl.smu.
func (fl *flow) attemptsRunning() int32 {
	var n int32
	for i := range fl.win {
		n += fl.win[i].inflight
	}
	return n
}

// quiesced verifies every flow between live nodes is idle: no delayed
// packets awaiting re-delivery, empty retransmit windows, no attempt
// still running, and empty reorder rings. Flows with a dead endpoint are
// skipped — a death strands window state by design, and failFlow
// already released it.
func (r *reliableLayer) quiesced() error {
	r.dmu.Lock()
	delayed := len(r.delayed)
	r.dmu.Unlock()
	if delayed > 0 {
		return fmt.Errorf("mu: %d delayed packets still in flight", delayed)
	}
	for _, fl := range r.allFlows() {
		if hm := r.f.hmon.Load(); (fl.srcOK && hm.Dead(fl.srcNode)) || (fl.dstOK && hm.Dead(fl.dstNode)) {
			continue
		}
		fl.smu.Lock()
		unacked, running, failed := fl.nextSeq-fl.base, fl.attemptsRunning(), fl.failed // base only ever rests on an unacked packet
		fl.smu.Unlock()
		if running > 0 {
			return fmt.Errorf("mu: flow %v -> %v: %d attempts still running", fl.key.src, fl.key.dst, running)
		}
		if failed != nil {
			continue
		}
		if unacked > 0 {
			return fmt.Errorf("mu: flow %v -> %v: window of %d packets not fully acknowledged", fl.key.src, fl.key.dst, unacked)
		}
		fl.rmu.Lock()
		parked := bits.OnesCount64(fl.parked)
		fl.rmu.Unlock()
		if parked > 0 {
			return fmt.Errorf("mu: flow %v -> %v: %d packets parked out of order", fl.key.src, fl.key.dst, parked)
		}
	}
	return nil
}

// rdmaFaults models link-level recovery for put/remote-get traffic: the
// MU retries each chunk until it crosses clean, so the operation's
// single final copy is exactly-once. Returns ErrNoRoute when failed
// links partition source from destination.
func (r *reliableLayer) rdmaFaults(srcTask, dstTask, mr, n int) error {
	sn, okS := r.f.TaskNode(srcTask)
	dn, okD := r.f.TaskNode(dstTask)
	if okD && r.f.hmon.Load().Dead(dn) {
		r.peerDeadFails.Inc()
		return fmt.Errorf("mu: rdma to task %d on node %d: %w", dstTask, dn, ErrPeerDead)
	}
	if r.inj.HasDownLinks() && okS && okD {
		if _, ok := r.routeInfo(sn, dn); !ok {
			return fmt.Errorf("%w: node %d -> node %d", ErrNoRoute, sn, dn)
		}
	}
	if !okD {
		dn = 0
	}
	h := fault.FlowHash(srcTask, dstTask, mr, 0x4d52)
	chunks := packetsFor(n, MaxPayload)
	for c := 1; c <= chunks; c++ {
		for attempt := 1; attempt <= maxRDMAAttempts; attempt++ {
			stalled := r.inj.NotePacket(dn)
			if r.inj.NodeFaulted(dn) {
				// The target's MU died mid-operation; no amount of
				// hardware retry completes the copy.
				r.blackholed.Inc()
				return fmt.Errorf("mu: rdma to task %d on node %d: %w", dstTask, dn, ErrPeerDead)
			}
			act := r.inj.Decide(h, uint64(c), attempt)
			if stalled {
				r.stallDrops.Inc()
			} else if !act.Has(fault.Drop) && !act.Has(fault.Corrupt) {
				break
			}
			if act.Has(fault.Drop) {
				r.dropsInjected.Inc()
			}
			if act.Has(fault.Corrupt) {
				r.corruptDrops.Inc()
			}
			r.fastRetransmits.Inc()
			r.retransmits.Inc()
		}
	}
	return nil
}
