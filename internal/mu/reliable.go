package mu

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
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
// The link. Every packet of a (source endpoint -> destination endpoint)
// flow carries a link-level sequence number and a CRC-32C. The far end
// models MU hardware, not the destination CPU, and runs inline on the
// sending goroutine, so the sender knows each packet's fate before it
// sends the next: nothing is acknowledged and nothing reordered. The
// flow's lock is held for a whole message and each packet is tried
// until it crosses, as PAMI pins a destination to one injection FIFO
// and a torus link resends until the CRC passes: a flow's packets reach
// the reception FIFO exactly once and in order (MPI matching and the
// collective inbox rely on it). Every try asks the injector, in
// sequence order (NotePacket, NodeFaulted, Decide). A dropped copy, and
// one whose CRC fails at the far end, is resent at once, up to
// maxFastRetx times in a row; a delay holds the link; an extra copy is
// counted and suppressed.
//
// The wait. A stall window, a crashed or hung destination and a
// reception FIFO whose origin shard refuses (its consumer stopped
// draining) are waited out with a doubling backoff at the one sentinel
// site, mu.link.stall: the backpressure a full hardware FIFO exerts. It
// ends when the packet crosses, when the health monitor confirms the
// destination dead (ErrPeerDead), when the sentinel escalates it (the
// flow's sticky cause) or when the fabric closes: however long a live
// peer stays silent, who is dead is the monitor's to say. A sender
// facing a deep queue also backs off paceDelay per message.
const (
	// maxFastRetx bounds the resends in a row of a dropped or corrupted
	// packet before it goes through the wait (guards pathological rates).
	maxFastRetx = 8
	// A wait's backoff doubles from minBackoff to maxBackoff; the cap
	// bounds how late a waiting sender sees a death, a sentinel
	// escalation or Close.
	minBackoff = 50 * time.Microsecond
	maxBackoff = 500 * time.Microsecond
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
// in a slab the original views (the sender keeps it pristine for the
// resend). The copy holds its own references: release it.
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

// flow is the link state of one sender->receiver stream. mu is held for
// a whole message; every field below it is guarded by mu, but cause.
type flow struct {
	key  flowKey
	hash uint64

	// Placement of the two endpoints, fixed for the flow's lifetime (a
	// revived node gets fresh flows).
	srcNode, dstNode torus.Rank
	srcOK, dstOK     bool

	mu      sync.Mutex
	nextSeq uint64 // PktSeq of the next packet; a flow starts at 1
	// pkt is the packet on the link. It lives in the flow, not on the
	// sender's stack, for the reason scratch does: its inline bytes reach
	// the checksum.
	pkt     Packet
	scratch [hdrBytes]byte
	park    watchdog.Park // the sender's registration while it waits

	// cause is set once, by the stall sentinel's escalation of a wait on
	// the flow, and read without mu: the waiting sender and every later
	// one fail with it until a revival replaces the flow.
	cause atomic.Pointer[abort.Cause]
}

// touches reports whether either endpoint of the flow lives on node.
func (fl *flow) touches(node torus.Rank) bool {
	return (fl.srcOK && fl.srcNode == node) || (fl.dstOK && fl.dstNode == node)
}

// linkStep is the outcome of one try of a packet.
type linkStep uint8

const (
	crossed linkStep = iota // in the reception FIFO
	lost                    // dropped, or failed its CRC: resend at once
	refused                 // stalled, blackholed or refused: wait
)

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

	fmu   sync.Mutex
	flows map[flowKey]*flow

	rmu      sync.Mutex
	routeGen int64
	routes   map[[2]torus.Rank]routeEntry

	closed atomic.Bool
	inside atomic.Int64 // sends holding a flow's link; Quiesced refuses while any does

	flowsOpened    *telemetry.Counter
	retransmits    *telemetry.Counter // tries after a packet's first, RDMA link retries included
	corruptDrops   *telemetry.Counter
	dupDrops       *telemetry.Counter
	dropsInjected  *telemetry.Counter
	delaysInjected *telemetry.Counter
	stallDrops     *telemetry.Counter
	reroutes       *telemetry.Counter
	linkDownEvents *telemetry.Counter
	backoffNS      *telemetry.Counter
	blackholed     *telemetry.Counter
	peerDeadFails  *telemetry.Counter
	fifoRefusals   *telemetry.Counter
	linkStalls     *telemetry.Counter // packets that waited at mu.link.stall
	paceWaits      *telemetry.Counter // messages delayed because the reception queue was past paceDepth
}

// InstallFaults threads a fault injector through the fabric: every send
// is routed through the reliable link (checksums, sequence numbers,
// resend), and the injector's link failures steer route-around. Call
// before traffic starts. The layer runs on its senders' goroutines and
// starts none of its own.
func (f *Fabric) InstallFaults(inj *fault.Injector) {
	g := f.tele.Group("reliable")
	rl := &reliableLayer{
		f:              f,
		inj:            inj,
		flows:          make(map[flowKey]*flow),
		routes:         make(map[[2]torus.Rank]routeEntry),
		flowsOpened:    g.Counter("flows"),
		retransmits:    g.Counter("retransmits"),
		corruptDrops:   g.Counter("corrupt_drops"),
		dupDrops:       g.Counter("dup_drops"),
		dropsInjected:  g.Counter("drops_injected"),
		delaysInjected: g.Counter("delays_injected"),
		stallDrops:     g.Counter("stall_drops"),
		reroutes:       g.Counter("reroutes"),
		linkDownEvents: g.Counter("link_down_events"),
		backoffNS:      g.Counter("backoff_ns"),
		blackholed:     g.Counter("blackholed"),
		peerDeadFails:  g.Counter("peer_dead_fails"),
		fifoRefusals:   g.Counter("fifo_refusals"),
		linkStalls:     g.Counter("link_stalls"),
		paceWaits:      g.Counter("pace_waits"),
	}
	inj.OnLinkDown(func(torus.Rank, torus.Link) { rl.linkDownEvents.Inc() })
	f.rel.Store(rl)
}

// Injector returns the installed fault injector, or nil when the fabric
// runs fault-free.
func (f *Fabric) Injector() *fault.Injector {
	if rl := f.rel.Load(); rl != nil {
		return rl.inj
	}
	return nil
}

// Close fails every later send on the reliable link, and every waiting
// one within a backoff, with ErrFabricClosed. Idempotent; a no-op when
// faults were never installed.
func (f *Fabric) Close() {
	if rl := f.rel.Load(); rl != nil {
		rl.closed.Store(true)
	}
}

func (r *reliableLayer) flowFor(key flowKey) *flow {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	fl, ok := r.flows[key]
	if !ok {
		fl = &flow{
			key:     key,
			hash:    fault.FlowHash(key.src.Task, key.src.Ctx, key.dst.Task, key.dst.Ctx),
			nextSeq: 1,
		}
		fl.dstNode, fl.dstOK = r.f.TaskNode(key.dst.Task)
		fl.srcNode, fl.srcOK = r.f.TaskNode(key.src.Task)
		r.flows[key] = fl
		r.flowsOpened.Inc()
	}
	return fl
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

	path, ok := d.RouteAround(sn, dn, downFn)
	e := routeEntry{hops: len(path), ok: ok, rerouted: ok && !slices.Equal(path, d.Route(sn, dn))}
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

// hold is the layer's one way to let time pass: the pace before a
// message, a delay fault, a wait's backoff.
func hold(d time.Duration) {
	time.Sleep(d)
}

// injectMemFIFOBuf is the faulted leg of injectMemFIFO, copy-in (own
// nil) and ownership transfer alike: same packetization and accounting,
// but the flow's link is held for the whole message, and each packet is
// stamped with its sequence number and checksum and tried until it
// crosses. The own reference is consumed on every path, error included;
// the packets that crossed before an error stay delivered.
func (r *reliableLayer) injectMemFIFOBuf(inj *InjFIFO, fifo *RecFIFO, dst TaskAddr, hdr *Header, src []byte, own *bufpool.Buf) error {
	fl := r.flowFor(flowKey{src: hdr.Origin, dst: dst})
	if err := r.halted(fl); err != nil {
		own.Release()
		return err
	}
	if r.inj.HasDownLinks() && fl.srcOK {
		if _, routeOK := r.routeInfo(fl.srcNode, fl.dstNode); !routeOK {
			own.Release()
			return fmt.Errorf("%w: node %d -> node %d", ErrNoRoute, fl.srcNode, fl.dstNode)
		}
	}
	inj.sends.Add(1)
	own = slabFor(hdr, src, own, MaxPayload) // every chunk's reference, before chunk 0 crosses
	if occ, _ := fifo.Occupancy(); occ >= paceDepth {
		// The consumer is milliseconds behind. A refusal would only stop us
		// a whole overflow budget later; until then back off a bounded
		// moment per message: no cycle of senders can turn that into a
		// deadlock, and a consumer with paceDepth packets in hand never runs
		// dry.
		r.paceWaits.Inc()
		hold(paceDelay)
	}
	fl.mu.Lock()
	r.inside.Add(1)
	var err error
	var npkts, nbytes int64
	queued := false // published quietly since the region was last touched
	for more := true; more; more = len(src) > 0 {
		src = nextPacket(&fl.pkt, hdr, src, own, MaxPayload)
		fl.pkt.pktSeq = fl.nextSeq
		fl.pkt.checksum = packetChecksum(&fl.scratch, &fl.pkt)
		if err = r.cross(fl, fifo, &queued); err != nil {
			fl.pkt.Release()
			if len(src) > 0 {
				abandon(own, src)
			}
			break
		}
		fl.nextSeq++
		npkts, nbytes = npkts+1, nbytes+int64(fl.pkt.plen)
	}
	r.inside.Add(-1)
	fl.mu.Unlock()
	if queued {
		fifo.region.Touch()
	}
	r.f.account(inj, hdr.Origin.Task, dst.Task, npkts, nbytes+npkts*PacketHeaderBytes)
	return err
}

// cross tries the flow's packet until it crosses the link. A lost try
// is resent at once, up to maxFastRetx in a row; otherwise the sender
// waits with backoff, registered at the sentinel site, and before every
// wait touches the region for what it has published quietly: a consumer
// asleep on the region's generation would otherwise never drain the FIFO
// that refuses it. Caller holds fl.mu.
func (r *reliableLayer) cross(fl *flow, fifo *RecFIFO, queued *bool) error {
	var backoff time.Duration // 0 until the packet first waits
	fast := 0
	for n := 1; ; n++ {
		if n > 1 {
			r.retransmits.Inc()
		}
		step := r.attempt(fl, fifo, n)
		if step == crossed {
			*queued = true
			fl.park.Detach()
			return nil
		}
		if step == lost && fast < maxFastRetx {
			fast++
			continue
		}
		fast = 0
		if backoff == 0 {
			r.enterWait(fl)
			backoff = minBackoff
		}
		if *queued {
			fifo.region.Touch()
			*queued = false
		}
		if err := r.halted(fl); err != nil {
			fl.park.Detach()
			return err
		}
		hold(backoff)
		r.backoffNS.Add(int64(backoff))
		backoff = min(2*backoff, maxBackoff)
	}
}

// enterWait counts one waiting packet and, when the fabric has a
// sentinel, parks the sender at its site until the packet's wait ends.
// The escalation hook is the one writer of the flow's cause.
func (r *reliableLayer) enterWait(fl *flow) {
	r.linkStalls.Inc()
	if st := r.f.stallSite.Load(); st != nil {
		st.Attach(&fl.park, func(c *abort.Cause) {
			// Scanner goroutine, no locks held: the sender sees the cause
			// within one backoff.
			fl.cause.CompareAndSwap(nil, c)
		})
		fl.park.Enter()
	}
}

// halted returns why sends on the flow must stop, or nil: the stall
// sentinel's cause, a destination the health monitor calls dead, a
// closed fabric. It is asked before every message and at every wait.
func (r *reliableLayer) halted(fl *flow) error {
	if c := fl.cause.Load(); c != nil {
		return fmt.Errorf("mu: flow %v -> %v: %w", fl.key.src, fl.key.dst, c)
	}
	if fl.dstOK && r.f.hmon.Load().Dead(fl.dstNode) {
		r.peerDeadFails.Inc()
		return fmt.Errorf("mu: flow %v -> %v: node %d: %w", fl.key.src, fl.key.dst, fl.dstNode, ErrPeerDead)
	}
	if r.closed.Load() {
		return ErrFabricClosed
	}
	return nil
}

// attempt is the n-th try of the flow's packet: the injector's word on
// it, then the far end's on each copy that arrives. Caller holds fl.mu.
func (r *reliableLayer) attempt(fl *flow, fifo *RecFIFO, n int) linkStep {
	if r.inj.NotePacket(fl.dstNode) {
		r.stallDrops.Inc()
		return refused
	}
	if r.inj.NodeFaulted(fl.dstNode) {
		// The destination node has crashed or hung: its MU accepts
		// nothing. The sender waits until the health monitor has its say.
		r.blackholed.Inc()
		return refused
	}
	seq := fl.pkt.pktSeq
	act := r.inj.Decide(fl.hash, seq, n)
	if act.Has(fault.Delay) {
		// The link holds the packet, and the flow's later ones behind it.
		r.delaysInjected.Inc()
		hold(r.inj.DelayFor(fl.hash, seq, n))
	}
	step := lost
	switch {
	case act.Has(fault.Drop):
		r.dropsInjected.Inc()
	case act.Has(fault.Corrupt) && r.crcCatches(fl, r.inj.CorruptByte(fl.hash, seq, n)):
		r.corruptDrops.Inc()
	default:
		step = r.receive(fl, fifo)
	}
	if act.Has(fault.Duplicate) {
		// An extra, pristine copy arrives: suppressed if the first got in,
		// the one that gets in if the first was lost.
		switch step {
		case crossed:
			r.dupDrops.Inc()
		case lost:
			step = r.receive(fl, fifo)
		}
	}
	return step
}

// crcCatches reports whether the far end's CRC check fails on a copy of
// the flow's packet with the byte pick names flipped (for a one-byte
// flip CRC-32C always does). Its own function, so only a corruption
// pays for the copy.
func (r *reliableLayer) crcCatches(fl *flow, pick uint64) bool {
	bad := corruptCopy(&fl.pkt, pick)
	defer bad.Release()
	return packetChecksum(&fl.scratch, &bad) != bad.checksum
}

// receive is the far end taking a pristine copy of the flow's packet:
// the CRC is verified and the packet published, quietly, to its origin's
// shard of the reception FIFO — the sender's references become the
// consumer's — unless that shard's overflow is at cap. Caller holds
// fl.mu.
func (r *reliableLayer) receive(fl *flow, fifo *RecFIFO) linkStep {
	if packetChecksum(&fl.scratch, &fl.pkt) != fl.pkt.checksum {
		r.corruptDrops.Inc()
		return lost
	}
	if fifo.deliver(&fl.pkt, true) != nil {
		r.fifoRefusals.Inc()
		return refused
	}
	return crossed
}

// ReviveNode forgets every flow that touched node, so the next send
// builds a fresh flow starting at sequence 1: the revived incarnation
// shares no sequence space, and no sentinel cause, with the dead one.
// The machine calls it while the health monitor still calls node dead,
// so a sender still inside a forgotten flow fails at its next wait. A
// no-op on a node the monitor calls alive, and when faults were never
// installed.
func (f *Fabric) ReviveNode(node torus.Rank) {
	r := f.rel.Load()
	if r == nil || !f.hmon.Load().Dead(node) {
		return
	}
	r.fmu.Lock()
	for key, fl := range r.flows {
		if fl.touches(node) {
			delete(r.flows, key)
		}
	}
	r.fmu.Unlock()
}

// quiesced verifies no send is inside the link: nothing the layer holds
// can reach a reception FIFO later.
func (r *reliableLayer) quiesced() error {
	if n := r.inside.Load(); n > 0 {
		return fmt.Errorf("mu: %d sends still inside the reliable link", n)
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
			r.retransmits.Inc()
		}
	}
	return nil
}
