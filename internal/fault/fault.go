// Package fault is the deterministic fault-injection substrate for the
// simulated BG/Q fabric. The real machine's data plane is reliable only
// because the hardware works at it — per-link CRC with link-level
// retransmission, and static route-around of failed links — so a faithful
// software reproduction needs a way to make its perfect in-memory fabric
// imperfect on demand.
//
// A Plan describes what goes wrong: per-packet drop / corrupt / duplicate
// / delay probabilities, hard link-down events that fire when the fabric's
// global packet counter crosses a threshold, and reception-FIFO stall
// windows during which a node accepts nothing. An Injector evaluates a
// plan deterministically: every decision is a pure hash of (seed, flow,
// sequence, attempt), so the same seed produces the same fault pattern
// regardless of goroutine scheduling — chaos tests are replayable.
//
// The injector itself moves no packets; internal/mu consults it on every
// transmission attempt and runs the recovery protocol (checksum verify,
// ack/nack, retransmission with backoff), while internal/netsim and
// internal/collnet consult the down-link set for route-around and
// classroute rebuilds.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/torus"
)

// Action is the set of mishaps injected on one packet transmission
// attempt. Actions combine: a packet may be both duplicated and delayed.
type Action uint8

// Individual mishaps.
const (
	// Drop loses the packet in flight; the sender's retransmission timer
	// recovers it.
	Drop Action = 1 << iota
	// Corrupt flips payload bits so the receiver's CRC check fails.
	Corrupt
	// Duplicate delivers the packet twice; the receiver's sequence
	// tracking must suppress the second copy.
	Duplicate
	// Delay holds the packet back, reordering it against later traffic.
	Delay
)

// Has reports whether the action includes all bits of b.
func (a Action) Has(b Action) bool { return a&b == b }

// LinkDown is a hard link failure: the physical cable between Node and
// its neighbor across Link dies — both directions — once the fabric has
// moved AfterPackets packets. AfterPackets <= 0 means down from boot.
type LinkDown struct {
	Node         torus.Rank
	Link         torus.Link
	AfterPackets int64
}

// Stall is a reception-FIFO stall window: while the global packet count
// is in [From, To), every packet addressed to Node is refused (the MU
// analogue of a backed-up reception FIFO exerting backpressure).
type Stall struct {
	Node     torus.Rank
	From, To int64
}

// NodeFaultKind distinguishes how a node dies.
type NodeFaultKind int

// Node fault kinds. Both present identically to the rest of the machine
// (a silent endpoint that stops heartbeating — the crash-stop model);
// the difference is bookkeeping: a crashed process is gone, a hung one
// is frozen mid-flight and may hold resources.
const (
	// FaultCrash kills every process on the node: they stop executing
	// and never come back.
	FaultCrash NodeFaultKind = iota
	// FaultHang freezes every process on the node: they stop making
	// progress (no sends, no advances, no heartbeats) but their
	// goroutines are parked, not gone.
	FaultHang
)

// String names the kind as the plan grammar spells it.
func (k NodeFaultKind) String() string {
	if k == FaultHang {
		return "hang"
	}
	return "crash"
}

// NodeFault is a crash-stop node failure: every process on Node dies (or
// freezes) once the fabric has moved AfterPackets packets.
// AfterPackets <= 0 means dead from boot.
type NodeFault struct {
	Node         torus.Rank
	Kind         NodeFaultKind
	AfterPackets int64
}

// Plan is a complete fault scenario. The zero value injects nothing.
type Plan struct {
	// Drop, Corrupt, Duplicate, Delay are per-transmission-attempt
	// probabilities in [0, 1].
	Drop      float64
	Corrupt   float64
	Duplicate float64
	Delay     float64

	// LinkDowns are hard link failures at given packet counts.
	LinkDowns []LinkDown

	// Stalls are reception stall windows.
	Stalls []Stall

	// NodeFaults are crash-stop node failures at given packet counts.
	NodeFaults []NodeFault
}

// Active reports whether the plan injects any fault at all; an inactive
// plan keeps the data plane on its zero-overhead fast path.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Corrupt > 0 || p.Duplicate > 0 || p.Delay > 0 ||
		len(p.LinkDowns) > 0 || len(p.Stalls) > 0 || len(p.NodeFaults) > 0
}

// HasNodeFaults reports whether the plan kills or freezes any node; the
// machine arms the heartbeat failure detector only when it does.
func (p Plan) HasNodeFaults() bool { return len(p.NodeFaults) > 0 }

// Validate checks probability ranges and event well-formedness.
func (p Plan) Validate(dims torus.Dims) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"corrupt", p.Corrupt}, {"dup", p.Duplicate}, {"delay", p.Delay}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	for _, ld := range p.LinkDowns {
		if ld.Node < 0 || int(ld.Node) >= dims.Nodes() {
			return fmt.Errorf("fault: linkdown node %d outside %v", ld.Node, dims)
		}
		if ld.Link.Dim < 0 || ld.Link.Dim >= torus.NumDims || (ld.Link.Dir != 1 && ld.Link.Dir != -1) {
			return fmt.Errorf("fault: linkdown link %+v malformed", ld.Link)
		}
	}
	for _, s := range p.Stalls {
		if s.Node < 0 || int(s.Node) >= dims.Nodes() {
			return fmt.Errorf("fault: stall node %d outside %v", s.Node, dims)
		}
		if s.From < 0 || s.To < s.From {
			return fmt.Errorf("fault: stall window [%d,%d) malformed", s.From, s.To)
		}
	}
	for _, nf := range p.NodeFaults {
		if nf.Node < 0 || int(nf.Node) >= dims.Nodes() {
			return fmt.Errorf("fault: %s node %d outside %v", nf.Kind, nf.Node, dims)
		}
		if nf.Kind != FaultCrash && nf.Kind != FaultHang {
			return fmt.Errorf("fault: node fault kind %d malformed", nf.Kind)
		}
	}
	return nil
}

// cable identifies one physical link in canonical form: the (node, link)
// pair with Dir == +1 (an A- link out of node n is node prev's A+ cable).
type cable struct {
	node torus.Rank
	link torus.Link
}

func canonicalCable(d torus.Dims, n torus.Rank, l torus.Link) cable {
	if l.Dir < 0 {
		return cable{d.Neighbor(n, l), torus.Link{Dim: l.Dim, Dir: +1}}
	}
	return cable{n, l}
}

// Injector evaluates a Plan deterministically. All methods are safe for
// concurrent use; decisions depend only on (seed, flow, seq, attempt) so
// goroutine interleaving cannot change the fault pattern.
type Injector struct {
	dims torus.Dims
	plan Plan
	seed uint64

	count atomic.Int64 // global packet transmission attempts

	downCount atomic.Int64 // len(down), readable without the lock
	downGen   atomic.Int64 // bumped on every new failure; route caches key on it

	faultedCount atomic.Int64 // len(faulted), readable without the lock

	mu          sync.Mutex
	pending     []LinkDown // not yet fired, sorted by AfterPackets
	down        map[cable]bool
	cbs         []func(torus.Rank, torus.Link)
	pendingNode []NodeFault // not yet fired, sorted by AfterPackets
	faulted     map[torus.Rank]NodeFaultKind
	nodeCbs     []func(NodeFault)
}

// NewInjector builds an injector for the plan. Link-down events with
// AfterPackets <= 0 fire immediately.
func NewInjector(dims torus.Dims, plan Plan, seed int64) (*Injector, error) {
	if err := plan.Validate(dims); err != nil {
		return nil, err
	}
	in := &Injector{
		dims:    dims,
		plan:    plan,
		seed:    mix(uint64(seed) ^ 0xb10c6e5e5eed),
		down:    make(map[cable]bool),
		faulted: make(map[torus.Rank]NodeFaultKind),
	}
	in.pending = append(in.pending, plan.LinkDowns...)
	sort.SliceStable(in.pending, func(i, j int) bool {
		return in.pending[i].AfterPackets < in.pending[j].AfterPackets
	})
	in.pendingNode = append(in.pendingNode, plan.NodeFaults...)
	sort.SliceStable(in.pendingNode, func(i, j int) bool {
		return in.pendingNode[i].AfterPackets < in.pendingNode[j].AfterPackets
	})
	in.fireDue(0)
	in.fireNodeDue(0)
	return in, nil
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// mix is the splitmix64 finalizer: a cheap, high-quality bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Decision salts: each independent Bernoulli trial hashes with its own
// constant so one packet's drop and corrupt coins are uncorrelated.
const (
	saltDrop uint64 = iota + 1
	saltCorrupt
	saltDuplicate
	saltDelay
	saltAck
	saltDelayLen
	saltCorruptByte
)

func (in *Injector) rand01(flow, seq uint64, attempt int, salt uint64) float64 {
	h := mix(in.seed ^ mix(flow) ^ mix(seq+0x9e3779b97f4a7c15) ^ mix(uint64(attempt)*0x2545f4914f6cdd1d+salt))
	return float64(h>>11) / (1 << 53)
}

func (in *Injector) hash(flow, seq uint64, attempt int, salt uint64) uint64 {
	return mix(in.seed ^ mix(flow) ^ mix(seq+0x9e3779b97f4a7c15) ^ mix(uint64(attempt)*0x2545f4914f6cdd1d+salt))
}

// Decide returns the mishaps afflicting one transmission attempt of one
// packet. flow identifies the sender→receiver stream, seq the packet
// within it, attempt the (re)transmission ordinal starting at 1.
func (in *Injector) Decide(flow, seq uint64, attempt int) Action {
	var a Action
	if in.plan.Drop > 0 && in.rand01(flow, seq, attempt, saltDrop) < in.plan.Drop {
		a |= Drop
	}
	if in.plan.Corrupt > 0 && in.rand01(flow, seq, attempt, saltCorrupt) < in.plan.Corrupt {
		a |= Corrupt
	}
	if in.plan.Duplicate > 0 && in.rand01(flow, seq, attempt, saltDuplicate) < in.plan.Duplicate {
		a |= Duplicate
	}
	if in.plan.Delay > 0 && in.rand01(flow, seq, attempt, saltDelay) < in.plan.Delay {
		a |= Delay
	}
	return a
}

// DropAck reports whether the acknowledgement for (flow, seq, attempt)
// is lost on the reverse path; ack loss exercises the sender's timeout
// and the receiver's duplicate suppression.
func (in *Injector) DropAck(flow, seq uint64, attempt int) bool {
	return in.plan.Drop > 0 && in.rand01(flow, seq, attempt, saltAck) < in.plan.Drop
}

// DelayFor returns the deterministic hold-back duration for a delayed
// packet: 1..4ms, long enough to reorder against live traffic.
func (in *Injector) DelayFor(flow, seq uint64, attempt int) time.Duration {
	return time.Duration(1+in.hash(flow, seq, attempt, saltDelayLen)%4) * time.Millisecond
}

// CorruptByte picks which payload byte (mod the payload length) a
// corruption flips.
func (in *Injector) CorruptByte(flow, seq uint64, attempt int) uint64 {
	return in.hash(flow, seq, attempt, saltCorruptByte)
}

// NotePacket records one transmission attempt toward dstNode: it advances
// the global packet counter, fires any link-down events that counter
// crossing triggers, and reports whether a stall window currently refuses
// traffic to dstNode.
func (in *Injector) NotePacket(dstNode torus.Rank) (stalled bool) {
	c := in.count.Add(1)
	if len(in.plan.LinkDowns) > 0 {
		in.fireDue(c)
	}
	if len(in.plan.NodeFaults) > 0 {
		in.fireNodeDue(c)
	}
	for _, s := range in.plan.Stalls {
		if s.Node == dstNode && c >= s.From && c < s.To {
			return true
		}
	}
	return false
}

// fireDue fails every pending link whose threshold the counter reached,
// then invokes the callbacks outside the lock.
func (in *Injector) fireDue(count int64) {
	var fired []LinkDown
	in.mu.Lock()
	for len(in.pending) > 0 && in.pending[0].AfterPackets <= count {
		ld := in.pending[0]
		in.pending = in.pending[1:]
		cb := canonicalCable(in.dims, ld.Node, ld.Link)
		if !in.down[cb] {
			in.down[cb] = true
			in.downCount.Add(1)
			in.downGen.Add(1)
			fired = append(fired, ld)
		}
	}
	cbs := in.cbs
	in.mu.Unlock()
	for _, ld := range fired {
		for _, fn := range cbs {
			fn(ld.Node, ld.Link)
		}
	}
}

// fireNodeDue kills every pending node whose threshold the counter
// reached, then invokes the callbacks outside the lock. A node dies only
// once: a crash and a later hang of the same node collapse to the first.
func (in *Injector) fireNodeDue(count int64) {
	var fired []NodeFault
	in.mu.Lock()
	for len(in.pendingNode) > 0 && in.pendingNode[0].AfterPackets <= count {
		nf := in.pendingNode[0]
		in.pendingNode = in.pendingNode[1:]
		if _, dead := in.faulted[nf.Node]; !dead {
			in.faulted[nf.Node] = nf.Kind
			in.faultedCount.Add(1)
			fired = append(fired, nf)
		}
	}
	cbs := in.nodeCbs
	in.mu.Unlock()
	for _, nf := range fired {
		for _, fn := range cbs {
			fn(nf)
		}
	}
}

// OnNodeFault registers a callback invoked whenever a node dies. Nodes
// already dead at registration time are replayed immediately, so late
// subscribers (the health monitor, the reliable layer) still learn of
// boot-time deaths.
func (in *Injector) OnNodeFault(fn func(NodeFault)) {
	in.mu.Lock()
	in.nodeCbs = append(in.nodeCbs, fn)
	var replay []NodeFault
	for n, k := range in.faulted {
		replay = append(replay, NodeFault{Node: n, Kind: k})
	}
	in.mu.Unlock()
	sort.Slice(replay, func(i, j int) bool { return replay[i].Node < replay[j].Node })
	for _, nf := range replay {
		fn(nf)
	}
}

// ClearNodeFault forgets a fired node fault: the recovery supervisor
// calls it when node r is revived, so the data plane stops blackholing
// traffic to it. Pending (not yet fired) faults against r are untouched
// — a revived node can die again later in the plan, which is exactly
// what the chaos soak wants. Reports whether r was faulted.
func (in *Injector) ClearNodeFault(r torus.Rank) bool {
	in.mu.Lock()
	_, dead := in.faulted[r]
	if dead {
		delete(in.faulted, r)
		in.faultedCount.Add(-1)
	}
	in.mu.Unlock()
	return dead
}

// NodeFaulted reports whether node r has crashed or hung.
func (in *Injector) NodeFaulted(r torus.Rank) bool {
	if in.faultedCount.Load() == 0 {
		return false
	}
	in.mu.Lock()
	_, dead := in.faulted[r]
	in.mu.Unlock()
	return dead
}

// OnLinkDown registers a callback invoked whenever a link fails. Links
// already down at registration time are replayed immediately, so late
// subscribers (classroute managers) still learn of boot-time failures.
func (in *Injector) OnLinkDown(fn func(node torus.Rank, link torus.Link)) {
	in.mu.Lock()
	in.cbs = append(in.cbs, fn)
	var replay []cable
	for cb := range in.down {
		replay = append(replay, cb)
	}
	in.mu.Unlock()
	sort.Slice(replay, func(i, j int) bool {
		if replay[i].node != replay[j].node {
			return replay[i].node < replay[j].node
		}
		return replay[i].link.Dim < replay[j].link.Dim
	})
	for _, cb := range replay {
		fn(cb.node, cb.link)
	}
}

// HasDownLinks cheaply reports whether any link has failed.
func (in *Injector) HasDownLinks() bool { return in.downCount.Load() > 0 }

// DownGen returns a generation counter bumped on every new link failure;
// route caches key on it.
func (in *Injector) DownGen() int64 { return in.downGen.Load() }

// LinkIsDown reports whether the directed link out of node n is dead
// (either direction of the underlying cable having failed kills both).
func (in *Injector) LinkIsDown(n torus.Rank, l torus.Link) bool {
	if in.downCount.Load() == 0 {
		return false
	}
	cb := canonicalCable(in.dims, n, l)
	in.mu.Lock()
	d := in.down[cb]
	in.mu.Unlock()
	return d
}

// DownFn returns the down-link predicate in the shape torus.RouteAround
// and torus.BuildTreeExcluding consume. Returns nil when nothing is down,
// which those functions treat as the fault-free fast path.
func (in *Injector) DownFn() func(torus.Rank, torus.Link) bool {
	if in.downCount.Load() == 0 {
		return nil
	}
	return in.LinkIsDown
}

// FlowHash condenses a flow identity (any four small integers: source
// task/context, destination task/context) into the 64-bit flow key the
// decision functions take.
func FlowHash(a, b, c, d int) uint64 {
	return mix(uint64(a)<<48 ^ uint64(b)<<32 ^ uint64(c)<<16 ^ uint64(d) ^ 0xf1ab)
}

// Jitter derives a deterministic polling backoff in [base, 2*base)
// from a fault-plan seed and a step ordinal. Chaos tests and demo
// drivers use it instead of fixed wall-clock sleeps, so their timing
// pattern is a pure function of the plan seed — replayable, and free
// of the lockstep resonance that fixed sleep intervals produce across
// concurrent pollers.
// Chance reports a deterministic probability-p event derived from the
// seed and the event coordinates — the wire transport's frame-level
// analogue of Injector.Decide, for layers that fault whole frames
// rather than torus packets. The same (p, seed, a, b, c) always gives
// the same answer, so a storm run replays exactly.
func Chance(p float64, seed int64, a, b, c int64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := mix(uint64(seed) ^ 0xc4a75e11f0a37a1d)
	h = mix(h ^ mix(uint64(a)+0x9e3779b97f4a7c15))
	h = mix(h ^ mix(uint64(b)+0x517cc1b727220a95))
	h = mix(h ^ mix(uint64(c)+0x2545f4914f6cdd1d))
	return float64(h>>11)/(1<<53) < p
}

func Jitter(seed int64, step int64, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	h := mix(uint64(seed)^0x9117e2b0057a11ed) ^ mix(uint64(step)+0x517)
	return base + time.Duration(mix(h)%uint64(base))
}
