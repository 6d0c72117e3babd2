// Package mu models the Blue Gene/Q Message Unit (paper §II.C) — the
// hardware DMA engine that moves data between node memory and the 5D
// torus. It supports the three point-to-point packet types PAMI programs:
//
//	memory FIFO — packetized delivery into a reception FIFO, used by the
//	              eager protocol and all active-message traffic;
//	direct put  — RDMA write into a registered remote memory region;
//	remote get  — RDMA read: the initiator describes a remote region and a
//	              local buffer, and the *source* MU streams the data with
//	              no source-CPU involvement; rendezvous uses this.
//
// Injection is modeled synchronously: writing a descriptor to an injection
// FIFO makes the fabric move the data immediately (the hardware's DMA is
// asynchronous but, crucially, consumes no CPU after injection — inline
// execution preserves exactly that software-visible contract). Reception
// keeps the hardware's shape: packets land in lock-free reception FIFOs
// that the owning PAMI context polls during advance, and each delivery
// touches the destination's wakeup region so sleeping commthreads wake.
//
// Resource accounting mirrors the chip: 544 injection and 272 reception
// FIFOs per node, partitioned exclusively among PAMI contexts so that no
// lock is ever needed on the injection path, and injection FIFOs pinned
// per destination so traffic between two endpoints always takes the same
// deterministically-routed path — the property MPI ordering rests on.
package mu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/bufpool"
	"pamigo/internal/health"
	"pamigo/internal/l2atomic"
	"pamigo/internal/lockless"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
	"pamigo/internal/watchdog"
)

// Hardware constants from paper §II.B-C.
const (
	// InjFIFOsPerNode is the number of MU injection FIFOs on a node.
	InjFIFOsPerNode = 544
	// RecFIFOsPerNode is the number of MU reception FIFOs on a node.
	RecFIFOsPerNode = 272
	// PacketHeaderBytes is the torus packet header size.
	PacketHeaderBytes = 32
	// MaxPayload is the largest packet payload, in PayloadGranule steps.
	MaxPayload = 512
	// PayloadGranule is the payload size increment.
	PayloadGranule = 32
	// DescriptorBytes is the size of an MU injection descriptor.
	DescriptorBytes = 64
)

// TaskAddr addresses a PAMI endpoint: a context within a task (process).
type TaskAddr struct {
	Task int
	Ctx  int
}

// String formats the address as task.context.
func (a TaskAddr) String() string { return fmt.Sprintf("%d.%d", a.Task, a.Ctx) }

// Header is the software header carried in the first packet of a message.
// It is what a PAMI active-message dispatch needs: who sent it, which
// dispatch handler to run, reassembly coordinates, and a small metadata
// blob (the PAMI "header" argument, e.g. the MPI envelope).
type Header struct {
	Dispatch uint16
	Origin   TaskAddr
	Seq      uint64
	Offset   int
	Total    int
	Meta     []byte

	// PktSeq is the per-flow link-level sequence number the reliable
	// delivery layer assigns, starting at 1; 0 marks a packet that
	// bypassed the layer (faults disabled). Checksum is the CRC-32C over
	// the rest of the packet, verified at reception when faults are on.
	PktSeq   uint64
	Checksum uint32
}

// recShards is the number of per-producer queue shards inside one
// reception FIFO. Producers are origin-hashed onto shards, so a
// many-to-one fan-in spreads its ticket CASes over recShards cache
// lines instead of rendezvousing on one tail word. Must stay a power of
// two for the mask in shardFor. Order within one origin is untouched
// (an origin always hashes to the same shard); order *across* origins
// was never guaranteed — concurrent producers raced for tickets before.
const recShards = 4

// RecFIFO is a reception FIFO owned by exactly one PAMI context. It is
// recShards lockless queues behind one facade: deliveries hash their
// origin endpoint onto a shard, and the owning context's Poll/PollBatch
// drains the shards round-robin starting from a rotating cursor so no
// shard can starve the others.
//
// The struct is three cache lines, one per writer (DESIGN §7): every
// producer reads the first line per message and nobody writes it after
// allocation; the consumer stores to the second on every poll; both sides
// ratchet the third. Its 192 bytes are an allocation size class of whole
// lines, so the lines stay aligned.
type RecFIFO struct {
	id     int
	shards [recShards]*lockless.Queue[Packet]
	region *wakeup.Region
	_      [16]byte

	next uint32 // round-robin drain cursor; single consumer, no atomics
	_    [60]byte

	// The FIFO keeps no per-packet counter of its own: packets received,
	// occupancy and the overflow high-water mark are read off the shards'
	// tickets (Received, Occupancy, overflowHWM). occHWM is the occupancy
	// high-water mark, ratcheted where the depth is computed anyway: at
	// each drain, each Occupancy probe and each snapshot.
	occHWM l2atomic.Counter
	_      [56]byte
}

// shardFor picks the delivery shard for an origin endpoint. The same
// origin always lands on the same shard — the per-flow FIFO-order
// contract the reliable layer and MPI matching rest on.
func (f *RecFIFO) shardFor(origin TaskAddr) *lockless.Queue[Packet] {
	h := uint32(origin.Task)*0x9E3779B1 ^ uint32(origin.Ctx)*0x85EBCA6B
	return f.shards[(h>>13)&(recShards-1)]
}

// Poll removes the next packet, if one is ready. The caller owns one
// reference to the packet's pooled buffers and must Release it after
// dispatch.
func (f *RecFIFO) Poll() (Packet, bool) {
	for i := uint32(0); i < recShards; i++ {
		idx := (f.next + i) & (recShards - 1)
		if p, ok := f.shards[idx].Dequeue(); ok {
			f.next = idx + 1
			return p, ok
		}
	}
	return Packet{}, false
}

// PollBatch drains up to len(dst) packets with one ticket-range claim
// per non-empty shard. The starting shard rotates every call, so under
// sustained fan-in every producer shard gets the front slot equally
// often. The caller owns one reference to each drained packet's pooled
// buffers and must Release each after dispatch.
//
// A shard's drain stops at a ticket that is claimed but not yet
// published, so a short batch can leave packets behind it. PollBatch
// does not wait for that producer: its touch after the publish
// (deliver) wakes a caller that sleeps on a generation it read before
// polling.
func (f *RecFIFO) PollBatch(dst []Packet) int {
	n, depth := 0, int64(0)
	start := f.next
	f.next++
	for i := uint32(0); i < recShards && n < len(dst); i++ {
		q := f.shards[(start+i)&(recShards-1)]
		depth += int64(q.Len())
		n += q.DrainInto(dst[n:])
	}
	if n > 0 {
		f.occHWM.StoreMax(depth)
	}
	return n
}

// Empty reports whether the FIFO currently holds no packets.
func (f *RecFIFO) Empty() bool {
	for _, q := range f.shards {
		if !q.Empty() {
			return false
		}
	}
	return true
}

// Region returns the wakeup region touched on every delivery.
func (f *RecFIFO) Region() *wakeup.Region { return f.region }

// SetOverflowCap bounds the FIFO's overflow queues: the budget is split
// evenly over the shards (rounded up), so the whole FIFO parks at most
// n+recShards-1 packets beyond its lock-free arrays before refusing
// further traffic. Drivers that model a strict
// unexpected-message budget lower this from the default.
func (f *RecFIFO) SetOverflowCap(n int) {
	per := n
	if n > 0 {
		per = (n + recShards - 1) / recShards
	}
	for _, q := range f.shards {
		q.SetOverflowCap(per)
	}
}

// Received returns the number of packets delivered to this FIFO: the
// sum of its shards' tail tickets.
func (f *RecFIFO) Received() int64 {
	var n int64
	for _, q := range f.shards {
		n += q.Enqueued()
	}
	return n
}

// Occupancy returns the packets currently queued and the FIFO's
// occupancy high-water mark — the §V quantity that shows whether a
// context keeps up with its arrival rate. The level is the sum of the
// shards' ticket spans; the mark is sampled at each drain, each call and
// each snapshot, so it is a lower bound of the true peak that every
// sender's pressure probe (a call here) keeps honest.
func (f *RecFIFO) Occupancy() (cur, highWater int64) {
	for _, q := range f.shards {
		cur += int64(q.Len())
	}
	f.occHWM.StoreMax(cur)
	return cur, f.occHWM.Load()
}

// overflowHWM is the deepest any shard's overflow has been.
func (f *RecFIFO) overflowHWM() (value, highWater int64) {
	for _, q := range f.shards {
		value = max(value, q.OverflowHWM())
	}
	return value, value
}

// ArrayCap returns the total lock-free array capacity across the FIFO's
// shards.
func (f *RecFIFO) ArrayCap() int {
	n := 0
	for _, q := range f.shards {
		n += q.Cap()
	}
	return n
}

// ID returns the FIFO's hardware index on its node.
func (f *RecFIFO) ID() int { return f.id }

// deliver appends one packet to the origin's shard of the FIFO. It fails
// with lockless.ErrBackpressure when that shard's overflow is at cap —
// the hardware analogue of a reception FIFO whose consumer has died —
// and the caller then still owns the packet's references. The packet is
// copied out of *p. quiet leaves the wake-up to the burst's end, and
// obliges the caller to touch the region once the burst is published
// (at the end of the reliable link's message and before each of its
// waits, or by EndRemoteBurst): a consumer that found its sources
// drained sleeps on the generation until that touch
// (core.Context.AdvanceUntil).
func (f *RecFIFO) deliver(p *Packet, quiet bool) error {
	if err := f.shardFor(p.origin()).EnqueueRef(p); err != nil {
		return err
	}
	if !quiet {
		f.region.Touch()
	}
	return nil
}

// InjFIFO is an injection FIFO owned by exactly one PAMI context. The
// owning context serializes injections into each of its FIFOs, so the
// structure needs no lock — that exclusivity is the paper's point, and
// it is what makes the embedded destination cache legal: only the owner
// reads or writes it.
type InjFIFO struct {
	id int

	// The traffic this FIFO's descriptors carried: memory-FIFO sends,
	// puts, remote gets, and the packets and bytes they put on the torus.
	// The owning context is in practice the one writer (atomics because
	// InjectMemFIFO and a rendezvous pull may run on another thread), so
	// counting costs no shared cache line; the fabric folds them into its
	// totals.
	sends, puts, gets, packets, bytes atomic.Int64

	// Destination-resolution cache. Injection FIFOs are pinned per
	// destination (PinnedInj), so consecutive injections overwhelmingly
	// resolve the same endpoint; caching the reception FIFO skips the
	// contexts-map hash per packet. The cache is validated by COW map
	// identity: any registration swaps the map pointer and misses here.
	// Only InjectMemFIFOBuf — the ownership-transfer path, which only the
	// owning context thread may call — touches these fields; InjectMemFIFO
	// stays cache-free because the rendezvous ack can inject from any
	// thread.
	lastMap  *map[TaskAddr]*RecFIFO
	lastDst  TaskAddr
	lastFifo *RecFIFO

	// Pad to 128 bytes, an allocation size class of whole cache lines:
	// FIFOs of two contexts never share a line.
	_ [48]byte
}

// ID returns the FIFO's hardware index on its node.
func (f *InjFIFO) ID() int { return f.id }

// Injected returns the number of descriptors injected into this FIFO.
func (f *InjFIFO) Injected() int64 { return f.sends.Load() + f.puts.Load() + f.gets.Load() }

// ContextResources is the exclusive MU slice handed to one PAMI context.
type ContextResources struct {
	Inj []*InjFIFO
	Rec *RecFIFO
}

// PinnedInj returns the injection FIFO statically pinned to the given
// destination task, so every message to that destination uses the same
// FIFO and hence the same deterministic route (paper §III.E).
func (cr *ContextResources) PinnedInj(dstTask int) *InjFIFO {
	return cr.Inj[dstTask%len(cr.Inj)]
}

// NodeMU is the per-node Message Unit: FIFO pools and allocation state.
type NodeMU struct {
	rank torus.Rank
	tele *telemetry.Registry

	mu         sync.Mutex
	inj        []*InjFIFO // every FIFO allocated, in id order
	recUsed    int
	recFIFOCap int
}

// Rank returns the node's torus rank.
func (n *NodeMU) Rank() torus.Rank { return n.rank }

// AllocContext carves an exclusive set of injection FIFOs and one
// reception FIFO out of the node's pools for a new PAMI context. The
// reception FIFO signals deliveries on region; a context shares one region
// across all its devices (MU, shared memory, work queue) so a commthread
// has a single address to wait on. A nil region allocates a private one.
func (n *NodeMU) AllocContext(injCount int, region *wakeup.Region) (*ContextResources, error) {
	if injCount < 1 {
		return nil, fmt.Errorf("mu: context needs at least one injection FIFO")
	}
	if region == nil {
		region = wakeup.NewRegion()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.inj)+injCount > InjFIFOsPerNode {
		return nil, fmt.Errorf("%w: node %d (%d used, %d requested)", ErrNoInjFIFO, n.rank, len(n.inj), injCount)
	}
	if n.recUsed+1 > RecFIFOsPerNode {
		return nil, fmt.Errorf("%w: node %d", ErrNoRecFIFO, n.rank)
	}
	rec := &RecFIFO{id: n.recUsed, region: region}
	res := &ContextResources{Rec: rec}
	// Every shard gets the FULL configured array capacity, not a
	// 1/recShards slice of it: a single-origin flow hashes onto exactly
	// one shard, and shrinking that shard's array would push a flow into
	// the mutex-protected overflow recShards times sooner than the
	// unsharded FIFO did. Sharding is meant to spread contention and add
	// buffering, never to subdivide it.
	perShard := n.recFIFOCap
	if perShard < 2 {
		perShard = 2
	}
	for i := range rec.shards {
		rec.shards[i] = lockless.NewQueue[Packet](perShard)
	}
	recTele := n.tele.Group(fmt.Sprintf("rec%d", rec.id))
	recTele.CounterFunc("packets_received", rec.Received)
	recTele.GaugeFunc("occupancy", rec.Occupancy)
	recTele.GaugeFunc("overflow_hwm", rec.overflowHWM)
	for i := 0; i < injCount; i++ {
		inj := &InjFIFO{id: len(n.inj)}
		n.tele.Group(fmt.Sprintf("inj%d", inj.id)).CounterFunc("descriptors_injected", inj.Injected)
		res.Inj = append(res.Inj, inj)
		n.inj = append(n.inj, inj)
	}
	n.recUsed++
	return res, nil
}

// InjFIFOsUsed reports how many injection FIFOs are allocated on the node.
func (n *NodeMU) InjFIFOsUsed() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.inj)
}

// Stats aggregates fabric-wide traffic counters.
type Stats struct {
	Packets      int64
	Bytes        int64
	MemFIFOSends int64
	Puts         int64
	RemoteGets   int64
	Hops         int64
}

// Fabric is the machine-wide Message Unit + torus data plane: it owns the
// per-node MUs, the task placement map, each task's memregion table, and
// packet delivery.
type Fabric struct {
	dims  torus.Dims
	nodes []*NodeMU
	tele  *telemetry.Registry

	// Task placement and context registration are read on every send but
	// written only at bootstrap, so readers go through copy-on-write maps
	// behind atomic pointers — the send path takes no lock at all, the
	// same no-lock-on-injection property the hardware partitioning gives.
	taskMu   sync.Mutex                         // serializes writers
	taskNode atomic.Pointer[map[int]torus.Rank] // read-only snapshot
	contexts atomic.Pointer[map[TaskAddr]*RecFIFO]
	ctxGen   atomic.Uint64 // bumped with every contexts swap; see ContextsGen

	// mrTables holds one memregion table per task, indexed by task
	// (memregion.go): a copy-on-write slice like the maps above. The pad
	// keeps the counters below off the lines every send reads.
	mrTables atomic.Pointer[[]*mrTable]
	_        [24]byte

	// packets and bytes count the wire deliveries, the one traffic no
	// injection FIFO here carries; every injected message and RDMA
	// descriptor is counted on its InjFIFO, and Snapshot folds both.
	packets, bytes telemetry.Counter
	hops           *telemetry.Counter

	// rel is the reliable-delivery layer, installed by InstallFaults.
	// Nil (the default) keeps every send on the zero-overhead fast path.
	rel atomic.Pointer[reliableLayer]

	// transport is the inter-process leg, installed by InstallTransport
	// when the partition spans OS processes. Nil (the default) keeps
	// every send in-process.
	transport atomic.Pointer[transportSlot]

	// stallSite is the stall-sentinel wait site a sender waiting on the
	// reliable link registers with; nil (the default) keeps the link's
	// waits sentinel-free.
	stallSite atomic.Pointer[watchdog.Site]

	// hmon is the membership record the reliable layer asks who is dead;
	// nil (the default) means no node ever dies.
	hmon atomic.Pointer[health.Monitor]

	// TrackHops enables per-packet route-length accounting (costs a route
	// computation per message; tests and examples enable it).
	TrackHops bool
}

// SetSentinel registers the fabric's link-stall wait site with the
// partition stall sentinel: senders waiting for the reliable link to
// take a packet become visible in the wait-site table, and — when the
// sentinel is armed — an over-deadline wait fails the flow with a typed
// abort instead of hanging. Call before traffic starts.
func (f *Fabric) SetSentinel(s *watchdog.Sentinel) {
	if s == nil {
		return
	}
	f.stallSite.Store(s.Site("mu.link.stall"))
}

// SetHealth makes m the fabric's membership record: the reliable layer
// fails sends and RDMA to a node m calls dead, a sender waiting on such
// a node included. The fabric keeps no copy; ReviveNode is its reaction
// to a revival m is about to record. Call before traffic starts.
func (f *Fabric) SetHealth(m *health.Monitor) { f.hmon.Store(m) }

// NewFabric builds the MU fabric for a machine of the given shape. Each
// reception FIFO's lock-free array holds recFIFOSlots packets before
// spilling to its overflow queue (the hardware analogue is FIFO memory
// backpressure; the queue keeps packets in order either way).
func NewFabric(dims torus.Dims, recFIFOSlots int) (*Fabric, error) {
	if err := dims.Validate(); err != nil {
		return nil, err
	}
	if recFIFOSlots < 2 {
		recFIFOSlots = 2
	}
	tele := telemetry.NewRegistry("mu")
	f := &Fabric{
		dims: dims,
		tele: tele,
		hops: tele.Counter("hops"),
	}
	tele.CounterFunc("packets", func() int64 { return f.Snapshot().Packets })
	tele.CounterFunc("bytes", func() int64 { return f.Snapshot().Bytes })
	tele.CounterFunc("mem_fifo_sends", func() int64 { return f.Snapshot().MemFIFOSends })
	tele.CounterFunc("puts", func() int64 { return f.Snapshot().Puts })
	tele.CounterFunc("remote_gets", func() int64 { return f.Snapshot().RemoteGets })
	emptyTasks := make(map[int]torus.Rank)
	emptyCtxs := make(map[TaskAddr]*RecFIFO)
	var emptyMRs []*mrTable
	f.taskNode.Store(&emptyTasks)
	f.contexts.Store(&emptyCtxs)
	f.mrTables.Store(&emptyMRs)
	for r := 0; r < dims.Nodes(); r++ {
		f.nodes = append(f.nodes, &NodeMU{
			rank:       torus.Rank(r),
			tele:       tele.Group(fmt.Sprintf("node%d", r)),
			recFIFOCap: recFIFOSlots,
		})
	}
	return f, nil
}

// Telemetry returns the fabric's counter registry; the machine layer
// adopts it into the job-wide registry tree.
func (f *Fabric) Telemetry() *telemetry.Registry { return f.tele }

// Dims returns the machine shape.
func (f *Fabric) Dims() torus.Dims { return f.dims }

// Node returns the MU of the node with the given rank.
func (f *Fabric) Node(r torus.Rank) *NodeMU { return f.nodes[r] }

// MapTask records that a task (process) lives on the given node.
// Placement is written at bootstrap; the send path reads it lock-free.
func (f *Fabric) MapTask(task int, node torus.Rank) {
	f.taskMu.Lock()
	old := *f.taskNode.Load()
	next := make(map[int]torus.Rank, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[task] = node
	f.taskNode.Store(&next)
	f.taskMu.Unlock()
}

// TaskNode returns the node a task lives on.
func (f *Fabric) TaskNode(task int) (torus.Rank, bool) {
	r, ok := (*f.taskNode.Load())[task]
	return r, ok
}

// RegisterContext publishes a context's reception FIFO so packets
// addressed to (task, ctx) can be delivered.
func (f *Fabric) RegisterContext(addr TaskAddr, fifo *RecFIFO) {
	f.taskMu.Lock()
	old := *f.contexts.Load()
	next := make(map[TaskAddr]*RecFIFO, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[addr] = fifo
	f.contexts.Store(&next)
	f.ctxGen.Add(1)
	f.taskMu.Unlock()
}

// TouchAll wakes every registered context's wakeup region. The machine
// calls it after a confirmed node death so commthreads and application
// threads parked in region.Wait re-advance, observe the new membership
// epoch, and fail their cancelled operations instead of sleeping on a
// signal the dead peer will never send.
func (f *Fabric) TouchAll() {
	for _, fifo := range *f.contexts.Load() {
		fifo.region.Touch()
	}
}

// Quiesced verifies the data plane is idle — the precondition for a
// checkpoint: every registered reception FIFO is empty and, when the
// reliable layer is armed, no send is inside its link. Returns nil when
// quiescent, or an error naming the busy component.
func (f *Fabric) Quiesced() error {
	for addr, fifo := range *f.contexts.Load() {
		if !fifo.Empty() {
			return fmt.Errorf("mu: rec FIFO of %v still holds packets", addr)
		}
	}
	if r := f.rel.Load(); r != nil {
		return r.quiesced()
	}
	return nil
}

// ContextRegistered reports whether a reception FIFO has been registered
// for the endpoint; job bootstrap uses it to rendezvous before traffic.
func (f *Fabric) ContextRegistered(addr TaskAddr) bool {
	_, ok := (*f.contexts.Load())[addr]
	return ok
}

// RecFIFOOf returns the reception FIFO registered for the endpoint, for
// harnesses that tune its overflow cap or read its occupancy high-water
// mark. ok is false when the endpoint has no registered context.
func (f *Fabric) RecFIFOOf(addr TaskAddr) (*RecFIFO, bool) {
	fifo, found := (*f.contexts.Load())[addr]
	return fifo, found
}

// lookupContext resolves a destination endpoint's reception FIFO without
// taking any lock — it sits on the per-packet injection path.
func (f *Fabric) lookupContext(addr TaskAddr) (*RecFIFO, error) {
	fifo, ok := (*f.contexts.Load())[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchContext, addr)
	}
	return fifo, nil
}

// lookupContextCached is lookupContext through the injection FIFO's
// single-owner destination cache: pinned-destination traffic resolves
// with one atomic load and two compares instead of a map probe. The
// cache self-invalidates when a registration swaps the COW map.
func (f *Fabric) lookupContextCached(inj *InjFIFO, addr TaskAddr) (*RecFIFO, error) {
	m := f.contexts.Load()
	if inj.lastMap == m && inj.lastDst == addr {
		return inj.lastFifo, nil
	}
	fifo, ok := (*m)[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchContext, addr)
	}
	inj.lastMap, inj.lastDst, inj.lastFifo = m, addr, fifo
	return fifo, nil
}

// ContextsGen returns a generation stamp for the context registration
// map: it changes whenever RegisterContext swaps the COW map. Layers
// above (core's per-context destination cache) revalidate against it
// instead of re-probing the map per message.
func (f *Fabric) ContextsGen() uint64 { return f.ctxGen.Load() }

// account charges packets put on the torus to inj, the FIFO that carried
// them, or with a nil inj (the wire leg) to the fabric's own counters.
func (f *Fabric) account(inj *InjFIFO, srcTask int, dstTask int, packets, bytes int64) {
	if inj != nil {
		inj.packets.Add(packets)
		inj.bytes.Add(bytes)
	} else {
		f.packets.Add(packets)
		f.bytes.Add(bytes)
	}
	if f.TrackHops {
		sn, ok1 := f.TaskNode(srcTask)
		dn, ok2 := f.TaskNode(dstTask)
		if ok1 && ok2 {
			h := f.dims.Hops(sn, dn)
			if rl := f.rel.Load(); rl != nil {
				if rh, ok := rl.routeInfo(sn, dn); ok {
					h = rh
				}
			}
			f.hops.Add(packets * int64(h))
		}
	}
}

// InjectMemFIFO injects a memory-FIFO message: the payload is packetized
// into MaxPayload chunks and delivered, in order, to the destination
// endpoint's reception FIFO. The metadata rides only in the first packet.
// Both are copied out at injection time — into the packet itself when
// they fit (InlineMax), else into pooled slabs, never fresh allocations —
// so the caller may reuse its buffers immediately: the contract the MU
// gives software once the descriptor's data has been DMA-read. Callable
// from any thread (the rendezvous ack fires from whichever ran Receive).
func (f *Fabric) InjectMemFIFO(inj *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
	return f.injectMemFIFO(inj, false, dst, &hdr, payload, nil)
}

// InjectMemFIFOBuf is InjectMemFIFO with ownership transfer: the caller
// relinquishes payload — a pooled buffer whose Bytes() are exactly the
// message — and the fabric consumes that reference on every path,
// success or failure. A message that fits inline (InlineMax) is copied
// into its packet and the slab released before the call returns; a
// larger one is never copied again: its packets carry views into the
// slab, one reference each, and the last consumer Release repools it. A
// nil payload is the zero-length message. Owner thread of inj only.
func (f *Fabric) InjectMemFIFOBuf(inj *InjFIFO, dst TaskAddr, hdr Header, payload *bufpool.Buf) error {
	if payload == nil {
		return f.injectMemFIFO(inj, true, dst, &hdr, nil, nil)
	}
	return f.injectMemFIFO(inj, true, dst, &hdr, payload.Bytes(), payload)
}

// injectMemFIFO routes one message to its leg. own is the relinquished
// slab src views, nil when the caller keeps src; owner says the caller is
// inj's owning thread and may use its single-owner destination cache.
func (f *Fabric) injectMemFIFO(inj *InjFIFO, owner bool, dst TaskAddr, hdr *Header, src []byte, own *bufpool.Buf) error {
	if err := hdr.checkNarrow(len(src)); err != nil {
		own.Release()
		return err
	}
	if t := f.remoteFor(dst.Task); t != nil {
		// The transport contract copies the payload before Send returns,
		// so the wire leg can consume the caller's reference right here.
		err := f.injectRemote(t, inj, dst, *hdr, src)
		own.Release()
		return err
	}
	var fifo *RecFIFO
	var err error
	if owner {
		fifo, err = f.lookupContextCached(inj, dst)
	} else {
		fifo, err = f.lookupContext(dst)
	}
	if err != nil {
		own.Release()
		return err
	}
	hdr.Offset, hdr.Total = 0, len(src)
	if rl := f.rel.Load(); rl != nil {
		return rl.injectMemFIFOBuf(inj, fifo, dst, hdr, src, own)
	}
	inj.sends.Add(1)
	_, err = f.enqueue(inj, fifo, dst, hdr, src, own)
	return err
}

// enqueue is the fault-free end of local injection and of the wire leg:
// packetize src from hdr.Offset on and queue the packets on fifo,
// accounting them to inj. On the wire leg inj is nil and the wake-up is
// left to the burst's end (EndRemoteBurst). It returns the payload
// bytes queued; a refusal names the flow and FIFO so callers up in
// core/mpilib can diagnose it and still errors.Is-match
// lockless.ErrBackpressure.
func (f *Fabric) enqueue(inj *InjFIFO, fifo *RecFIFO, dst TaskAddr, hdr *Header, src []byte, own *bufpool.Buf) (int, error) {
	var pkt Packet
	var err error
	base, npkts := hdr.Offset, int64(0)
	own = slabFor(hdr, src, own, MaxPayload)
	for more := true; more; npkts++ {
		rest := nextPacket(&pkt, hdr, src, own, MaxPayload)
		if err = fifo.deliver(&pkt, inj == nil); err != nil {
			pkt.Release()
			if len(rest) > 0 {
				abandon(own, rest)
			}
			hdr.Offset -= int(pkt.plen)
			err = fmt.Errorf("mu: rec FIFO %d of endpoint %v refused packet from %v: %w", fifo.id, dst, hdr.Origin, err)
			break
		}
		src, more = rest, len(rest) > 0
	}
	done := hdr.Offset - base
	f.account(inj, hdr.Origin.Task, dst.Task, npkts, int64(done)+npkts*PacketHeaderBytes)
	return done, err
}

// InjectPut performs an RDMA write: n bytes from src are stored into the
// destination task's registered memregion at dstOff. When done, the
// destination counter (if any) is incremented by n and the destination
// context's reception region is touched so pollers notice.
func (f *Fabric) InjectPut(inj *InjFIFO, srcTask int, src []byte, dst TaskAddr, dstMR uint64, dstOff int, done *l2atomic.Counter) error {
	if err := f.crossProcessRDMACheck("put", dst.Task); err != nil {
		return err
	}
	buf, ok := f.Memregion(dst.Task, dstMR)
	if !ok {
		return fmt.Errorf("%w: put to memregion %d of task %d", ErrNoSuchMemregion, dstMR, dst.Task)
	}
	if dstOff < 0 || dstOff+len(src) > len(buf) {
		return fmt.Errorf("%w: put %d+%d > %d (memregion %d of task %d)", ErrMemregionBounds, dstOff, len(src), len(buf), dstMR, dst.Task)
	}
	inj.puts.Add(1)
	if rl := f.rel.Load(); rl != nil {
		if err := rl.rdmaFaults(srcTask, dst.Task, int(dstMR), len(src)); err != nil {
			return err
		}
	}
	copy(buf[dstOff:], src)
	if done != nil {
		done.StoreAdd(int64(len(src)))
	}
	npkts := int64(packetsFor(len(src), MaxPayload))
	f.account(inj, srcTask, dst.Task, npkts, int64(len(src))+npkts*PacketHeaderBytes)
	if fifo, err := f.lookupContext(dst); err == nil {
		fifo.region.Touch()
	}
	return nil
}

// InjectRemoteGet performs an RDMA read: n bytes of the data task's
// registered memregion, starting at srcOff, are streamed into dst. The
// data source's CPU is not involved — exactly the rendezvous property the
// paper exploits. On completion the initiator's counter is incremented by
// n and its context region touched.
func (f *Fabric) InjectRemoteGet(inj *InjFIFO, initiator TaskAddr, dataTask int, dataMR uint64, srcOff int, dst []byte, done *l2atomic.Counter) error {
	if err := f.crossProcessRDMACheck("remote get", dataTask); err != nil {
		return err
	}
	buf, ok := f.Memregion(dataTask, dataMR)
	if !ok {
		return fmt.Errorf("%w: remote get from memregion %d of task %d", ErrNoSuchMemregion, dataMR, dataTask)
	}
	if srcOff < 0 || srcOff+len(dst) > len(buf) {
		return fmt.Errorf("%w: remote get %d+%d > %d (memregion %d of task %d)", ErrMemregionBounds, srcOff, len(dst), len(buf), dataMR, dataTask)
	}
	inj.gets.Add(1)
	if rl := f.rel.Load(); rl != nil {
		// The data moves dataTask -> initiator; faults hit that direction.
		if err := rl.rdmaFaults(dataTask, initiator.Task, int(dataMR), len(dst)); err != nil {
			return err
		}
	}
	copy(dst, buf[srcOff:srcOff+len(dst)])
	if done != nil {
		done.StoreAdd(int64(len(dst)))
	}
	npkts := int64(packetsFor(len(dst), MaxPayload))
	f.account(inj, dataTask, initiator.Task, npkts, int64(len(dst))+npkts*PacketHeaderBytes)
	if fifo, err := f.lookupContext(initiator); err == nil {
		fifo.region.Touch()
	}
	return nil
}

// Snapshot returns the fabric's cumulative traffic statistics: its own
// counters plus every injection FIFO's.
func (f *Fabric) Snapshot() Stats {
	s := Stats{
		Packets: f.packets.Load(),
		Bytes:   f.bytes.Load(),
		Hops:    f.hops.Load(),
	}
	for _, n := range f.nodes {
		n.mu.Lock()
		for _, inj := range n.inj {
			s.MemFIFOSends += inj.sends.Load()
			s.Puts += inj.puts.Load()
			s.RemoteGets += inj.gets.Load()
			s.Packets += inj.packets.Load()
			s.Bytes += inj.bytes.Load()
		}
		n.mu.Unlock()
	}
	return s
}
