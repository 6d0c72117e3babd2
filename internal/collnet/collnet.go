// Package collnet models the Blue Gene/Q collective network (paper §II.B,
// §III.D). Unlike BG/L and BG/P, the BG/Q collective network is embedded in
// the 5D torus: a *classroute* programs, at every participating node, which
// links feed the combine up-tree and which link forwards toward the root,
// so that barrier, broadcast, reduce and allreduce execute in the network
// with integer and floating-point add/min/max combining.
//
// The package provides:
//
//   - ClassRoute allocation over contiguous rectangles of nodes, with the
//     hardware limit of 16 routes per node (some reserved for the system),
//     which is why PAMI exposes communicator "optimize"/"deoptimize";
//   - the combine arithmetic the router ALU implements;
//   - functional collective sessions (reduce / allreduce / broadcast /
//     barrier) that processes on different goroutine "nodes" join and that
//     combine contributions in a deterministic tree order, exactly like the
//     hardware's fixed wiring makes FP reductions reproducible;
//   - the Global Interrupt (GI) barrier used by MPI_Barrier.
//
// Timing at 2048-node scale is not modeled here; internal/model derives
// figure latencies from the tree geometry this package exposes.
package collnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sync/atomic"

	"pamigo/internal/health"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
	"pamigo/internal/watchdog"
)

// SlotsPerNode is the hardware classroute capacity of a node.
const SlotsPerNode = 16

// ReservedSlots is how many classroute slots the system keeps for itself
// (system collectives, job control).
const ReservedSlots = 2

// UserSlots is the number of classroute slots available to user software.
const UserSlots = SlotsPerNode - ReservedSlots

// Op is a combine operation supported by the collective network ALU.
type Op int

// Supported combine operations (paper: "integer and floating point
// operations such as add, min and max").
const (
	OpAdd Op = iota
	OpMin
	OpMax
	OpBitOR  // used by software for flags; routers support logical ops
	OpBitAND // used by software for agreement bits
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpBitOR:
		return "bor"
	case OpBitAND:
		return "band"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// DType is the element type the router ALU combines.
type DType int

// Supported element types; all are 8-byte words, the unit of the L2
// atomics and of the router ALU datapath.
const (
	Int64 DType = iota
	Uint64
	Float64
)

// Size returns the element size in bytes.
func (d DType) Size() int { return 8 }

// String names the type.
func (d DType) String() string {
	switch d {
	case Int64:
		return "int64"
	case Uint64:
		return "uint64"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Combine folds src into acc element-wise: acc = acc (op) src. Buffers are
// little-endian packed 8-byte words and must have equal length, a multiple
// of 8.
func Combine(op Op, dt DType, acc, src []byte) error {
	if len(acc) != len(src) {
		return fmt.Errorf("collnet: combine length mismatch %d vs %d", len(acc), len(src))
	}
	if len(acc)%8 != 0 {
		return fmt.Errorf("collnet: combine length %d not word aligned", len(acc))
	}
	for i := 0; i < len(acc); i += 8 {
		a := binary.LittleEndian.Uint64(acc[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(acc[i:], combineWord(op, dt, a, s))
	}
	return nil
}

func combineWord(op Op, dt DType, a, s uint64) uint64 {
	switch op {
	case OpBitOR:
		return a | s
	case OpBitAND:
		return a & s
	}
	switch dt {
	case Int64:
		x, y := int64(a), int64(s)
		switch op {
		case OpAdd:
			return uint64(x + y)
		case OpMin:
			if y < x {
				return uint64(y)
			}
			return uint64(x)
		case OpMax:
			if y > x {
				return uint64(y)
			}
			return uint64(x)
		}
	case Uint64:
		switch op {
		case OpAdd:
			return a + s
		case OpMin:
			if s < a {
				return s
			}
			return a
		case OpMax:
			if s > a {
				return s
			}
			return a
		}
	case Float64:
		x, y := math.Float64frombits(a), math.Float64frombits(s)
		switch op {
		case OpAdd:
			return math.Float64bits(x + y)
		case OpMin:
			return math.Float64bits(math.Min(x, y))
		case OpMax:
			return math.Float64bits(math.Max(x, y))
		}
	}
	panic(fmt.Sprintf("collnet: unsupported op %v on %v", op, dt))
}

// EncodeFloat64s packs values little-endian into a fresh byte buffer.
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s unpacks a little-endian buffer into float64 values.
func DecodeFloat64s(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// EncodeInt64s packs values little-endian into a fresh byte buffer.
func EncodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// DecodeInt64s unpacks a little-endian buffer into int64 values.
func DecodeInt64s(buf []byte) []int64 {
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// ClassRoute is one programmed collective tree over a rectangle of nodes.
type ClassRoute struct {
	ID   int
	Rect torus.Rectangle
	Root torus.Rank // current root; re-elected if the original dies

	// tree is the currently programmed combine tree. It is swapped
	// atomically when a link failure forces a rebuild, so in-flight
	// sessions read a consistent tree (old or new, both spanning).
	tree atomic.Pointer[torus.Tree]

	// ranks is the surviving membership, swapped atomically when a node
	// death shrinks the route.
	ranks atomic.Pointer[[]torus.Rank]

	net      *Network
	degraded bool // no fault-avoiding tree exists; running on a stale one

	// nodes is every rank of the rectangle, ascending and fixed for the
	// route's life: the index space of the per-node session state.
	nodes []torus.Rank

	mu      sync.Mutex
	slots   [SessionCredits]Session // the session table: one slot per credit
	retired *sync.Cond              // signalled under mu when a session retires or the route is freed
	poison  error                   // sticky route failure: every Join fails fast with it
}

// index returns rank's position in the rectangle.
func (cr *ClassRoute) index(rank torus.Rank) int {
	i, ok := slices.BinarySearch(cr.nodes, rank)
	if !ok {
		panic(fmt.Sprintf("collnet: node %d is outside classroute %d", rank, cr.ID))
	}
	return i
}

// failOpen fails every session open on cr right now; what names the
// membership change in the error.
func (n *Network) failOpen(cr *ClassRoute, node torus.Rank, what string) {
	var seqs [SessionCredits]uint64
	var open [SessionCredits]bool
	cr.mu.Lock()
	for i := range cr.slots {
		seqs[i], open[i] = cr.slots[i].seq, cr.slots[i].open
	}
	cr.mu.Unlock()
	// Fail outside cr.mu, by sequence number: a slot may have retired and
	// found a new tenant in between.
	for i, seq := range seqs {
		if open[i] && cr.slots[i].FailSeq(seq, fmt.Errorf("collnet: node %d %s during session %d: %w",
			node, what, seq, health.ErrEpochChanged)) {
			n.sessionsFailed.Inc()
		}
	}
}

// Poison marks the classroute failed: parked and future Joins return
// err (typically an abort.Cause from the stall sentinel) instead of
// waiting for credits that will never free. The first cause sticks.
func (cr *ClassRoute) Poison(err error) {
	if err == nil {
		panic("collnet: Poison with nil error")
	}
	cr.mu.Lock()
	if cr.poison == nil {
		cr.poison = err
		cr.retired.Broadcast()
	}
	cr.mu.Unlock()
}

// Poisoned returns the route's sticky failure, nil while healthy.
func (cr *ClassRoute) Poisoned() error {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.poison
}

// Heal clears a poisoned route so fresh Joins proceed; the collective
// layer calls it once the membership is healthy again.
func (cr *ClassRoute) Heal() {
	cr.mu.Lock()
	cr.poison = nil
	cr.mu.Unlock()
}

// Ranks returns the surviving participating node ranks in ascending order.
func (cr *ClassRoute) Ranks() []torus.Rank { return *cr.ranks.Load() }

// Parties returns the number of surviving participating nodes.
func (cr *ClassRoute) Parties() int { return len(*cr.ranks.Load()) }

// Tree returns the currently programmed combine tree.
func (cr *ClassRoute) Tree() *torus.Tree { return cr.tree.Load() }

// Depth returns the tree depth in hops; model latency scales with it.
func (cr *ClassRoute) Depth() int { return cr.Tree().Depth() }

// Network owns the classroute slot accounting for a machine.
type Network struct {
	dims torus.Dims
	tele *telemetry.Registry

	// Session traffic counters (paper §V drives collective tuning off
	// exactly these quantities).
	reductions  *telemetry.Counter // reduce/allreduce sessions completed
	broadcasts  *telemetry.Counter // broadcast sessions completed
	barriers    *telemetry.Counter // barrier sessions completed
	combines    *telemetry.Counter // 8-byte words combined by the router ALU
	traversals  *telemetry.Counter // classroute tree nodes visited while combining
	classroutes *telemetry.Counter // classroutes ever programmed

	rebuilds        *telemetry.Counter // classroute trees rebuilt after link failures
	rebuildFailures *telemetry.Counter // rebuilds impossible (rectangle disconnected)
	linksDown       *telemetry.Counter // link failures observed
	nodesDown       *telemetry.Counter // node deaths observed
	sessionsFailed  *telemetry.Counter // in-flight sessions failed by a death

	// Inbox accounting: open sessions consume classroute credits, parked
	// contributions consume receiver memory. The gauges' high-water marks
	// bound both under any flood.
	sessionsOpen *telemetry.Gauge   // sessions joined but not yet retired
	inboxBytes   *telemetry.Gauge   // contribution bytes parked in open sessions
	creditStalls *telemetry.Counter // Joins that blocked on a full session inbox

	mu       sync.Mutex
	inUse    map[torus.Rank]int
	live     map[int]*ClassRoute                // allocated, not yet freed
	down     map[torus.Rank]map[torus.Link]bool // failed directed links
	deadNode map[torus.Rank]bool                // confirmed-dead nodes
	nextID   int

	// joinSite is the stall-sentinel wait site credit-blocked Joins
	// register at; nil until the machine installs a sentinel.
	joinSite atomic.Pointer[watchdog.Site]
}

// SetSentinel registers the network's credit-gate wait site with the
// partition's stall sentinel: a Join parked past the site deadline is
// escalated by poisoning its classroute, so the joiner returns a typed
// abort instead of waiting for a credit that will never free.
func (n *Network) SetSentinel(s *watchdog.Sentinel) {
	if s == nil {
		return
	}
	n.joinSite.Store(s.Site("collnet.join.credit"))
}

// New returns the classroute manager for a machine of the given shape.
func New(dims torus.Dims) *Network {
	tele := telemetry.NewRegistry("collnet")
	return &Network{
		dims:        dims,
		tele:        tele,
		reductions:  tele.Counter("reductions"),
		broadcasts:  tele.Counter("broadcasts"),
		barriers:    tele.Counter("barriers"),
		combines:    tele.Counter("words_combined"),
		traversals:  tele.Counter("classroute_traversals"),
		classroutes: tele.Counter("classroutes_allocated"),

		rebuilds:        tele.Counter("classroute_rebuilds"),
		rebuildFailures: tele.Counter("rebuild_failures"),
		linksDown:       tele.Counter("links_down"),
		nodesDown:       tele.Counter("nodes_down"),
		sessionsFailed:  tele.Counter("sessions_failed"),

		sessionsOpen: tele.Gauge("sessions_open"),
		inboxBytes:   tele.Gauge("inbox_bytes"),
		creditStalls: tele.Counter("session_credit_stalls"),

		inUse:    make(map[torus.Rank]int),
		live:     make(map[int]*ClassRoute),
		down:     make(map[torus.Rank]map[torus.Link]bool),
		deadNode: make(map[torus.Rank]bool),
	}
}

// Telemetry returns the collective network's counter registry; the
// machine layer adopts it into the job-wide registry tree.
func (n *Network) Telemetry() *telemetry.Registry { return n.tele }

// Dims returns the machine shape.
func (n *Network) Dims() torus.Dims { return n.dims }

// ErrNoClassRoute is reported when a node in the rectangle has no free
// classroute slot; callers deoptimize another communicator and retry.
var ErrNoClassRoute = fmt.Errorf("collnet: no free classroute slot (limit %d user slots per node)", UserSlots)

// Allocate programs a classroute over the rectangle, rooted at root, and
// returns it. Every node inside the rectangle must have a free user slot.
func (n *Network) Allocate(rect torus.Rectangle, root torus.Rank) (*ClassRoute, error) {
	if err := rect.Validate(n.dims); err != nil {
		return nil, err
	}
	if !rect.Contains(n.dims.CoordOf(root)) {
		return nil, fmt.Errorf("collnet: root %d outside rectangle %v", root, rect)
	}
	all := rect.Ranks(n.dims)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.deadNode[root] {
		return nil, fmt.Errorf("collnet: root node %d is dead", root)
	}
	// Confirmed-dead nodes inside the rectangle are excluded from the
	// membership: a route allocated after a death spans the survivors.
	ranks := all
	if len(n.deadNode) > 0 {
		ranks = make([]torus.Rank, 0, len(all))
		for _, r := range all {
			if !n.deadNode[r] {
				ranks = append(ranks, r)
			}
		}
	}
	for _, r := range ranks {
		if n.inUse[r] >= UserSlots {
			return nil, ErrNoClassRoute
		}
	}
	for _, r := range ranks {
		n.inUse[r]++
	}
	n.nextID++
	n.classroutes.Inc()
	cr := &ClassRoute{
		ID:    n.nextID,
		Rect:  rect,
		Root:  root,
		net:   n,
		nodes: all,
	}
	cr.retired = sync.NewCond(&cr.mu)
	for i := range cr.slots {
		cr.slots[i].cr, cr.slots[i].region = cr, wakeup.NewRegion()
	}
	cr.ranks.Store(&ranks)
	tree, degraded := n.buildTreeLocked(rect, root)
	cr.tree.Store(tree)
	cr.degraded = degraded
	n.live[cr.ID] = cr
	return cr, nil
}

// buildTreeLocked programs a combine tree for the rectangle, excluding
// dead nodes and avoiding failed links when possible. When failures
// disconnect the rectangle no such tree exists; the route falls back to
// the standard tree and is marked degraded — software combining over
// contributions still completes, only the dead links would be crossed
// by real hardware. Called with n.mu held.
func (n *Network) buildTreeLocked(rect torus.Rectangle, root torus.Rank) (*torus.Tree, bool) {
	faulty := len(n.down) > 0 || len(n.deadNode) > 0
	if faulty {
		if t, err := torus.BuildTreeExcluding(n.dims, rect, root, n.deadLocked, n.downLocked); err == nil {
			return t, false
		}
		n.rebuildFailures.Inc()
	}
	return torus.BuildTree(n.dims, rect, root, 0), faulty
}

func (n *Network) downLocked(r torus.Rank, l torus.Link) bool {
	return n.down[r][l]
}

func (n *Network) deadLocked(r torus.Rank) bool {
	return n.deadNode[r]
}

// HandleLinkDown records a failed cable (both directions die) and
// rebuilds every live classroute whose rectangle spans it. A route the
// failure disconnects keeps its old connected tree and is marked
// degraded — graceful degradation rather than a dead communicator.
// Machine wiring calls this from the fault injector's link-down
// callback; safe for concurrent use with running sessions.
func (n *Network) HandleLinkDown(node torus.Rank, link torus.Link) {
	nb := n.dims.Neighbor(node, link)
	rev := torus.Link{Dim: link.Dim, Dir: -link.Dir}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down[node][link] {
		return
	}
	if n.down[node] == nil {
		n.down[node] = make(map[torus.Link]bool)
	}
	if n.down[nb] == nil {
		n.down[nb] = make(map[torus.Link]bool)
	}
	n.down[node][link] = true
	n.down[nb][rev] = true
	n.linksDown.Inc()
	nc, nbc := n.dims.CoordOf(node), n.dims.CoordOf(nb)
	for _, cr := range n.live {
		// Only rectangles containing both cable endpoints can be affected.
		if !cr.Rect.Contains(nc) || !cr.Rect.Contains(nbc) {
			continue
		}
		if t, err := torus.BuildTreeExcluding(n.dims, cr.Rect, cr.Root, n.deadLocked, n.downLocked); err == nil {
			cr.tree.Store(t)
			cr.degraded = false
			n.rebuilds.Inc()
		} else {
			cr.degraded = true
			n.rebuildFailures.Inc()
		}
	}
}

// HandleNodeDown records a confirmed node death and reconfigures every
// live classroute spanning it: the dead node leaves the membership, the
// root is re-elected (lowest surviving rank) if it died, the combine
// tree is rebuilt over the survivors, and every in-flight session on an
// affected route fails with ErrEpochChanged — surviving ranks' blocked
// collectives return an error instead of waiting forever for a
// contribution that will never come. Subsequent sessions joined on the
// shrunk route complete over the surviving membership. Machine wiring
// calls this from the health monitor's death callback; safe for
// concurrent use with running sessions.
func (n *Network) HandleNodeDown(node torus.Rank) {
	n.mu.Lock()
	if n.deadNode[node] {
		n.mu.Unlock()
		return
	}
	n.deadNode[node] = true
	n.nodesDown.Inc()
	var affected []*ClassRoute
	for _, cr := range n.live {
		ranks := *cr.ranks.Load()
		idx := -1
		for i, r := range ranks {
			if r == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		survivors := make([]torus.Rank, 0, len(ranks)-1)
		survivors = append(survivors, ranks[:idx]...)
		survivors = append(survivors, ranks[idx+1:]...)
		if len(survivors) == 0 {
			// Every participant is dead; nothing left to reconfigure.
			cr.ranks.Store(&survivors)
			cr.degraded = true
			continue
		}
		if cr.Root == node {
			cr.Root = survivors[0] // re-elect: lowest surviving rank
		}
		if t, err := torus.BuildTreeExcluding(n.dims, cr.Rect, cr.Root, n.deadLocked, n.downLocked); err == nil {
			cr.tree.Store(t)
			cr.degraded = false
			n.rebuilds.Inc()
		} else {
			cr.degraded = true
			n.rebuildFailures.Inc()
		}
		cr.ranks.Store(&survivors)
		affected = append(affected, cr)
	}
	n.mu.Unlock()
	// Fail in-flight sessions outside n.mu (lock order: cr.mu, then s.mu).
	for _, cr := range affected {
		n.failOpen(cr, node, "died")
	}
}

// HandleNodeUp reverses HandleNodeDown once the recovery supervisor has
// restored a dead node: the node rejoins the membership of every live
// classroute whose rectangle spans it, combine trees are rebuilt over
// the grown membership, and in-flight sessions on affected routes fail
// with ErrEpochChanged — exactly as they do on a death, because a
// session opened against the shrunk membership would otherwise wait on
// (or be waited on by) a contributor set that no longer matches the
// route. Root election is sticky: the revived node rejoins as a leaf
// even if it was the root before it died (survivors already re-elected,
// and re-electing again would churn every open allocation). Machine
// wiring calls this from the recovery supervisor; safe for concurrent
// use with running sessions.
func (n *Network) HandleNodeUp(node torus.Rank) {
	n.mu.Lock()
	if !n.deadNode[node] {
		n.mu.Unlock()
		return
	}
	delete(n.deadNode, node)
	nc := n.dims.CoordOf(node)
	var affected []*ClassRoute
	for _, cr := range n.live {
		if !cr.Rect.Contains(nc) {
			continue
		}
		ranks := *cr.ranks.Load()
		idx := sort.Search(len(ranks), func(i int) bool { return ranks[i] >= node })
		if idx < len(ranks) && ranks[idx] == node {
			continue // already a member (route allocated after the revival)
		}
		grown := make([]torus.Rank, 0, len(ranks)+1)
		grown = append(grown, ranks[:idx]...)
		grown = append(grown, node)
		grown = append(grown, ranks[idx:]...)
		if cr.Root == node || len(ranks) == 0 {
			cr.Root = grown[0]
		}
		if t, err := torus.BuildTreeExcluding(n.dims, cr.Rect, cr.Root, n.deadLocked, n.downLocked); err == nil {
			cr.tree.Store(t)
			cr.degraded = false
			n.rebuilds.Inc()
		} else {
			cr.degraded = true
			n.rebuildFailures.Inc()
		}
		cr.ranks.Store(&grown)
		affected = append(affected, cr)
	}
	n.mu.Unlock()
	// Fail in-flight sessions outside n.mu (lock order: cr.mu, then s.mu).
	for _, cr := range affected {
		n.failOpen(cr, node, "rejoined")
	}
}

// DeadNodes reports how many node deaths the network has recorded.
func (n *Network) DeadNodes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.deadNode)
}

// DownLinks reports how many directed links are currently failed.
func (n *Network) DownLinks() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, ls := range n.down {
		c += len(ls)
	}
	return c
}

// Degraded reports whether the route is running on a tree that crosses
// failed links because no avoiding tree exists.
func (cr *ClassRoute) Degraded() bool {
	net := cr.net
	if net == nil {
		return cr.degraded
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	return cr.degraded
}

// AllocateWorld programs the machine-wide classroute used by COMM_WORLD.
func (n *Network) AllocateWorld() (*ClassRoute, error) {
	return n.Allocate(n.dims.FullRectangle(), 0)
}

// Free releases the classroute's slots on every participating node.
func (n *Network) Free(cr *ClassRoute) {
	if cr == nil || cr.net != n {
		return
	}
	n.mu.Lock()
	for _, r := range *cr.ranks.Load() {
		if n.inUse[r] > 0 {
			n.inUse[r]--
		}
	}
	delete(n.live, cr.ID)
	n.mu.Unlock()
	// A freed route cannot run collectives; wake anyone parked in Join
	// waiting for a session credit that will now never be granted.
	cr.mu.Lock()
	cr.net = nil
	cr.retired.Broadcast()
	cr.mu.Unlock()
}

// InUse reports how many user classroute slots node r currently occupies.
func (n *Network) InUse(r torus.Rank) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inUse[r]
}
