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

	// ranks is the membership: nodes minus those health calls dead,
	// swapped atomically when a death or a revival reprograms the route.
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

// failOpen fails every session open on cr right now; why names the
// membership change in the error.
func (n *Network) failOpen(cr *ClassRoute, why string) {
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
		if open[i] && cr.slots[i].FailSeq(seq, fmt.Errorf("collnet: %s during session %d: %w",
			why, seq, health.ErrEpochChanged)) {
			n.sessionsFailed.Inc()
		}
	}
}

// Poison marks the classroute failed: parked and future Joins return
// err (typically an abort.Cause from the stall sentinel) instead of
// waiting for credits that will never free. The first cause sticks, and
// the route stays poisoned until Free.
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

// Ranks returns the surviving participating node ranks in ascending order.
func (cr *ClassRoute) Ranks() []torus.Rank { return *cr.ranks.Load() }

// Parties returns the number of surviving participating nodes.
func (cr *ClassRoute) Parties() int { return len(*cr.ranks.Load()) }

// Tree returns the currently programmed combine tree.
func (cr *ClassRoute) Tree() *torus.Tree { return cr.tree.Load() }

// Depth returns the tree depth in hops; model latency scales with it.
func (cr *ClassRoute) Depth() int { return cr.Tree().Depth() }

// Network programs the classroutes of a machine. It keeps no membership
// of its own: health says who is dead, and a node's used slots are
// counted from the memberships of the live routes.
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

	mu     sync.Mutex
	live   map[int]*ClassRoute                // allocated, not yet freed
	down   map[torus.Rank]map[torus.Link]bool // failed directed links
	nextID int

	// joinSite is the stall-sentinel wait site credit-blocked Joins
	// register at; nil until the machine installs a sentinel.
	joinSite atomic.Pointer[watchdog.Site]

	// hmon is the membership record; nil (the default) means no node
	// ever dies.
	hmon atomic.Pointer[health.Monitor]
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

// SetHealth makes m the membership record every route is programmed
// from: a node m calls dead is left out of each route spanning it.
// HandleMembership is the reaction to m changing its mind. Call before
// the first Allocate.
func (n *Network) SetHealth(m *health.Monitor) { n.hmon.Store(m) }

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

		live: make(map[int]*ClassRoute),
		down: make(map[torus.Rank]map[torus.Link]bool),
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
// returns it. Nodes health calls dead are left out of the membership;
// every other node inside the rectangle must have a free user slot.
func (n *Network) Allocate(rect torus.Rectangle, root torus.Rank) (*ClassRoute, error) {
	if err := rect.Validate(n.dims); err != nil {
		return nil, err
	}
	if !rect.Contains(n.dims.CoordOf(root)) {
		return nil, fmt.Errorf("collnet: root %d outside rectangle %v", root, rect)
	}
	hm := n.hmon.Load()
	if hm.Dead(root) {
		return nil, fmt.Errorf("collnet: root node %d is dead", root)
	}
	all := rect.Ranks(n.dims)
	n.mu.Lock()
	defer n.mu.Unlock()
	used := n.usedLocked()
	for _, r := range all {
		if used[r] >= UserSlots && !hm.Dead(r) {
			return nil, ErrNoClassRoute
		}
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
	n.reprogramLocked(cr)
	n.live[cr.ID] = cr
	return cr, nil
}

// usedLocked counts each node's used user slots, indexed by rank: the
// live routes whose membership lists it. Called with n.mu held.
func (n *Network) usedLocked() []int {
	used := make([]int, n.dims.Nodes())
	for _, cr := range n.live {
		for _, r := range cr.Ranks() {
			used[r]++
		}
	}
	return used
}

// reprogramLocked programs cr from the current membership and links,
// and reports whether the membership changed. The membership is the
// rectangle's nodes minus those health calls dead. The root moves, to
// the lowest member, only if it is no member itself: it died, or the
// route was empty. The combine tree avoids dead nodes and down links; a
// new route over a healthy rectangle gets the standard tree. When
// failures disconnect the rectangle (or kill all of it) no avoiding
// tree exists: the route keeps the tree it had (a new one the standard
// tree) and is marked degraded — software combining over contributions
// still completes, only the dead links would be crossed by real
// hardware. Called with n.mu held.
func (n *Network) reprogramLocked(cr *ClassRoute) (changed bool) {
	hm := n.hmon.Load()
	ranks := make([]torus.Rank, 0, len(cr.nodes))
	for _, r := range cr.nodes {
		if !hm.Dead(r) {
			ranks = append(ranks, r)
		}
	}
	old := cr.ranks.Swap(&ranks)
	changed = old == nil || !slices.Equal(*old, ranks)
	member := func(r torus.Rank) bool { _, ok := slices.BinarySearch(ranks, r); return ok }
	if !member(cr.Root) && len(ranks) > 0 {
		cr.Root = ranks[0]
	}
	if old == nil && len(n.down) == 0 && len(ranks) == len(cr.nodes) {
		cr.tree.Store(torus.BuildTree(n.dims, cr.Rect, cr.Root, 0))
		return changed
	}
	t, err := torus.BuildTreeExcluding(n.dims, cr.Rect, cr.Root, func(r torus.Rank) bool { return !member(r) }, n.downLocked)
	switch {
	case err == nil:
		cr.tree.Store(t)
		cr.degraded = false
		if old != nil {
			n.rebuilds.Inc()
		}
	case old == nil:
		cr.tree.Store(torus.BuildTree(n.dims, cr.Rect, cr.Root, 0))
		fallthrough
	default:
		cr.degraded = true
		n.rebuildFailures.Inc()
	}
	return changed
}

func (n *Network) downLocked(r torus.Rank, l torus.Link) bool {
	return n.down[r][l]
}

// HandleLinkDown records a failed cable (both directions die) and
// reprograms every live classroute whose rectangle spans it. A route the
// failure disconnects keeps its old connected tree and is marked
// degraded — graceful degradation rather than a dead communicator.
// Machine wiring calls this from the fault injector's link-down
// callback; safe for concurrent use with running sessions.
func (n *Network) HandleLinkDown(node torus.Rank, link torus.Link) {
	nb := n.dims.Neighbor(node, link)
	rev := torus.Link{Dim: link.Dim, Dir: -link.Dir}
	n.mu.Lock()
	if n.down[node][link] {
		n.mu.Unlock()
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
	n.mu.Unlock()
	// Only rectangles containing both cable endpoints can be affected.
	n.reprogram("membership changed", n.dims.CoordOf(node), n.dims.CoordOf(nb))
}

// HandleMembership is the collective network's reaction to health
// declaring node dead or reviving it: every live classroute whose
// rectangle spans the node is reprogrammed from the new membership. On
// a death, surviving ranks' blocked collectives return an error instead
// of waiting forever for a contribution that will never come; on a
// revival, a session opened against the shrunk membership would
// otherwise wait on (or be waited on by) a contributor set that no
// longer matches the route. Sessions joined afterwards complete over
// the new membership. A revived root rejoins as a member, not as root:
// survivors already re-elected. The machine calls this after the epoch
// has moved, from the health monitor's death callback and from Revive;
// safe for concurrent use with running sessions.
func (n *Network) HandleMembership(node torus.Rank) {
	what := "rejoined"
	if n.hmon.Load().Dead(node) {
		what = "died"
		n.nodesDown.Inc()
	}
	n.reprogram(fmt.Sprintf("node %d %s", node, what), n.dims.CoordOf(node))
}

// reprogram reprograms every live classroute whose rectangle contains
// all of at, then fails with ErrEpochChanged the in-flight sessions of
// each route whose membership changed; why names the change in their
// error. A death health confirmed before its own handler ran shows up
// in whichever reprogram comes first, and that one fails the sessions.
func (n *Network) reprogram(why string, at ...torus.Coord) {
	var changed []*ClassRoute
	n.mu.Lock()
	for _, cr := range n.live {
		if !slices.ContainsFunc(at, func(c torus.Coord) bool { return !cr.Rect.Contains(c) }) && n.reprogramLocked(cr) {
			changed = append(changed, cr)
		}
	}
	n.mu.Unlock()
	// Fail in-flight sessions outside n.mu (lock order: cr.mu, then s.mu).
	for _, cr := range changed {
		n.failOpen(cr, why)
	}
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
	delete(n.live, cr.ID)
	n.mu.Unlock()
	// A freed route cannot run collectives; wake anyone parked in Join
	// waiting for a session credit that will now never be granted.
	cr.mu.Lock()
	cr.net = nil
	cr.retired.Broadcast()
	cr.mu.Unlock()
}

// InUse reports how many user classroute slots node r currently
// occupies: the live routes whose membership lists it.
func (n *Network) InUse(r torus.Rank) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.usedLocked()[r]
}
