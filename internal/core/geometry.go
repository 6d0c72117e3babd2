package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pamigo/internal/abort"
	"pamigo/internal/collnet"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
	"pamigo/internal/watchdog"
)

// Geometry is PAMI's communicator analogue: an ordered team of tasks with
// collective operations. When the team's nodes tile a contiguous rectangle
// and a classroute slot is free, Optimize programs the collective network
// and barrier/broadcast/reduce/allreduce run on the hardware tree with the
// shared-address node protocols of paper §IV.C; otherwise the operations
// fall back to software algorithms over point-to-point active messages
// (binomial trees and a dissemination barrier).
//
// Geometry operations are collective and blocking: every member must call
// the same operations in the same order, the usual MPI discipline. All
// members must have attached with the same context ordinal.
type Geometry struct {
	client *Client
	ctx    *Context
	id     uint64
	tasks  []int
	rank   int
	ctxOrd int

	shared *geomShared
	team   *nodeTeam
	tidx   int    // this member's index in team.members
	seq    uint64 // collectives begun; members call them in the same order, so these agree
	round  uint64 // node-team rounds begun on the classroute path, likewise

	// Membership-failure cache: deadMember scans the task list only when
	// the machine's epoch moved past memEpoch; the verdict is sticky for
	// the epoch. Per-member state (collective calls are single-threaded
	// per member), so no locking.
	memEpoch int64
	memErr   error

	// strikes is the team's poison count this member's collective began
	// under; a different count in a wait means the team was poisoned.
	strikes uint64
	// Stall-sentinel parks, attached for the geometry's life: matePark
	// (site core.team.barrier) while waiting for node-mates to arrive,
	// netPark (core.geom.hwwait) while waiting for a collective's outcome
	// or, on the software path, a fragment.
	matePark, netPark watchdog.Park
}

// geomShared is the state all member processes of a geometry share — the
// moral equivalent of the shared-memory segment PAMI allocates per
// geometry on each node, plus the machine-wide classroute.
type geomShared struct {
	id    uint64
	tasks []int
	nodes []torus.Rank
	topo  torus.Topology // compact node-set representation (paper §III.G)
	teams map[torus.Rank]*nodeTeam

	cr     atomic.Pointer[collnet.ClassRoute] // written by rank 0 in Optimize/Deoptimize
	crMu   sync.Mutex
	optErr error

	// detachDeath removes the machine death hook buildGeomShared registered.
	detachDeath func()
}

// shortMax is the largest reduction the last arriver combines alone and
// the collective network carries in one packet.
const shortMax = mu.MaxPayload

// nodeTeam is the node-local shared state: the members on this node and
// the two slot generations they exchange contributions and outcomes
// through (the CNK global address space). Every classroute collective is
// built from arrive and await (DESIGN "Node-team collective protocol").
type nodeTeam struct {
	node    torus.Rank
	members []int          // world task ranks on this node, ascending
	region  *wakeup.Region // the geometry's: see buildGeomShared
	cells   [2]teamCell    // round r uses cells[r&1]

	// Poison: poisoned while strikes != heals; cause is the latest strike's.
	pmu            sync.Mutex
	cause          atomic.Pointer[error]
	strikes, heals atomic.Uint64
}

// teamCell is one slot generation. No member leaves round r before all of
// its team arrived at r, so when anyone arrives at r+2 nobody reads r's
// cell any more: two generations suffice, and arrive panics if the
// invariant is ever broken.
type teamCell struct {
	team    *nodeTeam
	arrived atomic.Uint64 // round<<16 | members arrived
	reduced atomic.Uint64 // long reductions: round<<16 | members done with their slice
	done    atomic.Uint64 // round whose outcome is in result/err
	left    atomic.Uint64 // round<<16 | members done reading result
	sessSeq atomic.Uint64 // the round's session, 0 when none
	sess    *collnet.Session
	round   uint64 // written, like sess, by the last arriver before it contributes
	result  []byte // the session's buffer, until the last reader releases it
	err     error

	short []byte   // one shortMax slot per member
	refs  [][]byte // long reductions: the members' send buffers
	local []byte   // long reductions: the node's combined contribution
	src   []byte   // broadcast: the root's buffer
}

// arrive records the caller's arrival at word for round and reports
// whether it was the last of the team.
func (t *nodeTeam) arrive(word *atomic.Uint64, round uint64) bool {
	for {
		w := word.Load()
		next := round<<16 | 1
		if w>>16 == round {
			next = w + 1
		} else if w>>16 > round {
			panic(fmt.Sprintf("core: node %d team round %d lapped by round %d", t.node, round, w>>16))
		}
		if word.CompareAndSwap(w, next) {
			return int(next&0xffff) == len(t.members)
		}
	}
}

// poison releases every waiting member with err and fails arrivals fast
// until heal. The first cause of a poisoned spell sticks.
func (t *nodeTeam) poison(err error) {
	t.pmu.Lock()
	if t.strikes.Load() == t.heals.Load() {
		t.cause.Store(&err)
		t.strikes.Add(1)
	}
	t.pmu.Unlock()
	t.region.Touch()
}

func (t *nodeTeam) heal() {
	t.pmu.Lock()
	t.heals.Store(t.strikes.Load())
	t.pmu.Unlock()
}

// SessionDone makes the round's outcome final and wakes the team
// (collnet.Sink). A session that fails after its round was abandoned
// finds sessSeq moved on and is ignored.
func (c *teamCell) SessionDone(seq uint64, result []byte, err error) {
	if c.sessSeq.Load() == seq {
		c.result, c.err = result, err
		c.done.Store(c.round)
		c.team.region.Touch()
	}
}

// await waits on the team's region until word reaches want (every mate
// arrived, or the round's outcome is published) or the team is poisoned:
// one look, then the paper's wakeup-unit wait, registered at park. The
// generation is read before the look, so a touch after it is not lost.
func (g *Geometry) await(word *atomic.Uint64, want uint64, park *watchdog.Park) error {
	t := g.team
	for how := g.ctx.stats.collSpun; ; {
		gen := t.region.Gen()
		if word.Load() == want {
			how.Inc()
			return nil
		}
		if t.strikes.Load() != g.strikes {
			return *t.cause.Load()
		}
		how = g.ctx.stats.collParked
		park.Enter()
		t.region.Wait(gen)
		park.Leave()
	}
}

// ErrNotRectangular is returned by Optimize when the geometry's node set
// does not exactly tile a coordinate rectangle, which the collective
// network requires.
var ErrNotRectangular = fmt.Errorf("core: geometry nodes do not form a contiguous rectangle")

// CreateGeometry builds the geometry with the given ID over the listed
// world task ranks (in geometry rank order). Every member must call it
// with identical arguments; the calling context binds the geometry's
// software collectives to that context ordinal.
func (c *Client) CreateGeometry(ctx *Context, id uint64, tasks []int) (*Geometry, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: empty geometry")
	}
	me := -1
	seen := make(map[int]bool, len(tasks))
	for i, t := range tasks {
		if t < 0 || t >= c.mach.Tasks() {
			return nil, fmt.Errorf("core: task %d out of range", t)
		}
		if seen[t] {
			return nil, fmt.Errorf("core: task %d listed twice", t)
		}
		seen[t] = true
		if t == c.Task() {
			me = i
		}
	}
	if me == -1 {
		return nil, fmt.Errorf("core: task %d not a member of geometry %d", c.Task(), id)
	}
	sharedAny := c.mach.SharedState(id, func() any {
		return buildGeomShared(c, id, tasks)
	})
	shared := sharedAny.(*geomShared)
	if !slices.Equal(shared.tasks, tasks) {
		return nil, fmt.Errorf("core: geometry %d created with conflicting task lists", id)
	}
	// Bootstrap rendezvous: collective traffic may start the moment this
	// returns, so wait until every member's endpoint at our context
	// ordinal exists (the job launcher provides the equivalent sync on the
	// real machine).
	fabric := c.mach.Fabric()
	for _, t := range tasks {
		for !fabric.ContextRegistered(Endpoint{Task: t, Ctx: ctx.addr.Ctx}) {
			runtime.Gosched()
		}
	}
	team := shared.teams[c.proc.Node().Rank]
	g := &Geometry{
		client: c,
		ctx:    ctx,
		id:     id,
		tasks:  append([]int(nil), tasks...),
		rank:   me,
		ctxOrd: ctx.addr.Ctx,
		shared: shared,
		team:   team,
	}
	g.tidx, _ = slices.BinarySearch(team.members, c.Task())
	// A wait parked past the stall deadline poisons the team and fails the
	// sessions it awaits, so every member of every team is cut loose; the
	// touch of the context's region wakes a software wait.
	stalled := func(cause *abort.Cause) {
		team.poison(cause)
		if cr := shared.cr.Load(); cr != nil {
			cr.Fail(team.cells[0].sessSeq.Load(), cause)
			cr.Fail(team.cells[1].sessSeq.Load(), cause)
		}
		ctx.region.Touch()
	}
	sent := c.mach.Sentinel()
	sent.Site("core.team.barrier").Attach(&g.matePark, stalled)
	sent.Site("core.geom.hwwait").Attach(&g.netPark, stalled)
	return g, nil
}

func buildGeomShared(c *Client, id uint64, tasks []int) *geomShared {
	byNode := make(map[torus.Rank][]int)
	for _, t := range tasks {
		nr := c.mach.NodeOf(t).Rank
		byNode[nr] = append(byNode[nr], t)
	}
	var nodes []torus.Rank
	// One region for every wait of the geometry: a collective completes for
	// all its teams at once, and one broadcast (wakeup elides the rest)
	// readies every waiter hosted here in one batch. A region per team
	// tripled the run-to-run spread of an 8-rank allreduce (DESIGN §7).
	region := wakeup.NewRegion()
	teams := make(map[torus.Rank]*nodeTeam, len(byNode))
	for nr, members := range byNode {
		sort.Ints(members)
		nodes = append(nodes, nr)
		t := &nodeTeam{node: nr, members: members, region: region}
		for i := range t.cells {
			t.cells[i].team = t
			t.cells[i].short = make([]byte, len(members)*shortMax)
			t.cells[i].refs = make([][]byte, len(members))
		}
		teams[nr] = t
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	// A confirmed death of any listed node poisons every team at once.
	// The deadMember gate alone poisons lazily, only the team of a member
	// that happens to pass a gate of *this* geometry: a rank that entered
	// its round before the epoch moved would wait for a node-mate that
	// failed at another geometry's gate and left the job. Same cause as the
	// gate's, so the first of the two sticks and a healthy rescan heals.
	detach := c.mach.OnDeath(func(n torus.Rank) {
		if teams[n] == nil {
			return
		}
		cause := abort.Wrap(abort.KindHealth, "core.team.barrier",
			fmt.Errorf("core: geometry %d has members on node %d, confirmed dead: %w", id, n, mu.ErrPeerDead))
		for _, t := range teams {
			t.poison(cause)
		}
	})
	return &geomShared{
		id:          id,
		tasks:       append([]int(nil), tasks...),
		nodes:       nodes,
		topo:        torus.OptimizeTopology(c.mach.Dims(), nodes),
		teams:       teams,
		detachDeath: detach,
	}
}

// WorldGeometryID is the geometry ID of COMM_WORLD.
const WorldGeometryID uint64 = 0

// WorldGeometry creates (or attaches to) the all-tasks geometry and tries
// to optimize it onto the machine-wide classroute. Every process must call
// it. A classroute shortage is not an error: collectives fall back to
// software.
func (c *Client) WorldGeometry(ctx *Context) (*Geometry, error) {
	tasks := make([]int, c.mach.Tasks())
	for i := range tasks {
		tasks[i] = i
	}
	g, err := c.CreateGeometry(ctx, WorldGeometryID, tasks)
	if err != nil {
		return nil, err
	}
	if err := g.Optimize(); err != nil && !errors.Is(err, collnet.ErrNoClassRoute) {
		return nil, err
	}
	return g, nil
}

// Rank returns the caller's rank within the geometry.
func (g *Geometry) Rank() int { return g.rank }

// Size returns the number of member tasks.
func (g *Geometry) Size() int { return len(g.tasks) }

// Tasks returns the member world task ranks in geometry rank order.
func (g *Geometry) Tasks() []int { return append([]int(nil), g.tasks...) }

// TaskOf returns the world task rank of a geometry rank.
func (g *Geometry) TaskOf(rank int) int { return g.tasks[rank] }

// Topology returns the geometry's compact node-set representation — the
// memory optimization of paper §III.G. Regular geometries (COMM_WORLD,
// rectangular subcommunicators, pencils) use O(1) forms; only irregular
// node sets fall back to an explicit list.
func (g *Geometry) Topology() torus.Topology { return g.shared.topo }

// Optimized reports whether the geometry currently holds a classroute.
func (g *Geometry) Optimized() bool { return g.classroute() != nil }

// Optimize programs a classroute for the geometry (MPIX_Comm_optimize,
// paper §III.D). Collective among members. Fails with ErrNotRectangular
// for irregular node sets and with collnet.ErrNoClassRoute when the
// hardware slots are exhausted — deoptimize another geometry and retry.
func (g *Geometry) Optimize() error {
	if err := g.swBarrier(); err != nil {
		return err
	}
	if g.rank == 0 {
		g.shared.crMu.Lock()
		g.shared.optErr = nil
		if g.classroute() == nil {
			dims := g.client.mach.Dims()
			rect, exact := torus.BoundingRectangle(dims, g.shared.nodes)
			if !exact {
				g.shared.optErr = ErrNotRectangular
			} else if cr, err := g.client.mach.CollNet().Allocate(rect, g.shared.nodes[0]); err != nil {
				g.shared.optErr = err
			} else {
				g.shared.cr.Store(cr)
			}
		}
		g.shared.crMu.Unlock()
	}
	if err := g.swBarrier(); err != nil {
		return err
	}
	g.shared.crMu.Lock()
	defer g.shared.crMu.Unlock()
	return g.shared.optErr
}

// Deoptimize releases the geometry's classroute so another geometry can
// use the slot (MPIX_Comm_deoptimize). Collective among members. The
// signature is void for API compatibility, so a transport failure in
// the member barrier (only possible under injected faults that
// partition the torus) panics with the wrapped typed error.
func (g *Geometry) Deoptimize() {
	if err := g.swBarrier(); err != nil {
		panic(err)
	}
	if g.rank == 0 {
		g.client.mach.CollNet().Free(g.shared.cr.Swap(nil))
	}
	if err := g.swBarrier(); err != nil {
		panic(err)
	}
}

// Destroy detaches from the geometry; the last member to call it frees
// the classroute and the shared state. Collective among members.
func (g *Geometry) Destroy() {
	g.Deoptimize()
	g.matePark.Detach()
	g.netPark.Detach()
	if g.rank == 0 {
		g.shared.detachDeath()
		g.client.mach.DropSharedState(g.id)
	}
}

func (g *Geometry) classroute() *collnet.ClassRoute { return g.shared.cr.Load() }

// begin opens the caller's next collective: it draws the sequence number
// and, on the classroute path, the first of the op's node-team rounds —
// both before the membership gate, so that members failing at the gate
// stay in step with mates that fail later, and a healed team can go on.
func (g *Geometry) begin(rounds int) (seq uint64, cr *collnet.ClassRoute, round uint64, err error) {
	g.seq++
	seq = g.seq
	if len(g.tasks) > 1 {
		cr = g.classroute()
	}
	if cr != nil {
		round = g.round + 1
		g.round += uint64(rounds)
	}
	if err = g.deadMember(); err == nil {
		// Same-spell arrivals fail fast, like the parked mates did.
		if g.strikes = g.team.strikes.Load(); g.strikes != g.team.heals.Load() {
			err = *g.team.cause.Load()
		}
	}
	return seq, cr, round, err
}

// deadMember returns the typed failure when any member's node has been
// confirmed dead, nil otherwise. A geometry whose membership shrank can
// never again complete a full-membership collective — completing on the
// survivors would silently drop the dead member's contribution — so once
// a member dies, every collective on the geometry fails fast with
// mu.ErrPeerDead until the application rebuilds a geometry over the
// survivors. The scan runs only when the membership epoch moved (one
// atomic load per call otherwise, zero when no failure detector is
// armed).
//
// Detecting a death also poisons the node team: a node-mate that passed
// this gate *before* the death was confirmed is parked in its round
// waiting for mates that will now fail fast here and never arrive — the
// poison releases it with the same typed error every other member
// returns. A healthy rescan after Revive heals the team, so the
// geometry's fail-fast window matches the epoch.
func (g *Geometry) deadMember() error {
	e := g.client.mach.Epoch()
	if e == 0 {
		return nil
	}
	if e == g.memEpoch {
		return g.memErr
	}
	g.memEpoch = e
	g.memErr = nil
	for i, t := range g.tasks {
		if !g.client.mach.Alive(t) {
			g.memErr = fmt.Errorf("core: geometry %d rank %d (task %d) is dead: %w",
				g.id, i, t, mu.ErrPeerDead)
			break
		}
	}
	if g.memErr != nil {
		g.team.poison(abort.Wrap(abort.KindHealth, "core.team.barrier", g.memErr))
	} else {
		g.team.heal()
	}
	return g.memErr
}

// contribute is the round's last arriver speaking for its node: it joins
// the collective's session and contributes with the cell as the sink, so
// the outcome — or the failure to get one — reaches every waiting member.
func (g *Geometry) contribute(c *teamCell, cr *collnet.ClassRoute, round, key uint64,
	kind collnet.Kind, op collnet.Op, dt collnet.DType, nbytes int, data []byte) {
	s, err := cr.Join(key, kind, op, dt, nbytes)
	c.round, c.sess = round, s
	if err != nil {
		c.sessSeq.Store(0)
		c.SessionDone(0, nil, err)
		return
	}
	c.sessSeq.Store(key)
	// A death confirmed since the entry gate has failed, and maybe already
	// retired, the session the survivors were in; this Join may then have
	// opened a fresh one that nobody else will join, or that completes over
	// the shrunken route without the dead member's data. The epoch moves
	// before collnet fails sessions, so re-checking it after the Join sees
	// every such death, and the member fails its session itself.
	if err := g.deadMember(); err != nil {
		s.FailSeq(key, err)
	}
	s.ContributeTo(g.team.node, data, c)
}

// finish waits for the round's outcome — each member's one wait in a
// short collective — copies the result into dst and returns the error.
// The last member through, poisoned or not, releases the session's buffer.
func (g *Geometry) finish(c *teamCell, round uint64, dst []byte) error {
	err := g.await(&c.done, round, &g.netPark)
	if err == nil {
		err = c.err
		copy(dst, c.result)
	}
	if g.team.arrive(&c.left, round) && c.sess != nil {
		c.sess.Release(c.sessSeq.Load())
	}
	return err
}

// ---------------------------------------------------------------------
// Collective operations
// ---------------------------------------------------------------------

// Barrier blocks until every member has entered it. The signature is
// void for API compatibility, so a failure (a dead member, a stall
// abort, a transport fault in the software phase) panics with the
// wrapped typed error; every surviving member observes one.
func (g *Geometry) Barrier() {
	seq, cr, round, err := g.begin(1)
	if err == nil && cr == nil {
		err = g.swBarrierSeq(seq)
	} else if err == nil {
		// GI-style zero-byte combine on the classroute.
		c := &g.team.cells[round&1]
		if g.team.arrive(&c.arrived, round) {
			g.contribute(c, cr, round, seq<<16, collnet.KindBarrier, collnet.OpAdd, collnet.Uint64, 0, nil)
		}
		err = g.finish(c, round, nil)
	}
	if err != nil {
		panic(err)
	}
}

// Broadcast sends root's buf to every member's buf (len(buf) must match
// across members).
func (g *Geometry) Broadcast(root int, buf []byte) error {
	if root < 0 || root >= len(g.tasks) {
		return fmt.Errorf("core: broadcast root %d out of range", root)
	}
	seq, cr, round, err := g.begin(1)
	if err != nil || len(g.tasks) == 1 {
		return err
	}
	if cr == nil {
		return g.swBroadcast(seq, root, buf)
	}
	// Shared-address protocol (paper §IV.C): the root publishes its buffer
	// through the global VA; the last arriver of each node joins the
	// network broadcast, the root's node as its source; members copy the
	// arrived data out of the node's cell.
	t, rootTask := g.team, g.tasks[root]
	c := &t.cells[round&1]
	if g.client.Task() == rootTask {
		// A zero-length broadcast still has to flow: the session completes
		// on the source's (possibly empty, never nil) contribution.
		if c.src = buf; buf == nil {
			c.src = []byte{}
		}
	}
	if t.arrive(&c.arrived, round) {
		var data []byte
		if g.client.mach.NodeOf(rootTask).Rank == t.node {
			data = c.src
		}
		g.contribute(c, cr, round, seq<<16, collnet.KindBroadcast, collnet.OpAdd, collnet.Uint64, len(buf), data)
	}
	if g.client.Task() == rootTask {
		buf = nil
	}
	return g.finish(c, round, buf)
}

// Allreduce combines every member's send buffer element-wise and places
// the result in every member's recv buffer. Buffers are little-endian
// 8-byte words; lengths must match across members.
func (g *Geometry) Allreduce(send, recv []byte, op collnet.Op, dt collnet.DType) error {
	return g.reduceCommon(-1, send, recv, op, dt)
}

// Reduce combines every member's send buffer and places the result in
// root's recv buffer (other members' recv is untouched and may be nil).
func (g *Geometry) Reduce(root int, send, recv []byte, op collnet.Op, dt collnet.DType) error {
	if root < 0 || root >= len(g.tasks) {
		return fmt.Errorf("core: reduce root %d out of range", root)
	}
	return g.reduceCommon(root, send, recv, op, dt)
}

// LongReduceChunk is the pipeline granule for large reductions (paper
// §IV.C, figure 4): chunks flow through local math, the network combine,
// and the local copy as a pipeline.
const LongReduceChunk = 64 * 1024

// reduceCommon implements Reduce (root >= 0) and Allreduce (root == -1).
func (g *Geometry) reduceCommon(root int, send, recv []byte, op collnet.Op, dt collnet.DType) error {
	if len(send)%8 != 0 {
		return fmt.Errorf("core: reduction length %d not word aligned", len(send))
	}
	needRecv := root == -1 || g.rank == root
	if needRecv && len(recv) < len(send) {
		return fmt.Errorf("core: reduction recv buffer %d < %d", len(recv), len(send))
	}
	// One node-team round per chunk; sub-sessions are keyed under the op's
	// sequence number.
	chunks := max(1, (len(send)+LongReduceChunk-1)/LongReduceChunk)
	seq, cr, round, err := g.begin(chunks)
	if err != nil {
		return err
	}
	if !needRecv {
		recv = nil
	}
	if len(g.tasks) == 1 {
		copy(recv, send)
		return nil
	}
	if cr == nil {
		return g.swReduce(seq, root, send, recv, op, dt)
	}
	for k := 0; k < chunks; k++ {
		lo, hi := k*LongReduceChunk, min((k+1)*LongReduceChunk, len(send))
		var out []byte
		if needRecv {
			out = recv[lo:hi]
		}
		if err := g.hwReduce(cr, round+uint64(k), seq<<16|uint64(k), send[lo:hi], out, op, dt); err != nil {
			return err
		}
	}
	return nil
}

// hwReduce runs one chunk of a reduction as one node-team round. Up to
// shortMax bytes it is the short protocol of paper §IV.C figure 3 with a
// single wait: every member copies its contribution into its slot and
// arrives; whoever arrives last folds the slots in member order (so a
// floating-point sum does not depend on who that was) and injects the
// node's one network descriptor. Longer chunks keep the figure's parallel
// local math: members publish their buffers, wait for each other, reduce
// one word-slice each, and the last to finish its slice contributes.
func (g *Geometry) hwReduce(cr *collnet.ClassRoute, round, key uint64, send, recv []byte, op collnet.Op, dt collnet.DType) error {
	t, n := g.team, len(g.team.members)
	c := &t.cells[round&1]
	if h := reduceEnterHook; h != nil {
		h(g, g.tidx)
		// The hook may have moved the membership epoch (tests confirm a death
		// between two node-mates' entries): re-check the gate.
		if err := g.deadMember(); err != nil {
			return err
		}
	}
	contrib, last := send, false
	switch {
	case n == 1:
		// A team of one: contribute and wait, no node traffic.
		last = t.arrive(&c.arrived, round)
	case len(send) <= shortMax:
		copy(c.short[g.tidx*shortMax:], send)
		if last = t.arrive(&c.arrived, round); last {
			contrib = c.short[:len(send)]
			for m := 1; m < n; m++ {
				// Cannot fail: equal, word-aligned lengths by construction.
				_ = collnet.Combine(op, dt, contrib, c.short[m*shortMax:][:len(send)])
			}
		}
	default:
		c.refs[g.tidx] = send
		if g.tidx == 0 && cap(c.local) < len(send) {
			c.local = make([]byte, LongReduceChunk)
		}
		if t.arrive(&c.arrived, round) {
			t.region.Touch()
		}
		if err := g.await(&c.arrived, round<<16|uint64(n), &g.matePark); err != nil {
			return err
		}
		// Member j reduces word-slice j of all local contributions into
		// the node buffer (figure 3's "parallelize the local math").
		per := (len(send)/8 + n - 1) / n * 8
		lo, hi := min(g.tidx*per, len(send)), min((g.tidx+1)*per, len(send))
		contrib = c.local[:len(send)]
		copy(contrib[lo:hi], c.refs[0][lo:hi])
		for m := 1; m < n; m++ {
			_ = collnet.Combine(op, dt, contrib[lo:hi], c.refs[m][lo:hi])
		}
		last = t.arrive(&c.reduced, round)
	}
	if last {
		g.contribute(c, cr, round, key, collnet.KindReduce, op, dt, len(send), contrib)
	}
	return g.finish(c, round, recv)
}

// reduceEnterHook, when non-nil, runs at the top of every hwReduce with
// the calling member's geometry and node-local index. Tests use it to
// force a death confirmation between two node-mates' entries — the
// choreography behind the stranded-node-mate regression.
var reduceEnterHook func(g *Geometry, idx int)

// ---------------------------------------------------------------------
// Software algorithms (irregular geometries / no classroute)
// ---------------------------------------------------------------------

// Software collective message phases.
const (
	phaseBarrier uint8 = iota
	phaseBcast
	phaseReduce
)

const collMetaLen = 8 + 8 + 4 + 1

func encodeCollMeta(geom, seq uint64, src uint32, phase uint8) []byte {
	buf := make([]byte, collMetaLen)
	binary.LittleEndian.PutUint64(buf[0:], geom)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[16:], src)
	buf[20] = phase
	return buf
}

// handleCollMsg stores a software-collective payload in the context's
// inbox; the waiting member picks it up by key. Runs on the advancing
// thread, which owns the inbox. The payload handed up by the transports
// lives in a pooled slab that is recycled after this handler returns, so
// it must be copied out before it goes into the inbox.
func (ctx *Context) handleCollMsg(hdr mu.Header, payload []byte) {
	m := hdr.Meta
	if len(m) < collMetaLen {
		panic("core: malformed software-collective message")
	}
	key := inboxKey{
		geom:  binary.LittleEndian.Uint64(m[0:]),
		seq:   binary.LittleEndian.Uint64(m[8:]),
		src:   int(binary.LittleEndian.Uint32(m[16:])),
		phase: m[20],
	}
	if _, dup := ctx.inbox[key]; dup {
		panic(fmt.Sprintf("core: duplicate software-collective message %+v", key))
	}
	ctx.inbox[key] = append([]byte{}, payload...)
	// The inbox gauge is the collective layer's pressure signal: its
	// high-water mark bounds how far any member ever ran ahead of the
	// slowest one (inbox credits are implicit — the collective algorithms
	// never send round k+1 before round k completes, so the gauge staying
	// near the fan-in width is the invariant overload tests assert).
	ctx.stats.inboxMsgs.Set(int64(len(ctx.inbox)))
	// Wake the member that waits for this fragment: the thread that filed
	// it need not be the member's own, and the arrival's touch may predate
	// the member's park.
	ctx.region.Touch()
}

// swSend ships a software-collective fragment to a geometry member. It
// serializes on the context lock, so it is safe alongside commthreads.
// Transport failures (e.g. mu.ErrNoRoute when faults partition the
// torus) are returned to the caller rather than crashing the job.
func (g *Geometry) swSend(dst int, phase uint8, seq uint64, data []byte) error {
	meta := encodeCollMeta(g.id, seq, uint32(g.rank), phase)
	ctx := g.ctx
	ctx.Lock()
	ctx.sendSeq++
	hdr := mu.Header{
		Dispatch: dispatchColl,
		Origin:   ctx.addr,
		Seq:      ctx.sendSeq,
		Meta:     meta,
	}
	err := ctx.transportSend(Endpoint{Task: g.tasks[dst], Ctx: g.ctxOrd}, hdr, data)
	ctx.Unlock()
	if err != nil {
		return fmt.Errorf("core: software collective send to task %d: %w", g.tasks[dst], err)
	}
	return nil
}

// swWait waits until the keyed fragment arrives, then claims it under
// the context lock, in the context's progress loop on its shared path;
// it registers at netPark while it sleeps. A member death or the stall
// sentinel poisons the team and touches the context's region.
func (g *Geometry) swWait(src int, phase uint8, seq uint64) (v []byte, err error) {
	key := inboxKey{geom: g.id, seq: seq, src: src, phase: phase}
	ctx, t, how := g.ctx, g.team, g.ctx.stats.collSpun
	if ctx.advanceUntil(func() bool {
		var ok bool
		if v, ok = ctx.inbox[key]; ok {
			delete(ctx.inbox, key)
			ctx.stats.inboxMsgs.Set(int64(len(ctx.inbox)))
			return true
		}
		if t.strikes.Load() != g.strikes {
			err = *t.cause.Load()
		}
		return err != nil
	}, &g.netPark, true) {
		how = ctx.stats.collParked
	}
	if err == nil {
		how.Inc()
	}
	return v, err
}

// swBarrier is a dissemination barrier over the geometry's members: the
// barrier of Optimize, Deoptimize and Destroy. It passes the membership
// gate and snapshots the team's strikes, as begin does, but runs on a
// poisoned team, so that a geometry cut loose can still be released.
func (g *Geometry) swBarrier() error {
	g.seq++
	if err := g.deadMember(); err != nil {
		return err
	}
	g.strikes = g.team.strikes.Load()
	return g.swBarrierSeq(g.seq)
}

func (g *Geometry) swBarrierSeq(seq uint64) error {
	n := len(g.tasks)
	if n == 1 {
		return nil
	}
	for k, dist := uint8(0), 1; dist < n; k, dist = k+1, dist*2 {
		to := (g.rank + dist) % n
		from := (g.rank - dist + n) % n
		if err := g.swSend(to, phaseBarrier+k<<2, seq, nil); err != nil {
			return err
		}
		if _, err := g.swWait(from, phaseBarrier+k<<2, seq); err != nil {
			return err
		}
	}
	return nil
}

// swBroadcast is a binomial-tree broadcast rooted at root.
func (g *Geometry) swBroadcast(seq uint64, root int, buf []byte) error {
	n := len(g.tasks)
	rel := (g.rank - root + n) % n
	// Receive from the parent (clear the lowest set bit of rel).
	if rel != 0 {
		parentRel := rel &^ (rel & -rel)
		parent := (parentRel + root) % n
		data, err := g.swWait(parent, phaseBcast, seq)
		if err != nil {
			return err
		}
		copy(buf, data)
	}
	// Forward to children: set bits above rel's lowest set bit.
	low := rel & -rel
	if rel == 0 {
		low = 1 << 62
	}
	for bit := 1; bit < low && rel+bit < n; bit <<= 1 {
		child := (rel + bit + root) % n
		if err := g.swSend(child, phaseBcast, seq, buf); err != nil {
			return err
		}
	}
	return nil
}

// swReduce is a binomial reduce to root (recv valid at root), followed by
// a binomial broadcast when root == -1 (allreduce).
func (g *Geometry) swReduce(seq uint64, root int, send, recv []byte, op collnet.Op, dt collnet.DType) error {
	n := len(g.tasks)
	effRoot := root
	if root == -1 {
		effRoot = 0
	}
	rel := (g.rank - effRoot + n) % n
	acc := append([]byte(nil), send...)
	// Combine children (increasing bit order keeps the fold deterministic).
	low := rel & -rel
	if rel == 0 {
		low = 1 << 62
	}
	for bit := 1; bit < low && rel+bit < n; bit <<= 1 {
		childRel := rel + bit
		child := (childRel + effRoot) % n
		data, err := g.swWait(child, phaseReduce, seq)
		if err != nil {
			return err
		}
		if err := collnet.Combine(op, dt, acc, data); err != nil {
			return err
		}
	}
	if rel != 0 {
		parentRel := rel &^ low
		parent := (parentRel + effRoot) % n
		if err := g.swSend(parent, phaseReduce, seq, acc); err != nil {
			return err
		}
	}
	if root != -1 {
		if g.rank == root {
			copy(recv, acc)
		}
		return nil
	}
	if g.rank == effRoot {
		copy(recv, acc)
	}
	return g.swBroadcast(seq, effRoot, recv[:len(send)])
}
