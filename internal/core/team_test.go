package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/fault"
	"pamigo/internal/health"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// collStep is one collective of a generated program.
type collStep struct {
	kind  byte // 'B'arrier, broad'C'ast, 'R'educe, 'A'llreduce
	root  int
	words int
	op    collnet.Op
}

// word is member rank's contribution to word j of step i: small enough
// that a sum over any team cannot overflow, different in every argument
// so that a stale or misplaced word changes the result.
func word(seed int64, i, rank, j int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)<<40 ^ uint64(rank)<<24 ^ uint64(j)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return (x ^ x>>29) >> 24
}

// program draws a collective sequence that names every rank as a
// broadcast root and as a reduce root, over every size class and every
// combine operation, in seed order.
func program(seed int64, size int) []collStep {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{0, 1, 64, 65, 8192 + 1} // words: 0, 8, 512, 520, 64 KiB + 8 bytes
	ops := []collnet.Op{collnet.OpAdd, collnet.OpMin, collnet.OpMax, collnet.OpBitOR}
	var steps []collStep
	for r := 0; r < size; r++ {
		steps = append(steps,
			collStep{kind: 'C', root: r, words: sizes[rng.Intn(len(sizes))]},
			collStep{kind: 'R', root: r, words: sizes[rng.Intn(len(sizes))], op: ops[rng.Intn(len(ops))]},
			collStep{kind: 'A', words: sizes[rng.Intn(len(sizes))], op: ops[rng.Intn(len(ops))]},
			collStep{kind: 'B'})
	}
	for _, w := range sizes { // every size on the one-wait path at least once
		steps = append(steps, collStep{kind: 'A', words: w, op: ops[rng.Intn(len(ops))]})
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}

// oracle is the sequential result of a reduction step.
func oracle(seed int64, i, size int, st collStep) []uint64 {
	dt := collnet.Int64
	if st.op == collnet.OpBitOR {
		dt = collnet.Uint64
	}
	acc := make([]byte, 8*st.words)
	src := make([]byte, 8*st.words)
	for r := 0; r < size; r++ {
		for j := 0; j < st.words; j++ {
			binary.LittleEndian.PutUint64(src[8*j:], word(seed, i, r, j))
		}
		if r == 0 {
			copy(acc, src)
		} else if err := collnet.Combine(st.op, dt, acc, src); err != nil {
			panic(err)
		}
	}
	out := make([]uint64, st.words)
	for j := range out {
		out[j] = binary.LittleEndian.Uint64(acc[8*j:])
	}
	return out
}

// TestTeamProtocolProperty runs seeded collective programs on every team
// shape — teams of one, two and three on several nodes, one team of four
// on a single node — against the sequential oracle, with one member held
// back by seed-derived jitter so its mates try to lap it. A machine boots
// with a power-of-two PPN only, so the teams of three are a geometry over
// three of each node's four ranks.
func TestTeamProtocolProperty(t *testing.T) {
	shapes := []struct {
		dims      torus.Dims
		ppn, team int
	}{
		{torus.Dims{2, 1, 1, 1, 1}, 1, 1},
		{torus.Dims{2, 2, 1, 1, 1}, 2, 2},
		{torus.Dims{2, 2, 1, 1, 1}, 4, 3},
		{torus.Dims{1, 1, 1, 1, 1}, 4, 4},
	}
	for _, sh := range shapes {
		var tasks []int
		for task := 0; task < sh.dims.Nodes()*sh.ppn; task++ {
			if task%sh.ppn < sh.team {
				tasks = append(tasks, task)
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			size := len(tasks)
			steps := program(seed, size)
			want := make([][]uint64, len(steps))
			for i, st := range steps {
				if st.kind == 'R' || st.kind == 'A' {
					want[i] = oracle(seed, i, size, st)
				}
			}
			slow := int(seed) % size
			entered := make([]atomic.Int32, len(steps))
			runJob(t, sh.dims, sh.ppn, func(g *Geometry, ctx *Context) {
				if sh.team < sh.ppn {
					if g.client.Task()%sh.ppn >= sh.team {
						return
					}
					var err error
					if g, err = g.client.CreateGeometry(ctx, 7, tasks); err == nil {
						err = g.Optimize()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				if !g.Optimized() {
					t.Errorf("%v ppn %d: geometry is not on a classroute", sh.dims, sh.ppn)
					return
				}
				me := g.Rank()
				for i, st := range steps {
					if me == slow {
						time.Sleep(fault.Jitter(seed, int64(i), 20*time.Microsecond))
					}
					send := make([]byte, 8*st.words)
					for j := 0; j < st.words; j++ {
						binary.LittleEndian.PutUint64(send[8*j:], word(seed, i, me, j))
					}
					var got []byte
					switch st.kind {
					case 'B':
						entered[i].Add(1)
						g.Barrier()
						if n := entered[i].Load(); int(n) != size {
							t.Errorf("step %d: barrier released rank %d after %d of %d arrivals", i, me, n, size)
						}
						continue
					case 'C':
						if me != st.root {
							clear(send)
						}
						if err := g.Broadcast(st.root, send); err != nil {
							t.Errorf("step %d: broadcast: %v", i, err)
							return
						}
						for j := 0; j < st.words; j++ {
							if v := binary.LittleEndian.Uint64(send[8*j:]); v != word(seed, i, st.root, j) {
								t.Errorf("step %d: rank %d broadcast word %d = %d, want %d", i, me, j, v, word(seed, i, st.root, j))
								return
							}
						}
						continue
					case 'R':
						dt := collnet.Int64
						if st.op == collnet.OpBitOR {
							dt = collnet.Uint64
						}
						if me == st.root {
							got = make([]byte, 8*st.words)
						}
						if err := g.Reduce(st.root, send, got, st.op, dt); err != nil {
							t.Errorf("step %d: reduce: %v", i, err)
							return
						}
					case 'A':
						dt := collnet.Int64
						if st.op == collnet.OpBitOR {
							dt = collnet.Uint64
						}
						got = make([]byte, 8*st.words)
						if err := g.Allreduce(send, got, st.op, dt); err != nil {
							t.Errorf("step %d: allreduce: %v", i, err)
							return
						}
					}
					for j := 0; got != nil && j < st.words; j++ {
						if v := binary.LittleEndian.Uint64(got[8*j:]); v != want[i][j] {
							t.Errorf("step %d (%c root %d, %d words, %v): rank %d word %d = %d, want %d",
								i, st.kind, st.root, st.words, st.op, me, j, v, want[i][j])
							return
						}
					}
				}
			})
		}
	}
}

// TestRootedReduceCannotLap: in a rooted reduce only the root needs the
// outcome, so nothing but the protocol's own invariant — no member leaves
// round k before all of its team arrived at k — keeps a fast member from
// overwriting the slot generation a slow mate has yet to read. Every
// round's contributions differ, so a round that read a later round's slot
// sums wrong (and arrive panics on a lapped word).
func TestRootedReduceCannotLap(t *testing.T) {
	const rounds = 10000
	runJob(t, torus.Dims{2, 1, 1, 1, 1}, 2, func(g *Geometry, _ *Context) {
		me, size := g.Rank(), g.Size()
		send, recv := make([]byte, 8), make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if me == 1 && i%64 == 0 { // the slow member is not its team's index 0
				time.Sleep(20 * time.Microsecond)
			}
			binary.LittleEndian.PutUint64(send, uint64((i+1)*(me+1)))
			if err := g.Reduce(0, send, recv, collnet.OpAdd, collnet.Int64); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
			if want := uint64((i + 1) * size * (size + 1) / 2); me == 0 && binary.LittleEndian.Uint64(recv) != want {
				t.Errorf("round %d: sum %d, want %d", i, binary.LittleEndian.Uint64(recv), want)
				return
			}
		}
	})
}

// TestShortAllreduceZeroAlloc: in steady state an 8-byte allreduce on
// 2x2 nodes with two ranks each allocates nothing, on any rank or in the
// session it runs on (48 allocations per operation before the pooled
// sessions and the attached parks).
func TestShortAllreduceZeroAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates")
	}
	const ops = 2000
	var before, after runtime.MemStats
	measured := make(chan struct{})
	runJob(t, torus.Dims{2, 2, 1, 1, 1}, 2, func(g *Geometry, _ *Context) {
		send, recv := make([]byte, 8), make([]byte, 8)
		reduce := func(n int) {
			for i := 0; i < n; i++ {
				if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Int64); err != nil {
					panic(err)
				}
			}
		}
		reduce(200)
		g.Barrier()
		if g.Rank() == 0 {
			runtime.ReadMemStats(&before) // the others wait for rank 0 in their first allreduce
		}
		reduce(ops)
		g.Barrier()
		if g.Rank() == 0 {
			runtime.ReadMemStats(&after)
			close(measured)
		}
		<-measured
	})
	if n := after.Mallocs - before.Mallocs; n > ops/100 {
		t.Fatalf("%d allocations in %d allreduces over 8 ranks, want none", n, ops)
	}
}

// strandedTeam boots 2x1 nodes with two ranks each and the health monitor
// armed, and runs one 8-byte allreduce on node 0's team only — node 1's
// ranks create the geometry and leave, so the collective can never
// complete. release is called once both members of node 0 are parked in
// their wait and must cut them loose; the test requires both back within
// 100 ms of it (of the stall deadline, when one is armed), and returns
// their errors by task.
func strandedTeam(t *testing.T, stallDeadline time.Duration, release func(m *machine.Machine, g *Geometry)) map[int]error {
	t.Helper()
	dims := torus.Dims{2, 1, 1, 1, 1}
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=1") // never fires: arms the monitor
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Dims: dims, PPN: 2, Faults: &plan, FaultSeed: 7, StallDeadline: stallDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var ready sync.WaitGroup
	ready.Add(4)
	var lock sync.Mutex
	errs := map[int]error{}
	var released atomic.Int64 // UnixNano of the release
	var took [2]time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			g := bootRank(m, p)
			ready.Done()
			if p.Node().Rank != 0 {
				return
			}
			if p.TaskRank() == 0 {
				go func() {
					ready.Wait()
					for parked(m, "core.geom.hwwait") < 2 {
						time.Sleep(100 * time.Microsecond)
					}
					released.Store(time.Now().UnixNano())
					release(m, g)
				}()
			}
			send, recv := make([]byte, 8), make([]byte, 8)
			aerr := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64)
			lock.Lock()
			errs[p.TaskRank()] = aerr
			took[p.TaskRank()] = time.Duration(time.Now().UnixNano() - released.Load())
			lock.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a member of the team is still parked")
	}
	for task, d := range took {
		if errs[task] == nil {
			t.Errorf("task %d completed a collective half its members never joined", task)
		}
		if d > stallDeadline+100*time.Millisecond {
			t.Errorf("task %d came back %v after the release, want under %v", task, d, stallDeadline+100*time.Millisecond)
		}
	}
	return errs
}

// bootRank is a rank's set-up: client, one context, and the world geometry
// on its classroute.
func bootRank(m *machine.Machine, p *cnk.Process) *Geometry {
	cl, err := NewClient(m, p, "team")
	if err != nil {
		panic(err)
	}
	ctxs, err := cl.CreateContexts(1)
	if err != nil {
		panic(err)
	}
	g, err := cl.WorldGeometry(ctxs[0])
	if err != nil || !g.Optimized() {
		panic(fmt.Sprint("world geometry not on a classroute: ", err))
	}
	return g
}

// parked reads one wait site's waiter count off the sentinel's table.
func parked(m *machine.Machine, site string) int {
	for _, row := range m.Sentinel().Table() {
		if row.Name == site {
			return row.Waiters
		}
	}
	return 0
}

// TestParkedTeamReleasedBySessionFailure: failing the session the team's
// last arriver contributed to reaches every parked member with the
// session's error, whoever fails it.
func TestParkedTeamReleasedBySessionFailure(t *testing.T) {
	cause := errors.New("session failed by the test")
	errs := strandedTeam(t, 0, func(_ *machine.Machine, g *Geometry) {
		c := &g.team.cells[g.round&1]
		if !g.classroute().Fail(c.sessSeq.Load(), cause) {
			t.Error("the team's session was not open")
		}
	})
	for task, err := range errs {
		if !errors.Is(err, cause) {
			t.Errorf("task %d: %v, want the session's failure", task, err)
		}
	}
}

// TestParkedTeamReleasedByNodeDeath: a confirmed death fails the session
// (collnet) before any member runs the gate again, and the members return
// the epoch change.
func TestParkedTeamReleasedByNodeDeath(t *testing.T) {
	errs := strandedTeam(t, 0, func(m *machine.Machine, _ *Geometry) { m.Health().DeclareDead(1) })
	for task, err := range errs {
		if !errors.Is(err, health.ErrEpochChanged) {
			t.Errorf("task %d: %v, want ErrEpochChanged", task, err)
		}
	}
}

// TestParkedTeamReleasedBySentinel: with the stall sentinel armed nobody
// has to do anything — the deadline poisons the team and fails its
// session with a KindDeadline abort.
func TestParkedTeamReleasedBySentinel(t *testing.T) {
	errs := strandedTeam(t, 40*time.Millisecond, func(*machine.Machine, *Geometry) {})
	for task, err := range errs {
		var c *abort.Cause
		if !errors.Is(err, abort.ErrAborted) || !errors.As(err, &c) || c.Kind != abort.KindDeadline {
			t.Errorf("task %d: %v, want a KindDeadline abort", task, err)
		}
	}
}

// TestJoinAfterDeathFailsOwnSession: a member that passed the gate before
// a death was confirmed and joins after collnet has failed (and nobody
// will ever rejoin) the session fails the fresh session itself instead of
// waiting on it, and every member of its team returns ErrPeerDead.
func TestJoinAfterDeathFailsOwnSession(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=3")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Dims: dims, PPN: 1, Faults: &plan, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var ready sync.WaitGroup
	ready.Add(4)
	var got error
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			g := bootRank(m, p)
			ready.Done()
			if p.TaskRank() != 0 {
				return
			}
			ready.Wait()
			seq, cr, round, err := g.begin(1) // the gate, before the death
			if err != nil || cr == nil {
				panic(fmt.Sprint("begin: ", cr, err))
			}
			m.Health().DeclareDead(3) // epoch moves, collnet shrinks the route
			send, recv := make([]byte, 8), make([]byte, 8)
			got = g.hwReduce(cr, round, seq<<16, send, recv, collnet.OpAdd, collnet.Uint64)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the late joiner is waiting on a session nobody else will join")
	}
	if !errors.Is(got, mu.ErrPeerDead) {
		t.Fatalf("late joiner returned %v, want ErrPeerDead", got)
	}
}

// TestTeamReusableAfterRevive: a collective that a death fails in every
// way at once — node 0's first member poisoned in its wait, its mate and
// the dead node's ranks failing at the gate — leaves sequence numbers,
// rounds and the team's slots in step, so that after Revive the same
// geometry runs collectives again.
func TestTeamReusableAfterRevive(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Dims: dims, PPN: 2, Faults: &plan, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var dead atomic.Bool
	var ready atomic.Int32 // ranks out of WorldGeometry: a death inside it fails the bootstrap instead
	reduceEnterHook = func(g *Geometry, idx int) {
		if g.team.node != 0 || idx == 0 || dead.Load() {
			return
		}
		arrived := &g.team.cells[g.round&1].arrived
		for ready.Load() < 4 || arrived.Load() != g.round<<16|1 { // until the mate waits in this round
			runtime.Gosched()
		}
		m.Health().DeclareDead(1)
		dead.Store(true)
	}
	defer func() { reduceEnterHook = nil }()
	var failed, revived sync.WaitGroup
	failed.Add(4)
	revived.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			g := bootRank(m, p)
			ready.Add(1)
			send, recv := make([]byte, 8), make([]byte, 8)
			if p.Node().Rank == 1 {
				for !dead.Load() { // the dead node's ranks call the same collective, late
					runtime.Gosched()
				}
			}
			if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64); !errors.Is(err, mu.ErrPeerDead) {
				t.Errorf("task %d: collective across the death returned %v, want ErrPeerDead", p.TaskRank(), err)
			}
			failed.Done()
			if p.TaskRank() == 0 {
				failed.Wait()
				if err := m.Revive(1); err != nil {
					t.Error(err)
				}
				revived.Done()
			}
			revived.Wait()
			for i := 1; i <= 20; i++ {
				binary.LittleEndian.PutUint64(send, uint64(i*(p.TaskRank()+1)))
				if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64); err != nil {
					t.Errorf("task %d: allreduce %d after the revive: %v", p.TaskRank(), i, err)
					return
				}
				if got := binary.LittleEndian.Uint64(recv); got != uint64(i*10) {
					t.Errorf("task %d: allreduce %d after the revive = %d, want %d", p.TaskRank(), i, got, i*10)
					return
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the healed team never completed a collective")
	}
}
