package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// TestStrandedNodeMateReleased is the deterministic regression for the
// stranded-node-mate hazard (ROADMAP item 6): on a two-member node
// team, member A passes the deadMember gate *before* a remote node's
// death is confirmed, arrives at its round and waits for the outcome;
// member B enters *after* the confirmation, fails fast at the gate, and
// never arrives. Before team poisoning, A parked forever. Now B's gate
// check poisons the team, so A wakes with the same typed error —
// both members return errors classified by errors.Is, and A's
// additionally wraps abort.ErrAborted (it came through the poison).
//
// The choreography is forced, not raced: the reduceEnterHook lets A
// through immediately, holds B until A has provably arrived (the
// round's arrival word counts one member), declares the remote node
// dead, waits for the epoch to move, and only then releases B into the
// gate.
func TestStrandedNodeMateReleased(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	// A node fault that never fires: arms the health monitor without
	// perturbing the run, so the test controls the death instant.
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(dims); err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{
		Dims: dims, PPN: 2,
		Faults:    &plan,
		FaultSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	// ready counts members that fully exited WorldGeometry: the death
	// must not be declared while a remote member is still inside the
	// bootstrap barriers, or it would fail geometry creation instead of
	// stranding the reduction.
	var ready atomic.Int32
	awaitDeadline := time.Now().Add(30 * time.Second)
	reduceEnterHook = func(g *Geometry, idx int) {
		if g.team.node != 0 {
			return
		}
		if idx == 0 {
			return // member A: proceed straight to its arrival
		}
		// Member B: wait until every member bootstrapped and A has arrived
		// at the round B is about to enter, then confirm the remote death.
		arrived := &g.team.cells[g.round&1].arrived
		for ready.Load() < 4 || arrived.Load() != g.round<<16|1 {
			if time.Now().After(awaitDeadline) {
				panic("member A never arrived at the team round")
			}
			runtime.Gosched()
		}
		m.Health().DeclareDead(1)
		for m.Epoch() == 0 {
			runtime.Gosched()
		}
	}
	defer func() { reduceEnterHook = nil }()

	var mu_ sync.Mutex
	errs := map[int]error{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			cl, err := NewClient(m, p, "strand")
			if err != nil {
				panic(err)
			}
			ctxs, err := cl.CreateContexts(1)
			if err != nil {
				panic(err)
			}
			g, err := cl.WorldGeometry(ctxs[0])
			if err != nil {
				panic(err)
			}
			if !g.Optimized() {
				panic("world geometry did not take the classroute; the test needs the hardware path")
			}
			ready.Add(1)
			if p.Node().Rank != 0 {
				return // the remote node's members never join the reduction
			}
			send := make([]byte, 8)
			recv := make([]byte, 8)
			binary.LittleEndian.PutUint64(send, uint64(p.TaskRank()))
			aerr := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64)
			mu_.Lock()
			errs[p.TaskRank()] = aerr
			mu_.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job hung: a node-mate is stranded at the team barrier")
	}

	for _, task := range []int{0, 1} {
		err := errs[task]
		if err == nil {
			t.Fatalf("task %d completed the reduction despite the dead member", task)
		}
		if !errors.Is(err, mu.ErrPeerDead) {
			t.Fatalf("task %d error not classified as peer death: %v", task, err)
		}
	}
	// Member A was released by the poison, so its error also carries the
	// abort vocabulary.
	if err := errs[0]; !errors.Is(err, abort.ErrAborted) {
		t.Fatalf("stranded member's error lost the abort wrap: %v", err)
	}
}

// TestStrandedAcrossGeometries is the deterministic form of the
// TestChaosCrashMidHardwareCollective hang: a job that alternates two
// geometries per step. Member A (task 0) passes the *hardware*
// geometry's gate before the death is confirmed, arrives at its team
// word and waits for node-mate B; B is still in the *software*
// geometry, fails typed at that geometry's gate once the death is
// confirmed, and leaves the job without ever entering the hardware
// round. The gate poisons only the software geometry's team, so before
// geometries registered a machine death hook nothing released A. Now
// the confirmed death poisons every team of every geometry listing the
// dead node, and A returns the same typed error.
//
// Forced, not raced: the reduceEnterHook marks A's entry into the
// hardware round, B waits until the round's arrival word counts exactly
// A, declares the remote node dead, waits for the epoch to move, and
// only then calls the software allreduce.
func TestStrandedAcrossGeometries(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(dims); err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Dims: dims, PPN: 2, Faults: &plan, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	entered := make(chan struct{})
	var enterOnce sync.Once
	reduceEnterHook = func(g *Geometry, idx int) {
		if g.id == WorldGeometryID && g.team.node == 0 && idx == 0 {
			enterOnce.Do(func() { close(entered) })
		}
	}
	defer func() { reduceEnterHook = nil }()

	var ready atomic.Int32
	var mu_ sync.Mutex
	errs := map[int]error{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			cl, err := NewClient(m, p, "strand2")
			if err != nil {
				panic(err)
			}
			ctxs, err := cl.CreateContexts(1)
			if err != nil {
				panic(err)
			}
			ghw, err := cl.WorldGeometry(ctxs[0])
			if err != nil {
				panic(err)
			}
			if !ghw.Optimized() {
				panic("world geometry did not take the classroute; the test needs the hardware path")
			}
			gsw, err := cl.CreateGeometry(ctxs[0], 2, ghw.Tasks())
			if err != nil {
				panic(err)
			}
			ready.Add(1)
			if p.Node().Rank != 0 {
				return // the remote node's members never join a reduction
			}
			send := make([]byte, 8)
			recv := make([]byte, 8)
			var aerr error
			if p.TaskRank() == 0 {
				// Member A: straight into the hardware round.
				aerr = ghw.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64)
			} else {
				// Member B: wait until everyone bootstrapped and A alone has
				// arrived at the hardware round, confirm the death, then fail
				// at the software geometry's gate and leave.
				<-entered
				arrived := &ghw.team.cells[1].arrived // A's first round is round 1
				deadline := time.Now().Add(30 * time.Second)
				for ready.Load() < 4 || arrived.Load() != 1<<16|1 {
					if time.Now().After(deadline) {
						panic("member A never arrived at the hardware team round")
					}
					runtime.Gosched()
				}
				m.Health().DeclareDead(1)
				for m.Epoch() == 0 {
					runtime.Gosched()
				}
				aerr = gsw.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64)
			}
			mu_.Lock()
			errs[p.TaskRank()] = aerr
			mu_.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job hung: a rank is stranded in the hardware geometry's team after its mate left through the software geometry's gate")
	}
	for _, task := range []int{0, 1} {
		if err := errs[task]; !errors.Is(err, mu.ErrPeerDead) {
			t.Fatalf("task %d: error %v, want a typed peer death", task, err)
		}
	}
	if err := errs[0]; !errors.Is(err, abort.ErrAborted) {
		t.Fatalf("stranded member's error lost the abort wrap: %v", err)
	}
}
