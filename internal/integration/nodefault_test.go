package integration

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/scenario"
	"pamigo/internal/torus"
)

// runNodeFaultJob runs body once per process on a core client over cfg,
// whose plan kills or freezes nodes. The window is wider than
// chaosDeadline: recovery paths busy-poll with Gosched and millisecond
// heartbeats, which crawl when the race detector plus parallel package
// builds starve the scheduler.
func runNodeFaultJob(t *testing.T, cfg machine.Config, body func(m *machine.Machine, p *cnk.Process)) *machine.Machine {
	t.Helper()
	return runMachineJob(t, "node-fault", 2*chaosDeadline, cfg, func(m *machine.Machine) {
		m.Run(func(p *cnk.Process) { body(m, p) })
	})
}

// worldGeometry builds a client, one context, and an all-tasks geometry
// for the calling process.
func worldGeometry(m *machine.Machine, p *cnk.Process, optimize bool) (*core.Context, *core.Geometry, error) {
	cl, err := core.NewClient(m, p, "chaos")
	if err != nil {
		return nil, nil, err
	}
	ctxs, err := cl.CreateContexts(1)
	if err != nil {
		return nil, nil, err
	}
	tasks := make([]int, m.Tasks())
	for i := range tasks {
		tasks[i] = i
	}
	g, err := cl.CreateGeometry(ctxs[0], 1, tasks)
	if err != nil {
		return nil, nil, err
	}
	if optimize {
		if err := g.Optimize(); err != nil {
			return nil, nil, fmt.Errorf("optimize: %w", err)
		}
	}
	return ctxs[0], g, nil
}

// TestChaosCrashMidSoftwareCollective kills a node while every task
// loops software allreduces (binomial trees over MU packets): the
// heartbeat detector must confirm the death, every survivor's collective
// must fail with a typed error, and nothing may deadlock or leak.
func TestChaosCrashMidSoftwareCollective(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 1,
		Faults:    mustPlan(t, "crash@pkt=400,node=2", dims),
		FaultSeed: 3,
	}
	scenario.FastDetect(&cfg)
	var typed, completed, crashed atomic.Int64
	m := runNodeFaultJob(t, cfg, func(m *machine.Machine, p *cnk.Process) {
		_, g, err := worldGeometry(m, p, false)
		if err != nil {
			panic(err)
		}
		send := make([]byte, 64)
		recv := make([]byte, 64)
		for step := 0; step < 400; step++ {
			if m.Crashed(p.TaskRank()) {
				crashed.Add(1)
				return
			}
			binary.LittleEndian.PutUint64(send, uint64(p.TaskRank()+step))
			if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64); err != nil {
				if !core.Recoverable(err) {
					panic(fmt.Sprintf("rank %d: untyped failure: %v", p.TaskRank(), err))
				}
				typed.Add(1)
				return
			}
		}
		completed.Add(1)
	})
	if m.Epoch() != 1 {
		t.Errorf("epoch = %d after one death, want 1", m.Epoch())
	}
	if completed.Load() != 0 {
		t.Errorf("%d tasks completed all steps; the crash should have stopped the job", completed.Load())
	}
	if typed.Load() == 0 {
		t.Error("no survivor observed a typed failure")
	}
	if v := machineCounter(t, m, "health.deaths"); v != 1 {
		t.Errorf("health.deaths = %d, want 1", v)
	}
}

// TestChaosCrashMidHardwareCollective runs the classroute (shared-
// address) collective path with a side channel of software traffic
// driving the packet counter, kills a node, and requires the session
// failure to propagate as typed errors through every surviving team.
func TestChaosCrashMidHardwareCollective(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 2,
		Faults:    mustPlan(t, "crash@pkt=500,node=3", dims),
		FaultSeed: 11,
	}
	scenario.FastDetect(&cfg)
	var typed, completed atomic.Int64
	m := runNodeFaultJob(t, cfg, func(m *machine.Machine, p *cnk.Process) {
		ctx, g, err := worldGeometry(m, p, true)
		if err != nil {
			panic(err)
		}
		// Second, unoptimized geometry: its software allreduce rides MU
		// packets, advancing the injector's packet counter (classroute
		// traffic does not touch the torus).
		cl := ctx.Client()
		tasks := make([]int, m.Tasks())
		for i := range tasks {
			tasks[i] = i
		}
		gsw, err := cl.CreateGeometry(ctx, 2, tasks)
		if err != nil {
			panic(err)
		}
		send := make([]byte, 64)
		recv := make([]byte, 64)
		for step := 0; step < 400; step++ {
			if m.Crashed(p.TaskRank()) {
				return
			}
			binary.LittleEndian.PutUint64(send, uint64(step))
			if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64); err != nil {
				if !core.Recoverable(err) {
					panic(fmt.Sprintf("rank %d: untyped hw failure: %v", p.TaskRank(), err))
				}
				typed.Add(1)
				return
			}
			if err := gsw.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64); err != nil {
				if !core.Recoverable(err) {
					panic(fmt.Sprintf("rank %d: untyped sw failure: %v", p.TaskRank(), err))
				}
				typed.Add(1)
				return
			}
		}
		completed.Add(1)
	})
	if completed.Load() != 0 {
		t.Errorf("%d tasks completed all steps; the crash should have stopped the job", completed.Load())
	}
	if typed.Load() == 0 {
		t.Error("no survivor observed a typed failure")
	}
	if v := machineCounter(t, m, "collnet.nodes_down"); v != 1 {
		t.Errorf("collnet.nodes_down = %d, want 1", v)
	}
}

// TestChaosCrashDuringRendezvous starts a rendezvous send whose RTS is
// swallowed by the crash: the completion ack can never arrive, so the
// epoch change must cancel the pending send and fire OnFail with
// ErrPeerDead instead of leaving the sender waiting forever.
func TestChaosCrashDuringRendezvous(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 1,
		Faults:    mustPlan(t, "crash@pkt=1,node=1", dims),
		FaultSeed: 2,
	}
	scenario.FastDetect(&cfg)
	var failedWith atomic.Value
	m := runNodeFaultJob(t, cfg, func(m *machine.Machine, p *cnk.Process) {
		cl, err := core.NewClient(m, p, "rdv")
		if err != nil {
			panic(err)
		}
		ctxs, err := cl.CreateContexts(1)
		if err != nil {
			panic(err)
		}
		ctx := ctxs[0]
		if err := ctx.RegisterDispatch(7, func(_ *core.Context, d *core.Delivery) {
			_ = d.Discard()
		}); err != nil {
			panic(err)
		}
		peer := 1 - p.TaskRank()
		for !m.Fabric().ContextRegistered(core.Endpoint{Task: peer, Ctx: 0}) {
			runtime.Gosched()
		}
		if p.TaskRank() != 0 {
			// The victim: wait to die.
			for !m.Crashed(p.TaskRank()) {
				ctx.Advance(16)
				runtime.Gosched()
			}
			return
		}
		var done, failed atomic.Bool
		payload := make([]byte, 64<<10)
		ctx.Lock()
		err = ctx.Send(core.SendParams{
			Dest:     core.Endpoint{Task: peer, Ctx: 0},
			Dispatch: 7,
			Data:     payload,
			Mode:     core.ModeRendezvous,
			OnDone:   func() { done.Store(true) },
			OnFail: func(err error) {
				failedWith.Store(err)
				failed.Store(true)
			},
		})
		ctx.Unlock()
		if err != nil {
			// The RTS injection itself may fail fast when the death is
			// already confirmed; that is a legal typed outcome too.
			if !core.Recoverable(err) {
				panic(err)
			}
			failedWith.Store(err)
			return
		}
		ctx.AdvanceUntil(func() bool { return done.Load() || failed.Load() })
		if done.Load() {
			panic("rendezvous to a dead peer reported success")
		}
	})
	err, _ := failedWith.Load().(error)
	if err == nil {
		t.Fatal("sender never observed a failure")
	}
	if !errors.Is(err, mu.ErrPeerDead) {
		t.Fatalf("failure = %v, want ErrPeerDead", err)
	}
	if v := machineCounter(t, m, "core.task0.ctx0.rdv_failed"); v != 1 {
		t.Logf("note: rdv_failed = %d (fail-fast path taken instead of cancellation)", v)
	}
}

// TestChaosCheckpointRestoreUnderStorm runs the full recovery story at
// once, through the scenario package pamirun itself calls: an iterative
// allreduce under a >10% drop/dup/corrupt storm loses a node mid-run,
// survivors fail over with typed errors, and a restart from the last
// checkpoint finishes the job byte-exact against the analytically
// computed answer.
func TestChaosCheckpointRestoreUnderStorm(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	plan := scenario.Plan{
		Machine: machine.Config{
			Dims: dims, PPN: 1,
			Faults:    mustPlan(t, "drop=0.05,dup=0.04,corrupt=0.03,crash@pkt=1500,node=1", dims),
			FaultSeed: 17,
		},
		Workload: scenario.Allreduce, Policy: scenario.Restart,
		Span: scenario.Span{DieRound: -1},
	}
	var rep *scenario.Report
	var err error
	bounded(t, "checkpoint-restore", 2*chaosDeadline, plan.Machine.FaultSeed, func() { rep, err = scenario.Run(plan) })
	if err != nil {
		// Not byte-exact, an untyped failure, a plan that never fired: all
		// come back as the run's error.
		t.Fatal(err)
	}
	if rep.TypedFailures == 0 {
		t.Error("the storm never produced a typed failure")
	}
	// A periodic checkpoint was captured before the crash, and the restart
	// resumed from it: the retained blob is a recovery.Snapshot whose
	// version is the coordinator's step, and a mismatch fails the run.
	if rep.Generations != 2 || rep.Resume <= 0 || rep.Checkpoints < 2 {
		t.Errorf("generations %d, resumed at step %d, %d checkpoints: want one restart from a periodic checkpoint",
			rep.Generations, rep.Resume, rep.Checkpoints)
	}
	if len(rep.Digests) != dims.Nodes() {
		t.Errorf("%d of %d tasks verified byte-exact", len(rep.Digests), dims.Nodes())
	}
}
