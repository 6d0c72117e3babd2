package integration

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/core"
	"pamigo/internal/machine"
	"pamigo/internal/recovery"
	"pamigo/internal/scenario"
	"pamigo/internal/torus"
)

// recoveryRing boots a self-healing machine, runs the ring workload with
// driver-managed relaunch in the usual job harness, and holds the
// recovery telemetry to the number of kills the plan fires. Unlike
// runNodeFaultJob, tasks here come BACK: a task goroutine returning on
// a crash is relaunched by the supervisor's OnRestore hook, resuming
// from the buddy replica's version, so the job's WaitGroup is owned by
// the driver, not machine.Run.
//
// The workload is a send ring: task t streams sequenced immediate sends
// to task (t+1) mod n until it has pushed target messages, checkpointing
// its send cursor every ckptEvery. Sends ride SendRetry, so a crashed
// successor stalls the predecessor until revival instead of failing the
// job — the transparent-retry contract under test.
func recoveryRing(t *testing.T, cfg machine.Config, kills int, target, ckptEvery uint64) *machine.Machine {
	t.Helper()
	var resumedFrom atomic.Int64 // highest checkpoint version a restore resumed from
	m := runMachineJob(t, "recovery", 4*chaosDeadline, cfg, func(m *machine.Machine) {
		ringJob(t, m, target, ckptEvery, &resumedFrom)
	})
	snap := m.Telemetry().Snapshot()
	if v, _ := snap.Counter("recovery.restores"); v < int64(kills) {
		t.Errorf("recovery.restores = %d, want >= %d", v, kills)
	}
	if g, ok := snap.Gauge("recovery.mttr_ns"); !ok || g.Value <= 0 {
		t.Errorf("recovery.mttr_ns = %+v, want a positive restore latency", g)
	}
	if v, _ := snap.Counter("recovery.checkpoints"); v == 0 {
		t.Error("no checkpoints were ever taken")
	}
	if got, want := m.Epoch(), int64(2*kills); got != want {
		t.Errorf("epoch = %d, want %d (+1 per death, +1 per revival)", got, want)
	}
	if resumedFrom.Load() == 0 {
		t.Error("every restore started from zero; expected at least one resume from a buddy checkpoint")
	}
	return m
}

// ringJob is recoveryRing's workload: it returns when every task has
// pushed its target sends.
func ringJob(t *testing.T, m *machine.Machine, target, ckptEvery uint64, resumedFrom *atomic.Int64) {
	sup := m.Recovery()
	if sup == nil {
		t.Error("Config.Recovery armed but Machine.Recovery() is nil")
		return
	}
	n, ppn := m.Tasks(), m.Config().PPN
	const disp = 7

	// One client + context per task, built up front and reused across the
	// task's incarnations (the context survives; the revival chain resets
	// the flows underneath it).
	ctxs := make([]*core.Context, n)
	recvd := make([]atomic.Int64, n)
	for task := 0; task < n; task++ {
		cl, err := core.NewClient(m, m.Task(task), "recovery")
		if err != nil {
			t.Error(err)
			return
		}
		cc, err := cl.CreateContexts(1)
		if err != nil {
			t.Error(err)
			return
		}
		task := task
		if err := cc[0].RegisterDispatch(disp, func(_ *core.Context, _ *core.Delivery) {
			recvd[task].Add(1)
		}); err != nil {
			t.Error(err)
			return
		}
		ctxs[task] = cc[0]
	}

	var wg sync.WaitGroup
	var done atomic.Int64 // tasks that pushed all target sends
	allDone := make(chan struct{})
	var closeOnce sync.Once

	var launch func(task int, start uint64)
	launch = func(task int, start uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := ctxs[task]
			dst := core.Endpoint{Task: (task + 1) % n}
			payload := make([]byte, 8)
			for cursor := start; cursor < target; cursor++ {
				if m.Crashed(task) {
					return // incarnation over; OnRestore relaunches
				}
				binary.LittleEndian.PutUint64(payload, cursor)
				err := ctx.SendRetry(dst.Task, 30*time.Second, func() error {
					return ctx.SendImmediate(dst, disp, nil, payload)
				})
				if err != nil {
					if m.Crashed(task) {
						return
					}
					panic(fmt.Sprintf("task %d cursor %d: %v", task, cursor, err))
				}
				sent := cursor + 1
				if sent%ckptEvery == 0 {
					state := make([]byte, 8)
					binary.LittleEndian.PutUint64(state, sent)
					if err := sup.Checkpoint(torus.Rank(task/ppn), sent, state); err != nil {
						panic(fmt.Sprintf("task %d checkpoint: %v", task, err))
					}
				}
				// Drain our own inbound queue and yield so every task makes
				// comparable progress — the pkt-counted crash must not fire
				// before the victim has taken its first checkpoint.
				ctx.AdvanceAuto()
				runtime.Gosched()
			}
			if done.Add(1) == int64(n) {
				closeOnce.Do(func() { close(allDone) })
			}
			// Keep draining our inbound queue until the whole ring is done,
			// or our predecessor throttles against a full reception FIFO.
			for {
				select {
				case <-allDone:
					return
				default:
				}
				if m.Crashed(task) {
					return
				}
				if ctx.AdvanceAuto() == 0 {
					runtime.Gosched()
				}
			}
		}()
	}

	sup.OnRestore(func(s *recovery.Snapshot) {
		start := uint64(0)
		if len(s.Data) == 8 {
			start = binary.LittleEndian.Uint64(s.Data)
		}
		for v := resumedFrom.Load(); int64(start) > v; v = resumedFrom.Load() {
			if resumedFrom.CompareAndSwap(v, int64(start)) {
				break
			}
		}
		for task := int(s.Node) * ppn; task < (int(s.Node)+1)*ppn; task++ {
			launch(task, start)
		}
	})

	for task := 0; task < n; task++ {
		launch(task, 0)
	}
	wg.Wait()
}

// TestRecoveryAutoReviveSingleKill is the basic self-healing round
// trip: one confirmed death, automatic fence → revive → restore, the
// victim resumes from its buddy checkpoint, the ring completes.
func TestRecoveryAutoReviveSingleKill(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 1,
		Faults:    mustPlan(t, "crash@pkt=600,node=2", dims),
		FaultSeed: 9,
		Recovery:  true,
	}
	scenario.FastDetect(&cfg)
	recoveryRing(t, cfg, 1, 400, 25)
}

// TestRecoveryChaosSoakSequentialKills is the in-process half of the
// chaos soak: three sequential kills of three different nodes in one
// run, each automatically recovered before the plan fires the next, the
// ring completing end to end. Run under -race by scripts/check.sh.
func TestRecoveryChaosSoakSequentialKills(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 1,
		Faults:    mustPlan(t, "crash@pkt=400,node=1,crash@pkt=1200,node=3,crash@pkt=2000,node=2", dims),
		FaultSeed: 17,
		Recovery:  true,
	}
	scenario.FastDetect(&cfg)
	recoveryRing(t, cfg, 3, 900, 25)
}

// TestRecoveryRepeatKillSameNode kills the same node twice: the second
// death must be detected and recovered like the first (ClearNodeFault
// leaves later plan entries armed; Revive re-arms the detector for the
// new incarnation).
func TestRecoveryRepeatKillSameNode(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 1,
		Faults:    mustPlan(t, "crash@pkt=250,node=1,crash@pkt=900,node=1", dims),
		FaultSeed: 5,
		Recovery:  true,
	}
	scenario.FastDetect(&cfg)
	recoveryRing(t, cfg, 2, 700, 20)
}
