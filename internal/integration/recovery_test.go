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

// recoveryRing boots a self-healing machine, runs the ring workload in
// the usual job harness, and holds the recovery telemetry to the number
// of kills the plan fires. Unlike runNodeFaultJob, tasks here come BACK:
// a task's goroutine that finds its node crashed (or restored under it)
// takes the restore the supervisor publishes and resumes in place from
// the buddy replica's version, so the job's WaitGroup is ringJob's, not
// machine.Run's.
//
// The workload is a send ring: task t streams sequenced immediate sends
// to task (t+1) mod n until it has pushed target messages, checkpointing
// its send cursor every ckptEvery. Sends ride SendRetry, so a crashed
// successor stalls the predecessor until revival instead of failing the
// job — the transparent-retry contract under test.
func recoveryRing(t *testing.T, cfg machine.Config, kills int, target, ckptEvery uint64) *machine.Machine {
	t.Helper()
	var resumedFrom uint64
	m := runMachineJob(t, "recovery", 4*chaosDeadline, cfg, func(m *machine.Machine) {
		resumedFrom = ringJob(t, m, target, ckptEvery)
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
	if resumedFrom == 0 {
		t.Error("every restore started from zero; expected at least one resume from a buddy checkpoint")
	}
	return m
}

// ringHoldHook, when set, runs in a ring task's goroutine at the top of
// every step, after the last use of its context and before the check
// that the task still runs from its node's latest restore: a test holds
// a victim there across a whole crash and revival.
var ringHoldHook func(r *ring, task int, cursor uint64)

// ringDispatch is the ring's one dispatch ID.
const ringDispatch = 7

// ring is ringJob's shared state.
type ring struct {
	m                 *machine.Machine
	sup               *recovery.Supervisor
	n, ppn            int
	target, ckptEvery uint64
	ctxs              []*core.Context
	recvd             []atomic.Int64 // deliveries each task's context dispatched
	resumedFrom       atomic.Uint64  // highest checkpoint version a restore resumed from
	checkpointed      atomic.Int64   // tasks past their first checkpoint
	done              atomic.Int64   // tasks that pushed all target sends
	allDone           chan struct{}
}

// ringJob is recoveryRing's workload: it returns, with the highest
// checkpoint version a restore resumed from, when every task has pushed
// its target sends.
func ringJob(t *testing.T, m *machine.Machine, target, ckptEvery uint64) uint64 {
	r := &ring{
		m: m, sup: m.Recovery(), n: m.Tasks(), ppn: m.Config().PPN,
		target: target, ckptEvery: ckptEvery,
		allDone: make(chan struct{}),
	}
	if r.sup == nil {
		t.Error("Config.Recovery armed but Machine.Recovery() is nil")
		return 0
	}
	// One client + context per task, built up front and kept across the
	// task's crashes (the context survives; the revival chain resets the
	// flows underneath it).
	r.ctxs = make([]*core.Context, r.n)
	r.recvd = make([]atomic.Int64, r.n)
	for task := 0; task < r.n; task++ {
		cl, err := core.NewClient(m, m.Task(task), "recovery")
		if err != nil {
			t.Error(err)
			return 0
		}
		cc, err := cl.CreateContexts(1)
		if err != nil {
			t.Error(err)
			return 0
		}
		if err := cc[0].RegisterDispatch(ringDispatch, func(_ *core.Context, _ *core.Delivery) {
			r.recvd[task].Add(1)
		}); err != nil {
			t.Error(err)
			return 0
		}
		r.ctxs[task] = cc[0]
	}
	var wg sync.WaitGroup
	for task := 0; task < r.n; task++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(task)
		}()
	}
	wg.Wait()
	return r.resumedFrom.Load()
}

// run is one task's goroutine for the whole job: it streams its sends,
// and whenever its node has crashed, or has been restored since the
// restore it runs from, it takes the node's latest restore and streams
// on from that checkpoint. Nothing else drives the task's context.
func (r *ring) run(task int) {
	ctx := r.ctxs[task]
	node := torus.Rank(task / r.ppn)
	dst := core.Endpoint{Task: (task + 1) % r.n}
	payload := make([]byte, 8)
	var cursor, seen uint64 // next send; restores of node resumed from
	finished := false
	for {
		if hook := ringHoldHook; hook != nil {
			hook(r, task, cursor)
		}
		select {
		case <-r.allDone:
			return
		default:
		}
		if r.m.Crashed(task) || r.sup.Restores(node) != seen {
			snap, n, err := r.sup.AwaitRestore(node, seen, 30*time.Second)
			if err != nil {
				panic(fmt.Sprintf("task %d: %v", task, err))
			}
			seen, cursor = n, 0
			if len(snap.Data) == 8 {
				cursor = binary.LittleEndian.Uint64(snap.Data)
			}
			for v := r.resumedFrom.Load(); cursor > v; v = r.resumedFrom.Load() {
				if r.resumedFrom.CompareAndSwap(v, cursor) {
					break
				}
			}
			continue
		}
		if cursor == r.target {
			if !finished {
				finished = true
				if r.done.Add(1) == int64(r.n) {
					close(r.allDone)
				}
			}
			// Keep draining our inbound queue until the whole ring is
			// done, or our predecessor throttles against a full
			// reception FIFO.
			if ctx.AdvanceAuto() == 0 {
				runtime.Gosched()
			}
			continue
		}
		binary.LittleEndian.PutUint64(payload, cursor)
		err := ctx.SendRetry(dst.Task, 30*time.Second, func() error {
			return ctx.SendImmediate(dst, ringDispatch, nil, payload)
		})
		if err != nil {
			if r.m.Crashed(task) || r.sup.Restores(node) != seen {
				continue
			}
			panic(fmt.Sprintf("task %d cursor %d: %v", task, cursor, err))
		}
		cursor++
		if cursor%r.ckptEvery == 0 {
			state := make([]byte, 8)
			binary.LittleEndian.PutUint64(state, cursor)
			if err := r.sup.Checkpoint(node, cursor, state); err != nil {
				panic(fmt.Sprintf("task %d checkpoint: %v", task, err))
			}
			if cursor == r.ckptEvery && seen == 0 {
				r.firstCheckpoint(ctx)
			}
		}
		// Drain our own inbound queue and yield so every task makes
		// comparable progress.
		ctx.AdvanceAuto()
		runtime.Gosched()
	}
}

// firstCheckpoint holds a task at its first checkpoint until every task
// has taken one, draining its inbound queue meanwhile. Until then at
// most n × ckptEvery packets move, so a crash the plan fires later than
// that always finds its victim with a checkpoint to resume from.
func (r *ring) firstCheckpoint(ctx *core.Context) {
	r.checkpointed.Add(1)
	for r.checkpointed.Load() < int64(r.n) {
		if ctx.AdvanceAuto() == 0 {
			runtime.Gosched()
		}
	}
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

// TestRecoveryVictimResumesInPlace holds the victim's goroutine between
// its last use of its context and its next restore check for the whole
// of a crash and revival. No other goroutine may drive the victim's
// context in that window — a context has one advancer (paper §III.B),
// and recovery starts no goroutine for a restored task — and once
// released the victim resumes from the restore the supervisor published.
func TestRecoveryVictimResumesInPlace(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	const victim, ckptEvery = 2, 25
	cfg := machine.Config{
		Dims: dims, PPN: 1,
		Faults:    mustPlan(t, "crash@pkt=300,node=2", dims),
		FaultSeed: 9,
		Recovery:  true,
	}
	scenario.FastDetect(&cfg)
	var held atomic.Bool
	ringHoldHook = func(r *ring, task int, cursor uint64) {
		// Right after the victim's first checkpoint, which every task
		// has passed: the crash at packet 300 is still to come.
		if task != victim || cursor != ckptEvery || !held.CompareAndSwap(false, true) {
			return
		}
		before := r.recvd[victim].Load()
		deadline := time.Now().Add(10 * time.Second)
		for r.m.Epoch() < 2 { // the death confirmed, then the revival
			if time.Now().After(deadline) {
				t.Errorf("node %d was not crashed and revived within 10s of holding its task", victim)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		// A relaunched goroutine would drain the victim's reception FIFO
		// within microseconds; give one ample time to show itself.
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
			if got := r.recvd[victim].Load(); got != before {
				t.Errorf("task %d's context dispatched %d message(s) while its goroutine was held: another goroutine advanced it",
					victim, got-before)
				return
			}
		}
	}
	t.Cleanup(func() { ringHoldHook = nil })
	m := recoveryRing(t, cfg, 1, 400, ckptEvery)
	if !held.Load() {
		t.Fatal("the victim never reached its first checkpoint")
	}
	if n := m.Recovery().Restores(victim); n != 1 {
		t.Errorf("node %d restored %d times, want 1", victim, n)
	}
}
