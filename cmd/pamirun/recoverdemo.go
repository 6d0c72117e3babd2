package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/recovery"
	"pamigo/internal/torus"
	"pamigo/internal/wire"
)

// The self-healing demo (-recover=auto): an all-to-all digest workload
// over buddy-replicated in-memory checkpoints with *online* recovery —
// no whole-run quiescence, no generation reboot. Each task folds every
// task's deterministic per-round contribution into a running digest,
// checkpointing the (round, digest) pair every -buddy-interval rounds;
// the snapshot lands locally and on the buddy node in a different
// failure domain. When a node dies, the victim comes back (auto-revive
// in-process; respawn + wire rejoin across processes), restores from
// the buddy's replica, and replays forward — lost contributions are
// re-requested from their sources, which recompute them (they are pure
// functions of (round, src, dst), so replay needs no history buffers).
// Unaffected tasks never stop making progress.
//
// The final digest of every task is compared against the analytic
// fault-free value: a run with kills must end byte-exact with a run
// without them.
const (
	rcRounds    = 24 // digest rounds every task must fold
	rcLookahead = 2  // rounds a producer may run ahead of its own fold point

	rcDispSig    = 21 // contribution: meta = round u32, data = value u64
	rcDispReplay = 22 // replay request: meta = from-round u32
	rcDispDone   = 23 // completion announcement (wire mode)
)

// rcVal is task src's contribution payload for one round.
func rcVal(round, src int) uint64 {
	x := uint64(round+1)*0x9e3779b97f4a7c15 ^ uint64(src+1)*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// rcSigOf mixes a received contribution with its (round, src, dst)
// coordinates — the value actually folded into dst's digest, so a
// payload replayed under the wrong coordinates cannot verify.
func rcSigOf(round, src, dst int, val uint64) uint64 {
	return val ^ uint64(round+1)<<32 ^ uint64(src+1)<<16 ^ uint64(dst+1)
}

// rcExpectedDigest is the analytic fault-free digest for one task:
// rounds ascending, sources ascending, FNV-style fold.
func rcExpectedDigest(task, nTasks, rounds int) uint64 {
	dg := uint64(0)
	for r := 0; r < rounds; r++ {
		for src := 0; src < nTasks; src++ {
			dg = dg*1099511628211 ^ rcSigOf(r, src, task, rcVal(r, src))
		}
	}
	return dg
}

var errRCCrashed = errors.New("task crashed")

// rcTask is one task's run state. Every field is touched only from the
// task's own goroutine: dispatch handlers run inside its Advance calls,
// so no locks are needed.
type rcTask struct {
	m       *machine.Machine
	sup     *recovery.Supervisor
	ctx     *core.Context
	task    int
	nTasks  int
	ckEvery int
	verbose bool

	dieRound int // wire chaos: SIGKILL self at this round; -1 = never

	folded      int               // rounds folded into the digest
	digest      uint64            // the running digest
	sentThrough int               // rounds whose contribution we have produced
	got         map[[2]int]uint64 // (round, src) -> sig; insert-once, never deleted
	replayReq   map[int]int       // src -> from-round to re-send our contributions
	doneFrom    map[int]bool      // tasks that announced completion (wire mode)
	lastAsk     map[int]time.Time // per-source replay-request throttle
	lastDone    time.Time         // done-rebroadcast throttle
	completed   bool
	announced   bool
	idleStep    int64
}

func newRCTask(m *machine.Machine, ctx *core.Context, task, ckEvery, dieRound int, verbose bool) (*rcTask, error) {
	r := &rcTask{
		m: m, sup: m.Recovery(), ctx: ctx,
		task: task, nTasks: m.Tasks(), ckEvery: ckEvery, dieRound: dieRound, verbose: verbose,
		got:       make(map[[2]int]uint64),
		replayReq: make(map[int]int),
		doneFrom:  make(map[int]bool),
		lastAsk:   make(map[int]time.Time),
	}
	if err := ctx.RegisterDispatch(rcDispSig, func(_ *core.Context, d *core.Delivery) {
		if len(d.Meta) != 4 || len(d.Data) != 8 {
			return
		}
		round := int(binary.LittleEndian.Uint32(d.Meta))
		if round < r.folded || round >= rcRounds {
			return // already covered by the restored digest, or junk
		}
		key := [2]int{round, d.Origin.Task}
		if _, dup := r.got[key]; dup {
			return
		}
		r.got[key] = rcSigOf(round, d.Origin.Task, r.task, binary.LittleEndian.Uint64(d.Data))
	}); err != nil {
		return nil, err
	}
	if err := ctx.RegisterDispatch(rcDispReplay, func(_ *core.Context, d *core.Delivery) {
		if len(d.Meta) != 4 {
			return
		}
		from := int(binary.LittleEndian.Uint32(d.Meta))
		if cur, ok := r.replayReq[d.Origin.Task]; !ok || from < cur {
			r.replayReq[d.Origin.Task] = from
		}
	}); err != nil {
		return nil, err
	}
	if err := ctx.RegisterDispatch(rcDispDone, func(_ *core.Context, d *core.Delivery) {
		r.doneFrom[d.Origin.Task] = true
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// sendSig ships our round contribution to dst (self-delivery folds
// directly). Transient refusals and peer deaths ride SendRetry — a dead
// destination stalls this sender until the revival chain brings it
// back, which is exactly the online-recovery contract: no abort, no
// global quiescence, just one paused edge.
func (r *rcTask) sendSig(round, dst int) error {
	if dst == r.task {
		key := [2]int{round, r.task}
		if _, dup := r.got[key]; !dup && round >= r.folded {
			r.got[key] = rcSigOf(round, r.task, r.task, rcVal(round, r.task))
		}
		return nil
	}
	meta := make([]byte, 4)
	binary.LittleEndian.PutUint32(meta, uint32(round))
	data := make([]byte, 8)
	binary.LittleEndian.PutUint64(data, rcVal(round, r.task))
	return r.ctx.SendRetry(dst, 60*time.Second, func() error {
		return r.ctx.SendImmediate(core.Endpoint{Task: dst}, rcDispSig, meta, data)
	})
}

// serveReplay re-sends our contributions from each requested round on —
// recomputed, not remembered. Requests land in the dispatch handler;
// the sends happen here, on the poll loop, never from the handler.
func (r *rcTask) serveReplay() error {
	for src, from := range r.replayReq {
		delete(r.replayReq, src)
		for round := from; round < r.sentThrough; round++ {
			if err := r.sendSig(round, src); err != nil {
				return err
			}
		}
	}
	return nil
}

// produce sends the next round's contribution to every task, bounded by
// the lookahead so a fast producer cannot run away from a stalled
// folder (and so a kill loses at most lookahead rounds of its sends).
func (r *rcTask) produce() error {
	if r.sentThrough >= rcRounds || r.sentThrough >= r.folded+rcLookahead {
		return nil
	}
	round := r.sentThrough
	if r.dieRound >= 0 && round == r.dieRound {
		fmt.Printf("task %d reached round %d: SIGKILL self (pid %d)\n", r.task, round, os.Getpid())
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // the signal is not survivable; never fall through
	}
	for dst := 0; dst < r.nTasks; dst++ {
		if err := r.sendSig(round, dst); err != nil {
			return err
		}
	}
	r.sentThrough++
	return nil
}

// fold consumes completed rounds in order and checkpoints on the
// interval. The fold order (rounds ascending, sources ascending) is
// fixed, so the digest is byte-exact regardless of arrival order.
func (r *rcTask) fold() error {
	for r.folded < rcRounds {
		for src := 0; src < r.nTasks; src++ {
			if _, ok := r.got[[2]int{r.folded, src}]; !ok {
				return nil // round incomplete; askMissing chases it
			}
		}
		for src := 0; src < r.nTasks; src++ {
			r.digest = r.digest*1099511628211 ^ r.got[[2]int{r.folded, src}]
		}
		r.folded++
		if r.folded%r.ckEvery == 0 || r.folded == rcRounds {
			blob := make([]byte, 8)
			binary.LittleEndian.PutUint64(blob, r.digest)
			if err := r.sup.Checkpoint(torus.Rank(r.task), uint64(r.folded), blob); err != nil {
				return err
			}
		}
	}
	return nil
}

// askMissing requests replay of the round we are stuck on from every
// source that has not contributed it, throttled per source. Demand-
// driven in both directions: a restored victim asks for what it lost,
// and survivors ask a restored victim for the contributions its dead
// incarnation swallowed. Duplicate deliveries are insert-once no-ops.
func (r *rcTask) askMissing() error {
	if r.folded >= rcRounds {
		return nil
	}
	now := time.Now()
	meta := make([]byte, 4)
	binary.LittleEndian.PutUint32(meta, uint32(r.folded))
	for src := 0; src < r.nTasks; src++ {
		if src == r.task {
			continue
		}
		if _, ok := r.got[[2]int{r.folded, src}]; ok {
			continue
		}
		if now.Sub(r.lastAsk[src]) < 10*time.Millisecond {
			continue
		}
		r.lastAsk[src] = now
		if err := r.ctx.SendRetry(src, 60*time.Second, func() error {
			return r.ctx.SendImmediate(core.Endpoint{Task: src}, rcDispReplay, meta, nil)
		}); err != nil {
			return err
		}
	}
	return nil
}

// announceDone broadcasts completion (wire mode), re-broadcast on a
// throttle until every task has answered in kind. The broadcast goes to
// every live peer each time — never only to the ones we have not heard
// from, because a peer that finished a beat after us still needs OUR
// done even though we already hold its. And it never blocks on a dead
// peer: a cleanly exited peer has already delivered its done (its
// pre-exit quiesce guarantees the ack), and a crashed one will be asked
// again on the next throttled round after it rejoins.
func (r *rcTask) announceDone() error {
	if !r.announced {
		r.announced = true
		r.doneFrom[r.task] = true
	} else if time.Since(r.lastDone) < 20*time.Millisecond {
		return nil
	}
	r.lastDone = time.Now()
	for dst := 0; dst < r.nTasks; dst++ {
		if dst == r.task || !r.m.Alive(dst) {
			continue
		}
		err := r.ctx.SendImmediate(core.Endpoint{Task: dst}, rcDispDone, nil, nil)
		if err != nil && !core.Transient(err) && !core.Recoverable(err) {
			return err
		}
	}
	return nil
}

func (r *rcTask) allDone() bool {
	for t := 0; t < r.nTasks; t++ {
		if !r.doneFrom[t] {
			return false
		}
	}
	return true
}

// run drives the task from a resume point to completion. In-process
// (exchangeDone false) the driver owns global completion: onComplete
// fires once when this task folds out, and the task keeps draining its
// inbound queue until stop closes. Over the wire (exchangeDone true)
// completion is negotiated with done announcements, and the task drains
// the transport's unacked windows before returning so a fast exiter
// cannot turn a clean finish into a spurious peer death.
func (r *rcTask) run(start int, seedDigest uint64, exchangeDone bool, onComplete func(), stop <-chan struct{}) error {
	r.folded, r.digest, r.sentThrough = start, seedDigest, start
	r.completed, r.announced = false, false
	for {
		if r.m.Crashed(r.task) {
			return errRCCrashed
		}
		if err := r.serveReplay(); err != nil {
			return err
		}
		if err := r.produce(); err != nil {
			return err
		}
		if err := r.fold(); err != nil {
			return err
		}
		if err := r.askMissing(); err != nil {
			return err
		}
		if r.folded >= rcRounds && !r.completed {
			r.completed = true
			if onComplete != nil {
				onComplete()
			}
		}
		if exchangeDone && r.completed {
			if err := r.announceDone(); err != nil {
				return err
			}
			if r.allDone() {
				return r.quiesceWire()
			}
		}
		if !exchangeDone && r.completed {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		// An idle iteration must genuinely yield the CPU: on a small box
		// a bare busy-spin here starves this process's own heartbeat
		// writer (and, cross-process, the peer's) long enough to trip
		// the phi detector into a false mutual death.
		if r.ctx.AdvanceAuto() == 0 {
			r.idleStep++
			time.Sleep(fault.Jitter(int64(r.task), r.idleStep, 150*time.Microsecond))
		} else {
			runtime.Gosched()
		}
	}
}

// quiesceWire holds the task until the wire transport has no unacked
// frames in flight, pumping acks the whole time. Quiesced skips
// confirmed-dead peers, so this terminates even across a death.
func (r *rcTask) quiesceWire() error {
	w := r.m.Wire()
	if w == nil {
		return nil
	}
	for step := int64(1); w.Quiesced() != nil; step++ {
		r.ctx.AdvanceAuto()
		time.Sleep(fault.Jitter(r.m.Config().FaultSeed, int64(r.task)<<40|0x3e<<32|step, 100*time.Microsecond))
	}
	return nil
}

// runRecoverDemo is the single-process -recover=auto driver: the fault
// plan kills nodes mid-run, the supervisor auto-revives each victim
// online, the victim's task relaunches from the buddy replica, and
// every task's final digest must equal the analytic fault-free value.
func runRecoverDemo(cfg machine.Config, ckEvery int, verbose bool) error {
	if cfg.PPN != 1 {
		return fmt.Errorf("-recover=auto runs at -ppn 1 (one checkpoint domain per node)")
	}
	if cfg.Faults == nil || !cfg.Faults.HasNodeFaults() {
		return fmt.Errorf(`-recover=auto needs a node-fault plan to heal from, e.g. -faults "crash@pkt=600,node=2"`)
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 200 * time.Microsecond
	}
	if cfg.PhiThreshold == 0 {
		cfg.PhiThreshold = 6
	}
	cfg.Recovery = &recovery.Options{
		AutoRevive:  true,
		SettleDelay: 2 * time.Millisecond,
		Seed:        cfg.FaultSeed,
	}
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	sup := m.Recovery()
	n := m.Tasks()
	fmt.Printf("self-healing run armed: %d tasks, %d rounds, buddy checkpoint every %d round(s), node 0's buddy is node %d\n",
		n, rcRounds, ckEvery, sup.Buddy(0))

	// Clients, contexts, and task state are built once and survive each
	// task's crash/revive cycles: the revival chain resets the transport
	// state underneath them, and run() reseeds the digest cursor.
	rcs := make([]*rcTask, n)
	for task := 0; task < n; task++ {
		cl, err := core.NewClient(m, m.Task(task), "recoverdemo")
		if err != nil {
			return err
		}
		ctxs, err := cl.CreateContexts(1)
		if err != nil {
			return err
		}
		if rcs[task], err = newRCTask(m, ctxs[0], task, ckEvery, -1, verbose); err != nil {
			return err
		}
	}

	var mu sync.Mutex
	doneTasks := make(map[int]bool)
	digests := make(map[int]uint64)
	allDone := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()

	var launch func(task, resume int, seedDg uint64)
	launch = func(task, resume int, seedDg uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := rcs[task]
			err := rc.run(resume, seedDg, false, func() {
				mu.Lock()
				digests[task] = rc.digest
				if !doneTasks[task] {
					doneTasks[task] = true
					if len(doneTasks) == n {
						close(allDone)
					}
				}
				mu.Unlock()
			}, allDone)
			if errors.Is(err, errRCCrashed) {
				if verbose {
					fmt.Printf("task %d crashed with %d round(s) folded\n", task, rc.folded)
				}
				return // the supervisor's OnRestore relaunches it
			}
			if err != nil {
				panic(fmt.Sprintf("task %d: %v", task, err))
			}
		}()
	}

	sup.OnRestore(func(s *recovery.Snapshot) {
		resume, dg := 0, uint64(0)
		if s.Version > 0 && len(s.Data) == 8 {
			resume, dg = int(s.Version), binary.LittleEndian.Uint64(s.Data)
		}
		fmt.Printf("node %d restored from its buddy replica: resuming at round %d, %v into the run\n",
			s.Node, resume, time.Since(start).Round(time.Millisecond))
		launch(int(s.Node), resume, dg)
	})
	for task := 0; task < n; task++ {
		launch(task, 0, 0)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := m.Telemetry().Snapshot()
	restores, _ := snap.Counter("recovery.restores")
	ckpts, _ := snap.Counter("recovery.checkpoints")
	mttr, _ := snap.Gauge("recovery.mttr_ns")
	epoch := m.Epoch()
	m.Shutdown()

	if restores == 0 {
		return fmt.Errorf("the fault plan never killed a node (0 restores across %d rounds); lower the crash@pkt threshold", rcRounds)
	}
	for task := 0; task < n; task++ {
		want := rcExpectedDigest(task, n, rcRounds)
		if digests[task] != want {
			return fmt.Errorf("task %d digest %016x, want %016x — NOT byte-exact after recovery", task, digests[task], want)
		}
		if verbose {
			fmt.Printf("task %d digest %016x\n", task, digests[task])
		}
	}
	fmt.Printf("self-healed run passed in %v: %d restore(s), %d checkpoint(s), last MTTR %v, epoch %d, all %d digests byte-exact\n",
		elapsed.Round(time.Millisecond), restores, ckpts,
		time.Duration(mttr.Value).Round(10*time.Microsecond), epoch, n)
	return nil
}

// runWireRecover is the multi-process -recover=auto worker: the same
// digest workload with the partition spanning OS processes. A SIGKILLed
// process is relaunched by the -respawn supervisor with a bumped
// incarnation; it rejoins over the wire handshake (survivors revive its
// nodes and push the buddy replicas back), restores, and replays.
// Survivors never stop: their sends toward the dead range stall on
// SendRetry until the revival lands, then flow again.
func runWireRecover(cfg machine.Config, wf wireFlags, incarnation uint, ckEvery int, verbose bool) error {
	if cfg.PPN != 1 {
		return fmt.Errorf("-recover=auto runs at -ppn 1 (one checkpoint domain per node)")
	}
	if cfg.PhiThreshold == 0 {
		cfg.PhiThreshold = 10
	}
	cfg.HostedLo, cfg.HostedHi = wf.lo, wf.hi
	cfg.Wire = &wire.Options{
		Listen: wf.listen, Join: wf.join, Partition: wf.partition,
		Seed: cfg.FaultSeed, DropProb: wf.drop, CorruptProb: wf.corrupt,
		Incarnation: uint32(incarnation),
	}
	// AutoRevive stays off over the wire: recovery there is respawn +
	// rejoin, and the machine forces it off regardless.
	cfg.Recovery = &recovery.Options{Seed: cfg.FaultSeed}
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	defer m.Shutdown()
	if w := m.Wire(); w != nil && wf.listen != "" {
		fmt.Printf("wire listening on %s (hosting tasks [%d,%d), incarnation %d)\n", w.Addr(), wf.lo, wf.hi, incarnation)
	}
	if err := m.WaitWire(wireJoinTimeout); err != nil {
		return fmt.Errorf("assembling the wire partition: %w", err)
	}
	sup := m.Recovery()
	fmt.Printf("wire partition assembled: %d peer process(es), epoch %d\n", len(m.Wire().Peers()), m.Epoch())

	dieRound := wf.dieRound
	if incarnation > 0 {
		dieRound = -1 // die once; the spare incarnation must finish
	}

	// Contexts and dispatch handlers are registered BEFORE awaiting the
	// buddy replica: peers resume sending the moment the rejoin revives
	// this range, and inbound data must have a consumer or it wedges
	// the wire stream the replica itself arrives on (the handlers'
	// insert-once maps hold early contributions until the task starts).
	rcs := make(map[int]*rcTask)
	for task := wf.lo; task < wf.hi; task++ {
		cl, err := core.NewClient(m, m.Task(task), "recoverdemo")
		if err != nil {
			return err
		}
		ctxs, err := cl.CreateContexts(1)
		if err != nil {
			return err
		}
		rc, err := newRCTask(m, ctxs[0], task, ckEvery, dieRound, verbose)
		if err != nil {
			return err
		}
		rcs[task] = rc
	}

	// A respawned incarnation restores its hosted tasks from the buddy
	// replicas the survivors push during the rejoin handshake.
	resume := make(map[int]int)
	seedDg := make(map[int]uint64)
	if incarnation > 0 {
		for task := wf.lo; task < wf.hi; task++ {
			snap, err := sup.AwaitReplica(torus.Rank(task), 15*time.Second)
			if err != nil {
				return fmt.Errorf("restoring task %d from its buddy: %w", task, err)
			}
			if snap.Version > 0 && len(snap.Data) == 8 {
				resume[task] = int(snap.Version)
				seedDg[task] = binary.LittleEndian.Uint64(snap.Data)
			}
			fmt.Printf("task %d restored from its buddy replica: resuming at round %d\n", task, resume[task])
		}
	}

	start := time.Now()
	var mu sync.Mutex
	digests := make(map[int]uint64)
	var firstErr error
	m.Run(func(p *cnk.Process) {
		task := p.TaskRank()
		err := func() error {
			rc := rcs[task]
			if rc == nil {
				return fmt.Errorf("no workload prepared for hosted task %d", task)
			}
			if err := rc.run(resume[task], seedDg[task], true, nil, nil); err != nil {
				return err
			}
			mu.Lock()
			digests[task] = rc.digest
			mu.Unlock()
			return nil
		}()
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("task %d: %w", task, err)
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	elapsed := time.Since(start)

	nTasks := m.Tasks()
	for task := wf.lo; task < wf.hi; task++ {
		want := rcExpectedDigest(task, nTasks, rcRounds)
		if digests[task] != want {
			return fmt.Errorf("task %d digest %016x, want %016x — NOT byte-exact after recovery", task, digests[task], want)
		}
		if verbose {
			fmt.Printf("task %d digest %016x\n", task, digests[task])
		}
	}
	snap := m.Telemetry().Snapshot()
	restores, _ := snap.Counter("recovery.restores")
	ckpts, _ := snap.Counter("recovery.checkpoints")
	mttr, _ := snap.Gauge("recovery.mttr_ns")
	fmt.Printf("wire self-heal passed in %v: tasks [%d,%d) byte-exact, %d restore(s) observed here, %d checkpoint(s), last MTTR %v, epoch %d\n",
		elapsed.Round(time.Millisecond), wf.lo, wf.hi, restores, ckpts,
		time.Duration(mttr.Value).Round(10*time.Microsecond), m.Epoch())
	if wf.stats {
		printStats(m)
	}
	return nil
}

// runRespawnSupervisor is the -respawn parent: it launches this same
// binary as a worker (minus the -respawn flag, plus an -incarnation
// tag) and relaunches it with a bumped incarnation every time it dies
// to a signal, up to -spares times. A clean exit ends the job; a
// non-signal failure (e.g. a digest mismatch) propagates instead of
// respawning, because restarting cannot fix a wrong answer.
func runRespawnSupervisor(spares int) error {
	if spares < 0 {
		return fmt.Errorf("-spares %d: the respawn budget cannot be negative", spares)
	}
	args := os.Args[1:]
	listen, err := resolveListenAddr(findFlagValue(args, "listen"))
	if err != nil {
		return fmt.Errorf("pinning the worker listen address: %w", err)
	}
	for inc := 0; ; inc++ {
		cmd := exec.Command(os.Args[0], rewriteWorkerArgs(args, listen, inc)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("launching worker incarnation %d: %w", inc, err)
		}
		fmt.Printf("respawn: worker pid %d running as incarnation %d\n", cmd.Process.Pid, inc)
		err := cmd.Wait()
		if err == nil {
			fmt.Printf("respawn: worker finished cleanly after %d respawn(s)\n", inc)
			return nil
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				if inc >= spares {
					return fmt.Errorf("worker incarnation %d killed by %v and the -spares budget (%d) is exhausted", inc, ws.Signal(), spares)
				}
				fmt.Printf("respawn: worker pid %d killed by %v; relaunching as incarnation %d (%d spare(s) left)\n",
					cmd.Process.Pid, ws.Signal(), inc+1, spares-inc-1)
				continue
			}
		}
		return fmt.Errorf("worker incarnation %d failed (not a kill, not respawning): %w", inc, err)
	}
}

// resolveListenAddr pins a kernel-assigned port up front: every
// respawned incarnation must rebind the same address, or the survivors'
// redial loop points at a listener that no longer exists.
func resolveListenAddr(listen string) (string, error) {
	if listen == "" || strings.HasPrefix(listen, "unix:") {
		return listen, nil
	}
	_, port, err := net.SplitHostPort(listen)
	if err != nil || port != "0" {
		return listen, nil
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// rewriteWorkerArgs turns the supervisor's own argument list into the
// worker's: -respawn dropped, -listen pinned, -die-round kept only for
// incarnation 0 (the worker dies once; the spare must finish), and the
// incarnation appended so the wire handshake can fence the dead range.
// Both "-flag=value" and "-flag value" spellings are handled.
func rewriteWorkerArgs(args []string, listen string, inc int) []string {
	out := make([]string, 0, len(args)+1)
	skip := false
	for _, a := range args {
		if skip {
			skip = false
			continue
		}
		name, hasValue := splitFlagArg(a)
		switch name {
		case "respawn": // bool: a bare flag never consumes the next token
		case "incarnation":
			skip = !hasValue
		case "die-round":
			if inc > 0 {
				skip = !hasValue
			} else {
				out = append(out, a)
			}
		case "listen":
			if listen != "" {
				out = append(out, "-listen="+listen)
			}
			skip = !hasValue
		default:
			out = append(out, a)
		}
	}
	return append(out, fmt.Sprintf("-incarnation=%d", inc))
}

func splitFlagArg(a string) (name string, hasValue bool) {
	if !strings.HasPrefix(a, "-") {
		return "", false
	}
	s := strings.TrimLeft(a, "-")
	if i := strings.IndexByte(s, '='); i >= 0 {
		return s[:i], true
	}
	return s, false
}

// findFlagValue digs a flag's value out of a raw argument list without
// a flag.FlagSet (the supervisor must not consume the worker's flags).
func findFlagValue(args []string, flagName string) string {
	for i, a := range args {
		name, hasValue := splitFlagArg(a)
		if name != flagName {
			continue
		}
		if hasValue {
			s := strings.TrimLeft(a, "-")
			return s[strings.IndexByte(s, '=')+1:]
		}
		if i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}
