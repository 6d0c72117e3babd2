package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/recovery"
	"pamigo/internal/torus"
)

// The online policy: the exchange over buddy-replicated in-memory
// checkpoints with no whole-run quiescence and no generation reboot. Each
// task folds every task's per-round contribution into its digest and
// checkpoints the (round, digest) pair every BuddyInterval rounds; the
// snapshot lands locally and on the buddy node in a different failure
// domain. When a node dies the victim comes back — auto-revived in one
// process, respawned and rejoined over the wire across processes —
// restores from the buddy's replica and replays forward: lost
// contributions are re-requested from their sources, which recompute them
// (they are pure functions of (round, src, dst), so replay needs no
// history buffers). Unaffected tasks never stop making progress, and
// every task's final digest must equal the analytic fault-free value.
const (
	onlineRounds = 24 // rounds every task must fold
	lookahead    = 2  // rounds a producer may run ahead of its own fold point

	dispSig    = 21 // contribution: meta = round u32, data = payload
	dispReplay = 22 // replay request: meta = from-round u32
	dispDone   = 23 // completion announcement (across processes)
)

// onlineJob is what one machine's tasks share.
type onlineJob struct {
	*run
	m   *machine.Machine
	sup *recovery.Supervisor
	die int

	mu       sync.Mutex
	digests  map[int]uint64 // final digest of every task that folded out
	finished chan struct{}  // closed once every hosted task has
	failure  error          // first untyped task failure
	aborted  chan struct{}  // closed with it: release the rest
}

func (o *onlineJob) taskDone(task int, digest uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, again := o.digests[task]; !again && len(o.digests) == o.hi-o.lo-1 {
		close(o.finished)
	}
	o.digests[task] = digest
}

func (o *onlineJob) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.failure == nil {
		o.failure = err
		close(o.aborted)
	}
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// onlineTask is one task's run state. It is built once and survives the
// task's crash/revive cycles (the revival chain resets the transport
// state underneath its context, and run reseeds the cursors). Every field
// is touched only from the task's one goroutine: dispatch handlers run
// inside its Advance calls, so no locks are needed.
type onlineTask struct {
	o    *onlineJob
	ctx  *core.Context
	task int

	folded      int               // rounds folded into the digest
	digest      uint64            // the running digest
	sentThrough int               // rounds whose contribution we have produced
	got         map[[2]int]uint64 // (round, src) -> signature; insert-once, never deleted
	replayReq   map[int]int       // src -> from-round to re-send our contributions
	doneFrom    map[int]bool      // tasks that announced completion (across processes)
	lastAsk     map[int]time.Time // per-source replay-request throttle
	lastDone    time.Time         // done-rebroadcast throttle; zero = not announced yet
	completed   bool
	idleStep    int64
}

func newOnlineTask(o *onlineJob, ctx *core.Context, task int) (*onlineTask, error) {
	t := &onlineTask{
		o: o, ctx: ctx, task: task,
		got:       make(map[[2]int]uint64),
		replayReq: make(map[int]int),
		doneFrom:  make(map[int]bool),
		lastAsk:   make(map[int]time.Time),
	}
	handlers := map[uint16]core.DispatchFn{
		dispSig: func(_ *core.Context, d *core.Delivery) {
			if len(d.Meta) != 4 {
				return
			}
			round := int(binary.LittleEndian.Uint32(d.Meta))
			if round < t.folded || round >= onlineRounds {
				return // already covered by the restored digest, or junk
			}
			if !t.has(round, d.Origin.Task) {
				t.got[[2]int{round, d.Origin.Task}] = sigOf(round, d.Origin.Task, t.task, d.Data)
			}
		},
		dispReplay: func(_ *core.Context, d *core.Delivery) {
			if len(d.Meta) != 4 {
				return
			}
			from := int(binary.LittleEndian.Uint32(d.Meta))
			if cur, ok := t.replayReq[d.Origin.Task]; !ok || from < cur {
				t.replayReq[d.Origin.Task] = from
			}
		},
		dispDone: func(_ *core.Context, d *core.Delivery) { t.doneFrom[d.Origin.Task] = true },
	}
	for id, fn := range handlers {
		if err := ctx.RegisterDispatch(id, fn); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *onlineTask) has(round, src int) bool {
	_, ok := t.got[[2]int{round, src}]
	return ok
}

func roundMeta(round int) []byte {
	meta := make([]byte, 4)
	binary.LittleEndian.PutUint32(meta, uint32(round))
	return meta
}

// sendSig ships our round contribution to dst (self-delivery folds
// directly). A dead destination stalls this sender inside send until the
// revival chain brings it back, which is exactly the online-recovery
// contract: no abort, no global quiescence, just one paused edge.
func (t *onlineTask) sendSig(round, dst int) error {
	if dst == t.task {
		if !t.has(round, t.task) && round >= t.folded {
			t.got[[2]int{round, t.task}] = sig(round, t.task, t.task)
		}
		return nil
	}
	return send(t.ctx, dst, dispSig, roundMeta(round), payload(round, t.task, dst))
}

// serveReplay re-sends our contributions from each requested round on —
// recomputed, not remembered. Requests land in the dispatch handler; the
// sends happen here, on the poll loop, never from the handler.
func (t *onlineTask) serveReplay() error {
	for src, from := range t.replayReq {
		delete(t.replayReq, src)
		for round := from; round < t.sentThrough; round++ {
			if err := t.sendSig(round, src); err != nil {
				return err
			}
		}
	}
	return nil
}

// produce sends the next round's contribution to every task, bounded by
// the lookahead so a fast producer cannot run away from a stalled folder
// (and so a kill loses at most lookahead rounds of its sends).
func (t *onlineTask) produce() error {
	if t.sentThrough >= onlineRounds || t.sentThrough >= t.folded+lookahead {
		return nil
	}
	t.o.dieAt(t.task, t.sentThrough, t.o.die)
	for dst := 0; dst < t.o.nTasks; dst++ {
		if err := t.sendSig(t.sentThrough, dst); err != nil {
			return err
		}
	}
	t.sentThrough++
	return nil
}

// fold consumes completed rounds in order and checkpoints on the
// interval. The fold order does not depend on the arrival order, so the
// digest is byte-exact however the replay interleaves.
func (t *onlineTask) fold() error {
	for t.folded < onlineRounds {
		for src := 0; src < t.o.nTasks; src++ {
			if !t.has(t.folded, src) {
				return nil // round incomplete; askMissing chases it
			}
		}
		for src := 0; src < t.o.nTasks; src++ {
			t.digest += t.got[[2]int{t.folded, src}]
		}
		t.folded++
		if t.folded%t.o.BuddyInterval == 0 || t.folded == onlineRounds {
			err := t.o.sup.Checkpoint(torus.Rank(t.task), uint64(t.folded), encodeWords([]uint64{t.digest}))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// askMissing requests replay of the round we are stuck on from every
// source that has not contributed it, throttled per source. Demand-driven
// in both directions: a restored victim asks for what it lost, and
// survivors ask a restored victim for the contributions its dead
// incarnation swallowed. Duplicate deliveries are insert-once no-ops.
func (t *onlineTask) askMissing() error {
	if t.folded >= onlineRounds {
		return nil
	}
	now := time.Now()
	for src := 0; src < t.o.nTasks; src++ {
		if src == t.task || t.has(t.folded, src) || now.Sub(t.lastAsk[src]) < 10*time.Millisecond {
			continue
		}
		t.lastAsk[src] = now
		if err := send(t.ctx, src, dispReplay, roundMeta(t.folded), nil); err != nil {
			return err
		}
	}
	return nil
}

// announceDone broadcasts completion (across processes), re-broadcast on
// a throttle until every task has answered in kind. The broadcast goes to
// every live peer each time — never only to the ones we have not heard
// from, because a peer that finished a beat after us still needs OUR done
// even though we already hold its. And it never blocks on a dead peer: a
// cleanly exited peer has already delivered its done (its pre-exit settle
// guarantees the ack), and a crashed one will be asked again on the next
// throttled round after it rejoins.
func (t *onlineTask) announceDone() (all bool, err error) {
	if time.Since(t.lastDone) >= 20*time.Millisecond {
		t.doneFrom[t.task], t.lastDone = true, time.Now()
		for dst := 0; dst < t.o.nTasks; dst++ {
			if dst == t.task || !t.o.m.Alive(dst) {
				continue
			}
			err := t.ctx.SendImmediate(core.Endpoint{Task: dst}, dispDone, nil, nil)
			if err != nil && !core.Transient(err) && !core.Recoverable(err) {
				return false, err
			}
		}
	}
	for dst := 0; dst < t.o.nTasks; dst++ {
		if !t.doneFrom[dst] {
			return false, nil
		}
	}
	return true, nil
}

// run drives the task from a resume point to completion. In one process
// the job owns global completion: the task keeps draining its inbound
// queue until every task has folded out. Across processes completion is
// negotiated with done announcements, and the task settles the wire
// before returning so a fast exiter cannot turn a clean finish into a
// spurious peer death. It returns errCrashed once the task's node has
// crashed or been restored since the seen-th restore.
func (t *onlineTask) run(start int, seed, seen uint64) error {
	t.folded, t.digest, t.sentThrough = start, seed, start
	t.completed, t.lastDone = false, time.Time{}
	for !closed(t.o.aborted) {
		if t.o.m.Crashed(t.task) || t.o.sup.Restores(torus.Rank(t.task)) != seen {
			return errCrashed
		}
		err := t.serveReplay()
		if err == nil {
			err = t.produce()
		}
		if err == nil {
			err = t.fold()
		}
		if err == nil {
			err = t.askMissing()
		}
		if err != nil {
			return err
		}
		if t.folded >= onlineRounds && !t.completed {
			t.completed = true
			t.o.taskDone(t.task, t.digest)
		}
		switch {
		case !t.completed:
		case !t.o.Span.wired():
			if closed(t.o.finished) {
				return nil
			}
		default:
			if all, err := t.announceDone(); err != nil {
				return err
			} else if all {
				t.o.settleWire(t.o.m, t.ctx, t.task)
				return nil
			}
		}
		// An idle iteration must genuinely yield the CPU: on a small box a
		// bare busy-spin here starves this process's own heartbeat writer
		// (and, cross-process, the peer's) long enough to trip the phi
		// detector into a false mutual death.
		if t.ctx.AdvanceAuto() == 0 {
			t.idleStep++
			time.Sleep(fault.Jitter(int64(t.task), t.idleStep, 150*time.Microsecond))
		} else {
			runtime.Gosched()
		}
	}
	return nil
}

// resumePoint reads a buddy replica: the round to resume at and the
// digest up to it. A version-0 snapshot — the victim died before its
// first checkpoint — starts from scratch.
func resumePoint(s *recovery.Snapshot) (round int, digest uint64) {
	if words, err := decodeWords(s.Data); err == nil && len(words) == 1 && s.Version > 0 {
		return int(s.Version), words[0]
	}
	return 0, 0
}

// host runs one hosted task for the whole run: run, and whenever its
// node crashes or is restored under it, take the node's latest restore
// and run again from it. A respawned incarnation starts by taking the
// buddy replica the rejoin pushes.
func (o *onlineJob) host(t *onlineTask) error {
	node := torus.Rank(t.task)
	round, digest, seen := 0, uint64(0), uint64(0)
	for restored := o.Span.Incarnation > 0; ; restored = true {
		if restored {
			snap, n, err := o.sup.AwaitRestore(node, seen, 15*time.Second)
			if err != nil {
				return fmt.Errorf("restoring from its buddy: %w", err)
			}
			seen = n
			round, digest = resumePoint(snap)
			o.mu.Lock()
			o.rep.Resume = round
			o.mu.Unlock()
			o.logf("task %d restored from its buddy replica: resuming at round %d", t.task, round)
		}
		if err := t.run(round, digest, seen); !errors.Is(err, errCrashed) {
			return err
		}
		if o.Verbose {
			o.logf("task %d crashed with %d round(s) folded", t.task, t.folded)
		}
	}
}

// online boots the self-healing machine and runs the exchange on it. In
// one process the fault plan kills nodes mid-run, the supervisor
// auto-revives each victim, and the victim's task resumes from the
// buddy replica in its own goroutine. Across processes a SIGKILLed
// process is relaunched by the respawn supervisor with a bumped
// incarnation; it rejoins over the wire handshake (the survivors revive
// its nodes and push the buddy replicas back), restores, and replays,
// while the survivors' sends toward the dead range stall until the
// revival lands, then flow again.
func (r *run) online() error {
	cfg := r.Machine
	wired := r.Span.wired()
	// Over the wire recovery is respawn + rejoin; the machine hands the
	// supervisor no in-process revive there.
	cfg.Recovery = true
	m, err := r.boot(cfg, nil)
	if err != nil {
		return err
	}
	defer m.Shutdown()
	o := &onlineJob{
		run: r, m: m, sup: m.Recovery(), die: r.Span.DieRound,
		digests: make(map[int]uint64), finished: make(chan struct{}), aborted: make(chan struct{}),
	}
	if r.Span.Incarnation > 0 {
		o.die = -1 // die once; the spare incarnation must finish
	}
	r.logf("self-healing run armed: %d tasks, %d rounds, buddy checkpoint every %d round(s), node %d's buddy is node %d",
		r.nTasks, onlineRounds, r.BuddyInterval, r.lo, o.sup.Buddy(torus.Rank(r.lo)))

	// Contexts and dispatch handlers exist BEFORE a respawned incarnation
	// awaits its buddy replica: peers resume sending the moment the rejoin
	// revives this range, and inbound data must have a consumer or it
	// wedges the wire stream the replica itself arrives on (the handlers'
	// insert-once maps hold early contributions until the task starts).
	ctxs, err := r.contexts(m, "scenario")
	if err != nil {
		return err
	}
	tasks := make([]*onlineTask, len(ctxs))
	for i, ctx := range ctxs {
		if tasks[i], err = newOnlineTask(o, ctx, r.lo+i); err != nil {
			return err
		}
	}

	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := o.host(t); err != nil {
				o.fail(fmt.Errorf("task %d: %w", t.task, err))
			}
		}()
	}
	wg.Wait()
	if o.failure != nil {
		return o.failure
	}

	snap := m.Telemetry().Snapshot()
	restores, _ := snap.Counter("recovery.restores")
	ckpts, _ := snap.Counter("recovery.checkpoints")
	mttr, _ := snap.Gauge("recovery.mttr_ns")
	r.rep.Restores, r.rep.Checkpoints = int(restores), int(ckpts)
	r.rep.MTTR, r.rep.Epoch = time.Duration(mttr.Value), m.Epoch()
	if restores == 0 && !wired {
		return fmt.Errorf("the fault plan never killed a node (0 restores across %d rounds); lower the crash@pkt threshold", onlineRounds)
	}
	return r.verify("self-heal",
		func(task int) []uint64 { return []uint64{o.digests[task]} },
		func(task int) []uint64 { return []uint64{expectedDigest(task, onlineRounds, fullMembership(r.nTasks))} },
		fmt.Sprintf("%d restore(s) observed here, %d checkpoint(s), last MTTR %v, epoch %d",
			restores, ckpts, r.rep.MTTR.Round(10*time.Microsecond), m.Epoch()))
}
