package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/recovery"
	"pamigo/internal/torus"
)

// The restart policy: a bulk-synchronous job that quiesces and
// checkpoints every few rounds. When a node or a peer process dies
// mid-run, the survivors confirm the death through heartbeat silence,
// fail over with typed errors, and the whole generation — machine,
// transports, task goroutines — is torn down and booted again from the
// last checkpoint: transports start clean (quiescence at capture time
// means there is nothing to replay), nodes this process hosts come back
// repaired, nodes of a dead peer process stay dead, and the remaining
// rounds run among the members that are left — still byte-exact against
// the analytic expectation for that membership history.

// bulk is what the policy needs of a workload: a fixed number of rounds,
// a fixed-width word state per task, a round body, and the analytic
// answer.
type bulk struct {
	what   string // names the run in the summary line
	rounds int
	every  int // checkpoint interval in rounds
	width  int // state words per task
	// join prepares one task on a fresh generation and returns its round
	// body, which folds round r's outcome into state.
	join func(g *generation, ctx *core.Context, task int) (func(r int, state []uint64) error, error)
	// expected is one task's state after every round under the given
	// membership history.
	expected func(task int, segs []segment) []uint64
}

const (
	dispContrib = 1 // exchange contribution: meta = (generation, round), data = payload
	dispOffer   = 2 // recovery negotiation: meta = (generation, resume round)

	allreduceWords = 256 // 2 KiB on the wire
	allreduceSteps = 128
)

var allreduceJob = bulk{
	what: "crash recovery", rounds: allreduceSteps, every: 4, width: allreduceWords,
	join: joinAllreduce,
	expected: func(_ int, segs []segment) []uint64 {
		sum, tmp := make([]uint64, allreduceWords), make([]uint64, allreduceWords)
		for step := 0; step < allreduceSteps; step++ {
			for _, rank := range aliveAt(segs, step) {
				contribution(tmp, step, rank)
				for w, v := range tmp {
					sum[w] += v
				}
			}
		}
		return sum
	},
}

var exchangeJob = bulk{
	what: "wire shakedown", rounds: ExchangeRounds, every: 4, width: 1,
	join: joinExchange,
	expected: func(task int, segs []segment) []uint64 {
		return []uint64{expectedDigest(task, ExchangeRounds, segs)}
	},
}

// contribution fills dst with rank's deterministic addend for one step.
func contribution(dst []uint64, step, rank int) {
	for w := range dst {
		dst[w] = uint64(step+1)*2654435761 ^ uint64(rank+1)*40503 ^ uint64(w)*9176
	}
}

// joinAllreduce attaches the task to an all-tasks geometry that is left
// unoptimized: the collectives then take the software path over MU
// packets, which keeps the injector's packet counter (it arms crash@pkt)
// advancing and exercises the epoch-aware cancellation of a software
// collective's waits.
func joinAllreduce(g *generation, ctx *core.Context, _ int) (func(int, []uint64) error, error) {
	tasks := make([]int, g.job.nTasks)
	for i := range tasks {
		tasks[i] = i
	}
	geo, err := ctx.Client().CreateGeometry(ctx, 1, tasks)
	if err != nil {
		return nil, err
	}
	mine := make([]uint64, allreduceWords)
	recv := make([]byte, allreduceWords*8)
	return func(step int, state []uint64) error {
		contribution(mine, step, geo.Rank())
		if err := geo.Allreduce(encodeWords(mine), recv, collnet.OpAdd, collnet.Uint64); err != nil {
			return err
		}
		sum, _ := decodeWords(recv) // whole words by construction
		for w, v := range sum {
			state[w] += v
		}
		return nil
	}, nil
}

// joinExchange registers the task's round ledger — what each member
// contributed, keyed by generation so rolled-back traffic can never be
// counted twice; only the task's own goroutine advances its context, so
// the handler needs no lock. The round doubles as the barrier: a task
// enters round r+1 only after hearing round r from every live member,
// which bounds how far ahead any peer can run to one round.
func joinExchange(g *generation, ctx *core.Context, task int) (func(int, []uint64) error, error) {
	type key struct{ gen, round, src int }
	sigs := make(map[key]uint64)
	err := ctx.RegisterDispatch(dispContrib, func(_ *core.Context, d *core.Delivery) {
		if len(d.Meta) != 8 || d.IsRendezvous() {
			return
		}
		gen, round := int(binary.LittleEndian.Uint32(d.Meta)), int(binary.LittleEndian.Uint32(d.Meta[4:]))
		sigs[key{gen, round, d.Origin.Task}] = sigOf(round, d.Origin.Task, task, d.Data)
	})
	if err != nil {
		return nil, err
	}
	return func(r int, state []uint64) error {
		meta := genMeta(g.gen, r)
		for _, dst := range g.alive {
			if dst == task {
				continue
			}
			if err := send(ctx, dst, dispContrib, meta, payload(r, task, dst)); err != nil {
				if !core.Recoverable(err) {
					return fmt.Errorf("round %d -> task %d: %w", r, dst, err)
				}
				// The member died under us: its contribution is no longer
				// required, and the epoch check below aborts the round.
				g.noteFailure(err)
			}
		}
		sigs[key{g.gen, r, task}] = sig(r, task, task)
		ctx.AdvanceUntil(func() bool {
			if g.moved() {
				return true
			}
			for _, src := range g.alive {
				if _, ok := sigs[key{g.gen, r, src}]; !ok {
					return false
				}
			}
			return true
		})
		if g.moved() {
			return g.deathErr(fmt.Sprintf("round %d", r))
		}
		for _, src := range g.alive {
			state[0] += sigs[key{g.gen, r, src}]
			delete(sigs, key{g.gen, r, src})
		}
		return nil
	}, nil
}

func genMeta(gen, round int) []byte {
	meta := make([]byte, 8)
	binary.LittleEndian.PutUint32(meta, uint32(gen))
	binary.LittleEndian.PutUint32(meta[4:], uint32(round))
	return meta
}

// savedCheckpoint is one retained checkpoint: a recovery.Snapshot blob
// whose version is the round to resume at and whose data is the hosted
// tasks' states, task-major.
type savedCheckpoint struct {
	resume int
	blob   []byte
}

// restartJob is what outlives machine generations: the membership
// history and the retained checkpoints. The job keeps the last two:
// survivors negotiate the oldest resume round any of them holds, and the
// round structure bounds the spread to one checkpoint period. During a
// generation only the leader task's goroutine touches either, and
// machine.Run's join publishes them to the driver loop.
type restartJob struct {
	*run
	w     bulk
	segs  []segment
	saved []savedCheckpoint
}

func (job *restartJob) store(resume int, words []uint64) {
	snap := recovery.Snapshot{Version: uint64(resume), Data: encodeWords(words)}
	job.saved = append(job.saved, savedCheckpoint{resume, snap.Encode()})
	if len(job.saved) > 2 {
		job.saved = job.saved[len(job.saved)-2:]
	}
	job.rep.Checkpoints++
}

// load decodes the retained checkpoint that resumes at the given round.
func (job *restartJob) load(resume int) ([]uint64, error) {
	for _, ck := range job.saved {
		if ck.resume != resume {
			continue
		}
		snap, err := recovery.DecodeSnapshot(ck.blob)
		if err != nil {
			return nil, err
		}
		if snap.Version != uint64(resume) {
			return nil, fmt.Errorf("checkpoint stored for round %d says it resumes at round %d", resume, snap.Version)
		}
		words, err := decodeWords(snap.Data)
		if err == nil && len(words) != (job.hi-job.lo)*job.w.width {
			err = fmt.Errorf("checkpoint holds %d state words, want %d tasks x %d", len(words), job.hi-job.lo, job.w.width)
		}
		return words, err
	}
	return nil, fmt.Errorf("no retained checkpoint resumes at round %d", resume)
}

// restart drives the job: boot a generation, run it, and on a confirmed
// death recover from the last checkpoint and go again — until the job
// completes byte-exact.
func (r *run) restart(w bulk) error {
	job := &restartJob{run: r, w: w, segs: fullMembership(r.nTasks)}
	var dead []torus.Rank // cumulative: a generation re-declares its predecessor's
	die := r.Span.DieRound
	for gen := 0; ; {
		cfg := r.Machine
		if gen > 0 {
			cfg.Faults = nil // the partition comes back repaired
		}
		m, err := r.boot(cfg, dead)
		if err != nil {
			return err
		}
		if gen == 0 {
			// Base checkpoint: a freshly assembled partition is trivially
			// quiescent, and a death before the first periodic checkpoint
			// then restarts from round 0 instead of failing the job.
			if err := m.Quiesced(); err != nil {
				m.Shutdown()
				return fmt.Errorf("base checkpoint: %w", err)
			}
			job.store(0, make([]uint64, (r.hi-r.lo)*w.width))
		}
		g := newGeneration(job, m, gen, die)
		began := time.Now()
		typed, crashed, err := g.run()
		if h := m.Health(); h != nil {
			dead = h.DeadNodes()
		}
		r.rep.Epoch = m.Epoch()
		m.Shutdown()
		r.rep.TypedFailures += typed
		switch {
		case err != nil:
			return err
		case typed == 0 && crashed == 0:
			return job.finish(g)
		case typed == 0:
			return errors.New("a node died but no survivor saw a typed failure")
		case r.rep.Epoch == g.base:
			return fmt.Errorf("tasks failed over but the membership never changed: %w", g.failure)
		}
		r.logf("peer death confirmed: node(s) %v dead at epoch %d after %v; %d task(s) failed over with typed errors (%v), %d crashed; recovering from the last checkpoint",
			dead, r.rep.Epoch, time.Since(began).Round(time.Millisecond), typed, g.failure, crashed)
		// Every survivor reads the same epoch, so it tags the generation.
		gen, die = int(r.rep.Epoch), -1
	}
}

func (job *restartJob) finish(g *generation) error {
	if f := job.Machine.Faults; f != nil && f.HasNodeFaults() && job.rep.Generations == 1 {
		return fmt.Errorf("the fault plan never killed a node within %d rounds; lower the crash@pkt threshold", job.w.rounds)
	}
	return job.verify(job.w.what,
		func(task int) []uint64 { return g.state[task-job.lo] },
		func(task int) []uint64 { return job.w.expected(task, job.segs) },
		fmt.Sprintf("%d rounds, %d generation(s)", job.w.rounds, job.rep.Generations))
}

var errCrashed = errors.New("the task's node was killed")

// generation is one machine generation of the job: a boot, a negotiation
// when recovering, and a run of rounds that either completes or is
// interrupted by a confirmed death.
type generation struct {
	job   *restartJob
	m     *machine.Machine
	gen   int   // tag carried in every message
	base  int64 // membership epoch at generation start; a move aborts
	die   int
	offer int // resume round this process brings to the negotiation
	bar   *barrier
	alive []int // members at generation start

	stop atomic.Bool // a task failed untyped: release the rest
	ckOK atomic.Bool

	// state is every hosted task's state, each slice its task's alone
	// between barriers; resume is the round they start at. offers is the
	// leader's: peer leader task -> the resume round it offers. All three
	// are handed between goroutines by the control barrier.
	state  [][]uint64
	resume int
	offers map[int]int

	mu      sync.Mutex
	failure error // first typed failure any task observed
}

func newGeneration(job *restartJob, m *machine.Machine, gen, die int) *generation {
	g := &generation{
		job: job, m: m, gen: gen, base: m.Epoch(), die: die,
		offer:  job.saved[len(job.saved)-1].resume,
		state:  make([][]uint64, job.hi-job.lo),
		offers: make(map[int]int),
	}
	for i := range g.state {
		g.state[i] = make([]uint64, job.w.width)
	}
	g.bar = newBarrier(job.hi-job.lo, job.seed(), g.moved)
	for t := 0; t < job.nTasks; t++ {
		if m.Alive(t) {
			g.alive = append(g.alive, t)
		}
	}
	return g
}

func (g *generation) moved() bool { return g.m.Epoch() != g.base || g.stop.Load() }

func (g *generation) noteFailure(err error) {
	g.mu.Lock()
	if g.failure == nil {
		g.failure = err
	}
	g.mu.Unlock()
}

// deathErr is the typed verdict a task returns when the membership epoch
// moves under it.
func (g *generation) deathErr(where string) error {
	g.mu.Lock()
	err := g.failure
	g.mu.Unlock()
	if err == nil {
		err = mu.ErrPeerDead
	}
	return fmt.Errorf("membership moved during %s (epoch %d -> %d): %w", where, g.base, g.m.Epoch(), err)
}

// run executes the generation's tasks and sorts how each ended: done,
// crashed (its own node was killed — on the real machine the process
// simply stops executing), failed over with a typed error, or failed in
// a way no injected death explains, which is a bug and the run's error.
func (g *generation) run() (typed, crashed int, err error) {
	ctxs, err := g.job.contexts(g.m, "scenario")
	if err != nil {
		return 0, 0, err
	}
	var mu sync.Mutex
	g.m.Run(func(p *cnk.Process) {
		task := p.TaskRank()
		terr := g.runTask(ctxs[task-g.job.lo], task)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case terr == nil:
		case errors.Is(terr, errCrashed):
			crashed++
		case core.Recoverable(terr) && !g.stop.Load():
			typed++
			g.noteFailure(terr)
			if g.job.Verbose {
				g.job.logf("task %d stopped: %v", task, terr)
			}
		case err == nil:
			err = fmt.Errorf("task %d: untyped failure: %w", task, terr)
			g.stop.Store(true)
			g.m.Fabric().TouchAll() // the rest may be parked in their round
		}
	})
	return typed, crashed, err
}

func (g *generation) runTask(ctx *core.Context, task int) error {
	job := g.job
	leader := task == job.lo
	round, err := job.w.join(g, ctx, task)
	if err != nil {
		return err
	}
	if leader {
		// Peers address their resume offers to a process's leader task, for
		// as long as the generation lives: a peer that rebooted after our own
		// negotiation finished still needs our offer, so every first offer
		// is echoed (ours to it may have landed in its previous incarnation).
		offerMeta := genMeta(g.gen, g.offer)
		err := ctx.RegisterDispatch(dispOffer, func(_ *core.Context, d *core.Delivery) {
			if len(d.Meta) != 8 || int(binary.LittleEndian.Uint32(d.Meta)) != g.gen {
				return
			}
			if _, seen := g.offers[d.Origin.Task]; !seen {
				g.offers[d.Origin.Task] = int(binary.LittleEndian.Uint32(d.Meta[4:]))
				_ = ctx.SendImmediate(core.Endpoint{Task: d.Origin.Task}, dispOffer, offerMeta, nil)
			}
		})
		if err == nil && g.gen > 0 {
			err = g.negotiate(ctx, offerMeta)
		}
		if err != nil {
			return err
		}
	}
	if g.gen > 0 {
		if err := g.bar.Await(); err != nil {
			return fmt.Errorf("task %d at the recovery barrier: %w", task, err)
		}
	}
	state := g.state[task-job.lo]
	for r := g.resume; r < job.w.rounds; r++ {
		if g.m.Crashed(task) {
			return errCrashed
		}
		job.dieAt(task, r, g.die)
		if err := round(r, state); err != nil {
			return err
		}
		if job.Verbose {
			job.logf("task %d completed round %d", task, r)
		}
		if (r+1)%job.w.every == 0 && r+1 < job.w.rounds {
			if err := g.checkpoint(ctx, task, leader, r+1); err != nil {
				return fmt.Errorf("task %d at the checkpoint barrier: %w", task, err)
			}
		}
	}
	job.settleWire(g.m, ctx, task)
	return nil
}

// negotiate is the leader's half of a recovery: the surviving processes
// agree to resume from the oldest checkpoint any of them holds, since one
// may have checkpointed a period further than a peer it now has to re-run
// with; then the leader loads that checkpoint and rewrites the membership
// history.
func (g *generation) negotiate(ctx *core.Context, offerMeta []byte) error {
	for step := int64(1); ; step++ {
		if g.moved() {
			return g.deathErr("recovery negotiation")
		}
		done := true
		if w := g.m.Wire(); w != nil {
			for _, pi := range w.Peers() {
				if _, heard := g.offers[pi.TaskLo]; pi.Dead || heard {
					continue
				}
				done = false
				err := ctx.SendImmediate(core.Endpoint{Task: pi.TaskLo}, dispOffer, offerMeta, nil)
				if err != nil && !core.Recoverable(err) && !core.Transient(err) {
					return fmt.Errorf("resume offer to task %d: %w", pi.TaskLo, err)
				}
			}
		}
		if done {
			break
		}
		ctx.Advance(64)
		time.Sleep(fault.Jitter(g.job.seed(), 0x0f<<56|step, 200*time.Microsecond))
	}
	g.resume = g.offer
	for _, offered := range g.offers {
		g.resume = min(g.resume, offered)
	}
	words, err := g.job.load(g.resume)
	if err != nil {
		return err
	}
	for i := range g.state {
		g.state[i] = words[i*g.job.w.width:][:g.job.w.width]
	}
	g.job.segs = truncate(g.job.segs, g.resume, g.alive)
	g.job.rep.Resume = g.resume
	g.job.logf("recovered from the round-%d checkpoint: resuming rounds %d..%d among %d member task(s)",
		g.resume, g.resume, g.job.w.rounds-1, len(g.alive))
	return nil
}

// checkpoint quiesces the process's tasks and snapshots their states.
// The round structure guarantees every member has stopped initiating;
// stragglers still land between the drain and the capture, in which case
// Quiesced refuses (a reception FIFO is busy, or the wire still holds
// unacknowledged frames) and the round drains again.
func (g *generation) checkpoint(ctx *core.Context, task int, leader bool, resume int) error {
	for step := int64(1); ; step++ {
		if err := g.bar.Await(); err != nil {
			return err
		}
		if step > 1 {
			// A refusal normally means an ack is still in flight from the
			// peer; settle instead of hammering the quiescence check (a
			// tight retry spin can starve this process's own heartbeat
			// writer long enough to look dead to the other side).
			ctx.Advance(64)
			time.Sleep(fault.Jitter(g.job.seed(), int64(task)<<40|0x2d<<32|step, 200*time.Microsecond))
		}
		ctx.Drain()
		if err := g.bar.Await(); err != nil {
			return err
		}
		if leader {
			g.ckOK.Store(g.m.Quiesced() == nil)
			if g.ckOK.Load() {
				g.job.store(resume, slices.Concat(g.state...))
				if g.job.Verbose {
					g.job.logf("checkpointed at round %d", resume)
				}
			}
		}
		if err := g.bar.Await(); err != nil {
			return err
		}
		if g.ckOK.Load() {
			return nil
		}
	}
}
