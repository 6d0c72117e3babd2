package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
	"pamigo/internal/wire"
)

// The wire shakedown: a bulk-synchronous all-to-all digest workload that
// a partition split across OS processes must finish byte-exact. Each
// round every task ships a deterministic payload to every member and
// folds the FNV digest of what actually arrived into its state, so a
// single flipped bit anywhere on the wire shows up in the final answer.
// The round structure doubles as the barrier: a task enters round r+1
// only after hearing round r from every live member, which bounds how
// far ahead any peer can run to one round.
//
// Every wireCkEvery rounds the job quiesces and checkpoints. When a peer
// process is SIGKILLed mid-run, survivors confirm the death through
// phi-accrual heartbeat silence, fail over with typed errors, restore
// from the last checkpoint, and finish the remaining rounds among
// themselves — still byte-exact against the analytic expectation.
const (
	wireRounds  = 12 // total all-to-all rounds
	wireCkEvery = 4  // checkpoint interval in rounds

	dispContrib = 1 // a round contribution: meta = (gen, round), data = payload
	dispOffer   = 2 // recovery negotiation: meta = (gen, resume round)

	wireJoinTimeout = 30 * time.Second
)

// wireFlags is the validated form of the -listen/-join/-rank-range
// command-line surface.
type wireFlags struct {
	listen    string
	join      []string
	lo, hi    int // hosted task range, half-open
	partition uint64
	dieRound  int
	drop      float64 // wire-level fault storm probabilities
	corrupt   float64
	stats     bool // -stats: print telemetry totals and the link table at the end
}

// printStats is the -stats report: the machine's telemetry totals and,
// in wire mode (the wire group has the frames per socket read and write,
// the writer hand-offs, the drops by cause), how every peer link fared
// and why it last broke.
func printStats(m *machine.Machine) {
	fmt.Println()
	fmt.Println("telemetry totals (full tree: m.Telemetry().Snapshot().JSON()):")
	fmt.Print(m.Telemetry().Snapshot().RenderTotals())
	if w := m.Wire(); w != nil {
		w.WriteLinks(os.Stdout)
	}
}

// validateWireFlags checks the multi-process flag set up front, so a
// typo fails in milliseconds with a message naming the fix instead of a
// partition that hangs waiting for a peer that can never exist.
func validateWireFlags(dims torus.Dims, ppn int, listen, joinCSV, rankRange string, partition uint64, dieRound int) (wireFlags, error) {
	nTasks := dims.Nodes() * ppn
	wf := wireFlags{listen: listen, partition: partition, dieRound: dieRound, lo: 0, hi: nTasks}
	if joinCSV != "" {
		for _, a := range strings.Split(joinCSV, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return wf, fmt.Errorf("-join %q has an empty address: give a comma-separated list like 127.0.0.1:7000,unix:/tmp/p1.sock", joinCSV)
			}
			wf.join = append(wf.join, a)
		}
	}
	if rankRange != "" {
		lo, hi, ok := parseRankRange(rankRange)
		if !ok {
			return wf, fmt.Errorf(`-rank-range must be "lo:hi" (a half-open task range, e.g. 0:2), got %q`, rankRange)
		}
		if lo < 0 || hi > nTasks {
			return wf, fmt.Errorf("-rank-range %s is outside the partition: %s with -ppn %d has tasks [0,%d)", rankRange, dims, ppn, nTasks)
		}
		if lo >= hi {
			return wf, fmt.Errorf("-rank-range %s is empty: lo must be below hi", rankRange)
		}
		if lo%ppn != 0 || hi%ppn != 0 {
			return wf, fmt.Errorf("-rank-range %s splits a node: with -ppn %d both bounds must be multiples of %d so same-node tasks share a process (the shared-memory path requires it)", rankRange, ppn, ppn)
		}
		wf.lo, wf.hi = lo, hi
	}
	partial := wf.lo != 0 || wf.hi != nTasks
	if partial && listen == "" && len(wf.join) == 0 {
		return wf, fmt.Errorf("-rank-range %d:%d hosts only %d of %d tasks but neither -listen nor -join is set: the rest of the partition would be unreachable (add -listen to accept peers, -join to dial them, or host the full range)", wf.lo, wf.hi, wf.hi-wf.lo, nTasks)
	}
	if dieRound >= 0 {
		if dieRound >= wireRounds {
			return wf, fmt.Errorf("-die-round %d is past the end of the shakedown: rounds run 0..%d", dieRound, wireRounds-1)
		}
		if listen == "" && len(wf.join) == 0 {
			return wf, fmt.Errorf("-die-round needs a multi-process run: add -listen/-join so a survivor exists to recover")
		}
	}
	return wf, nil
}

func parseRankRange(s string) (lo, hi int, ok bool) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, false
	}
	lo, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	hi, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	return lo, hi, err1 == nil && err2 == nil
}

// wireMix is the per-(round,src,dst) tag folded into every signature, so
// a payload replayed under the wrong coordinates cannot verify.
func wireMix(round, src, dst int) uint64 {
	return uint64(round+1)*0x9e3779b97f4a7c15 ^ uint64(src+1)*0xc2b2ae3d27d4eb4f ^ uint64(dst+1)*0x165667b19e3779f9
}

// wirePayload builds the deterministic contribution src sends dst in the
// given round. Sizes vary with the coordinates but stay below the eager
// threshold: cross-process traffic is eager-only (no remote RDMA).
func wirePayload(round, src, dst int) []byte {
	h := wireMix(round, src, dst)
	b := make([]byte, 64+int(h%1931))
	x := h | 1
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// wireSigBytes digests the payload actually received; wireSig is the
// analytic value for an intact delivery.
func wireSigBytes(round, src, dst int, payload []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range payload {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h ^ wireMix(round, src, dst)
}

func wireSig(round, src, dst int) uint64 {
	return wireSigBytes(round, src, dst, wirePayload(round, src, dst))
}

// memberSeg records which tasks contributed from a given round on. The
// history starts with full membership; each recovery truncates it at the
// negotiated resume round and appends the survivor set, because rolled
// back rounds are re-run by survivors only.
type memberSeg struct {
	from  int
	alive []int
}

func aliveAt(segs []memberSeg, round int) []int {
	cur := segs[0].alive
	for _, s := range segs {
		if s.from <= round {
			cur = s.alive
		}
	}
	return cur
}

func expectedWireDigest(task, rounds int, segs []memberSeg) uint64 {
	var dg uint64
	for r := 0; r < rounds; r++ {
		for _, src := range aliveAt(segs, r) {
			dg += wireSig(r, src, task)
		}
	}
	return dg
}

// The application checkpoint blob: the round to resume from, then the
// running digest of every hosted task.
func encodeWireBlob(resume int, digests map[int]uint64) []byte {
	tasks := make([]int, 0, len(digests))
	for t := range digests {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	blob := make([]byte, 8+len(tasks)*12)
	binary.LittleEndian.PutUint32(blob, uint32(resume))
	binary.LittleEndian.PutUint32(blob[4:], uint32(len(tasks)))
	for i, t := range tasks {
		binary.LittleEndian.PutUint32(blob[8+i*12:], uint32(t))
		binary.LittleEndian.PutUint64(blob[8+i*12+4:], digests[t])
	}
	return blob
}

func decodeWireBlob(blob []byte) (resume int, digests map[int]uint64, err error) {
	if len(blob) < 8 {
		return 0, nil, fmt.Errorf("malformed wire checkpoint blob of %d bytes", len(blob))
	}
	resume = int(binary.LittleEndian.Uint32(blob))
	n := int(binary.LittleEndian.Uint32(blob[4:]))
	if len(blob) != 8+n*12 {
		return 0, nil, fmt.Errorf("wire checkpoint blob declares %d tasks in %d bytes", n, len(blob))
	}
	digests = make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		t := int(binary.LittleEndian.Uint32(blob[8+i*12:]))
		digests[t] = binary.LittleEndian.Uint64(blob[8+i*12+4:])
	}
	return resume, digests, nil
}

// wireSaved is one retained checkpoint. The job keeps the last two:
// survivors negotiate the oldest resume round any of them holds, and the
// round-barrier structure bounds the spread to one checkpoint period.
type wireSaved struct {
	resume int
	enc    []byte
}

// wireJob is the per-process state that outlives machine generations:
// the flag set, the membership history, and the retained checkpoints.
// During a run only the leader task's goroutine touches saved/segs, and
// machine.Run's join publishes them to the driver loop.
type wireJob struct {
	cfg     machine.Config
	wf      wireFlags
	verbose bool
	nTasks  int
	rounds  int

	segs  []memberSeg
	saved []wireSaved
}

func (job *wireJob) store(resume int, enc []byte) {
	job.saved = append(job.saved, wireSaved{resume: resume, enc: enc})
	if len(job.saved) > 2 {
		job.saved = job.saved[len(job.saved)-2:]
	}
}

func (job *wireJob) latestResume() int { return job.saved[len(job.saved)-1].resume }

func (job *wireJob) truncateSegs(from int, alive []int) {
	keep := job.segs[:0]
	for _, s := range job.segs {
		if s.from < from {
			keep = append(keep, s)
		}
	}
	job.segs = append(keep, memberSeg{from: from, alive: append([]int(nil), alive...)})
}

// wireGen is one machine generation of the shakedown: a boot (fresh or
// checkpoint-restored), a negotiation when recovering, and a run of
// rounds that either completes or is interrupted by a confirmed death.
type wireGen struct {
	job   *wireJob
	m     *machine.Machine
	gen   int   // generation tag carried in every message
	base  int64 // membership epoch at generation start; a move aborts
	die   int   // SIGKILL self at this round (-1 = never)
	offer int   // resume round this process brings to the negotiation
	bar   *ctrlBarrier
	alive []int // members at generation start

	ckOK atomic.Bool

	mu      sync.Mutex
	digests map[int]uint64 // per hosted task, updated at checkpoints and at the end
	offers  map[[2]int]int // (gen, peer leader task) -> offered resume round
	resume  int            // negotiated resume round
	seedDg  map[int]uint64 // digests restored from the chosen checkpoint
	failure error          // first typed failure any task observed
}

func newWireGen(job *wireJob, m *machine.Machine, gen, die int) *wireGen {
	g := &wireGen{
		job: job, m: m, gen: gen, base: m.Epoch(), die: die,
		offer:   job.latestResume(),
		bar:     newCtrlBarrierAt(m, job.wf.hi-job.wf.lo, m.Epoch()),
		digests: make(map[int]uint64),
		offers:  make(map[[2]int]int),
	}
	for t := 0; t < job.nTasks; t++ {
		if m.Alive(t) {
			g.alive = append(g.alive, t)
		}
	}
	return g
}

func (g *wireGen) seed() int64      { return g.job.cfg.FaultSeed }
func (g *wireGen) epochMoved() bool { return g.m.Epoch() != g.base }

func (g *wireGen) noteFailure(err error) {
	g.mu.Lock()
	if g.failure == nil {
		g.failure = err
	}
	g.mu.Unlock()
}

func (g *wireGen) typedFailure() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failure
}

// deathErr is the typed verdict a task returns when the membership
// epoch moves under it.
func (g *wireGen) deathErr(where string) error {
	err := g.typedFailure()
	if err == nil {
		err = mu.ErrPeerDead
	}
	return fmt.Errorf("membership moved during %s (epoch %d -> %d): %w", where, g.base, g.m.Epoch(), err)
}

// wireTypedErr reports whether a failure is one of the typed outcomes a
// peer death legitimately produces. Anything else is a bug.
func wireTypedErr(err error) bool {
	return errors.Is(err, mu.ErrPeerDead) || errors.Is(err, mu.ErrEpochChanged)
}

// wireBusyErr reports a transient refusal that advance-and-retry clears.
// ErrNoSuchContext is transient at round 0: a same-process peer task has
// not finished booting its context yet (the wire transport absorbs this
// race internally for cross-process destinations).
func wireBusyErr(err error) bool {
	return errors.Is(err, core.ErrThrottled) ||
		errors.Is(err, mu.ErrBackpressure) ||
		errors.Is(err, mu.ErrNoSuchContext)
}

// peerLeaders returns the leader task of every live peer process.
func (g *wireGen) peerLeaders() []int {
	w := g.m.Wire()
	if w == nil {
		return nil
	}
	var out []int
	for _, pi := range w.Peers() {
		if !pi.Dead {
			out = append(out, pi.TaskLo)
		}
	}
	return out
}

func (g *wireGen) run() error {
	var errMu sync.Mutex
	var retErr error
	g.m.Run(func(p *cnk.Process) {
		if err := g.runTask(p); err != nil {
			errMu.Lock()
			if retErr == nil {
				retErr = err
			}
			errMu.Unlock()
		}
	})
	return retErr
}

func (g *wireGen) runTask(p *cnk.Process) error {
	task := p.TaskRank()
	leader := task == g.job.wf.lo
	cl, err := core.NewClient(g.m, p, "wiredemo")
	if err != nil {
		return err
	}
	ctxs, err := cl.CreateContexts(1)
	if err != nil {
		return err
	}
	ctx := ctxs[0]

	// The round ledger: what each member contributed, keyed by generation
	// so rolled-back traffic can never be double counted. Only this
	// goroutine advances the context, so the handlers need no lock here.
	type ckey struct{ gen, round, src int }
	sigs := make(map[ckey]uint64)
	ctx.RegisterDispatch(dispContrib, func(_ *core.Context, d *core.Delivery) {
		if len(d.Meta) != 8 || d.IsRendezvous() {
			return
		}
		gen := int(binary.LittleEndian.Uint32(d.Meta))
		round := int(binary.LittleEndian.Uint32(d.Meta[4:]))
		sigs[ckey{gen, round, d.Origin.Task}] = wireSigBytes(round, d.Origin.Task, task, d.Data)
	})
	offerMeta := make([]byte, 8)
	binary.LittleEndian.PutUint32(offerMeta, uint32(g.gen))
	binary.LittleEndian.PutUint32(offerMeta[4:], uint32(g.offer))
	ctx.RegisterDispatch(dispOffer, func(_ *core.Context, d *core.Delivery) {
		if len(d.Meta) != 8 {
			return
		}
		gen := int(binary.LittleEndian.Uint32(d.Meta))
		resume := int(binary.LittleEndian.Uint32(d.Meta[4:]))
		g.mu.Lock()
		_, seen := g.offers[[2]int{gen, d.Origin.Task}]
		if !seen {
			g.offers[[2]int{gen, d.Origin.Task}] = resume
		}
		g.mu.Unlock()
		if leader && gen == g.gen && !seen {
			// Echo our own offer back: the peer rebooted after us, so our
			// proactive offers may have landed in its previous incarnation.
			_ = ctx.SendImmediate(core.Endpoint{Task: d.Origin.Task}, dispOffer, offerMeta, nil)
		}
	})

	// Recovery negotiation: survivors agree to resume from the oldest
	// checkpoint any of them holds, since a process may have checkpointed
	// one period further than a peer it now needs to re-run with.
	resume, dg := 0, uint64(0)
	if g.gen > 0 {
		if leader {
			g.mu.Lock()
			g.offers[[2]int{g.gen, task}] = g.offer
			g.mu.Unlock()
			for step := int64(1); ; step++ {
				if g.epochMoved() {
					return g.deathErr("recovery negotiation")
				}
				done := true
				for _, pl := range g.peerLeaders() {
					g.mu.Lock()
					_, ok := g.offers[[2]int{g.gen, pl}]
					g.mu.Unlock()
					if ok {
						continue
					}
					done = false
					if err := ctx.SendImmediate(core.Endpoint{Task: pl}, dispOffer, offerMeta, nil); err != nil &&
						!wireTypedErr(err) && !wireBusyErr(err) {
						return fmt.Errorf("task %d: resume offer to %d: %w", task, pl, err)
					}
				}
				if done {
					break
				}
				ctx.Advance(64)
				time.Sleep(fault.Jitter(g.seed(), 0x0f<<56|step, 200*time.Microsecond))
			}
			g.mu.Lock()
			min := g.offer
			for k, v := range g.offers {
				if k[0] == g.gen && v < min {
					min = v
				}
			}
			g.resume = min
			g.mu.Unlock()
			var chosen *wireSaved
			for i := range g.job.saved {
				if g.job.saved[i].resume == min {
					chosen = &g.job.saved[i]
				}
			}
			if chosen == nil {
				return fmt.Errorf("no retained checkpoint resumes at round %d (have %v)", min, savedRounds(g.job.saved))
			}
			ck, err := machine.DecodeCheckpoint(chosen.enc)
			if err != nil {
				return err
			}
			_, seedDg, err := decodeWireBlob(ck.Blob("app"))
			if err != nil {
				return err
			}
			g.mu.Lock()
			g.seedDg = seedDg
			g.mu.Unlock()
			g.job.truncateSegs(min, g.alive)
			fmt.Printf("recovered from the round-%d checkpoint: resuming rounds %d..%d among %d member task(s)\n",
				min, min, g.job.rounds-1, len(g.alive))
		}
		if err := g.bar.Await(); err != nil {
			return fmt.Errorf("task %d at the recovery barrier: %w", task, err)
		}
		g.mu.Lock()
		resume, dg = g.resume, g.seedDg[task]
		g.mu.Unlock()
	}

	for r := resume; r < g.job.rounds; r++ {
		if g.die >= 0 && r == g.die {
			fmt.Printf("task %d reached round %d: SIGKILL self (pid %d)\n", task, r, os.Getpid())
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // the signal is not survivable; never fall through
		}
		meta := make([]byte, 8)
		binary.LittleEndian.PutUint32(meta, uint32(g.gen))
		binary.LittleEndian.PutUint32(meta[4:], uint32(r))
		for _, dst := range g.alive {
			if dst == task {
				continue
			}
			payload := wirePayload(r, task, dst)
			for step := int64(1); ; step++ {
				err := ctx.Send(core.SendParams{
					Dest: core.Endpoint{Task: dst}, Dispatch: dispContrib,
					Meta: meta, Data: payload, Mode: core.ModeEager,
				})
				if err == nil {
					break
				}
				if wireTypedErr(err) {
					// The member died under us: its contribution is no longer
					// required, and the epoch check below aborts the round.
					g.noteFailure(err)
					break
				}
				if !wireBusyErr(err) {
					return fmt.Errorf("task %d round %d -> task %d: %w", task, r, dst, err)
				}
				ctx.Advance(64)
				time.Sleep(fault.Jitter(g.seed(), int64(r)<<40|int64(dst)<<20|step, 100*time.Microsecond))
			}
		}
		sigs[ckey{g.gen, r, task}] = wireSig(r, task, task)
		ctx.AdvanceUntil(func() bool {
			if g.epochMoved() {
				return true
			}
			for _, src := range g.alive {
				if _, ok := sigs[ckey{g.gen, r, src}]; !ok {
					return false
				}
			}
			return true
		})
		if g.epochMoved() {
			return g.deathErr(fmt.Sprintf("round %d", r))
		}
		for _, src := range g.alive {
			dg += sigs[ckey{g.gen, r, src}]
			delete(sigs, ckey{g.gen, r, src})
		}
		if g.job.verbose {
			fmt.Printf("task %d completed round %d\n", task, r)
		}
		if (r+1)%wireCkEvery == 0 && r+1 < g.job.rounds {
			if err := g.checkpointRound(ctx, task, leader, dg, r+1); err != nil {
				return err
			}
		}
	}
	// Do not exit with frames in flight: a process that tears its
	// transport down before the final round is acknowledged loses the
	// slower peer's last contribution and turns a clean finish into a
	// spurious death. Quiesced skips confirmed-dead peers, and a real
	// death mid-wait discards that peer's window, so this terminates.
	if w := g.m.Wire(); w != nil {
		for step := int64(1); w.Quiesced() != nil; step++ {
			ctx.Advance(64)
			time.Sleep(fault.Jitter(g.m.Config().FaultSeed, int64(task)<<40|0x1d<<32|step, 100*time.Microsecond))
		}
	}
	g.mu.Lock()
	g.digests[task] = dg
	g.mu.Unlock()
	return nil
}

// checkpointRound quiesces the process's tasks and snapshots the machine
// plus the running digests. The round barrier guarantees every member
// has stopped initiating; stragglers still land between the drain and
// the capture, in which case Checkpoint refuses (the machine is not
// quiescent, or the wire still holds unacknowledged frames) and the
// round drains again.
func (g *wireGen) checkpointRound(ctx *core.Context, task int, leader bool, dg uint64, resume int) error {
	g.mu.Lock()
	g.digests[task] = dg
	g.mu.Unlock()
	for step := int64(1); ; step++ {
		if err := g.bar.Await(); err != nil {
			return fmt.Errorf("task %d at the checkpoint barrier: %w", task, err)
		}
		if step > 1 {
			// A refusal normally means an ack is still in flight from the
			// peer; settle instead of hammering the quiescence check (a
			// tight retry spin can starve this process's own heartbeat
			// writer long enough to look dead to the other side).
			ctx.Advance(64)
			time.Sleep(fault.Jitter(g.m.Config().FaultSeed, int64(task)<<40|0x2d<<32|step, 200*time.Microsecond))
		}
		ctx.Drain()
		if err := g.bar.Await(); err != nil {
			return fmt.Errorf("task %d at the checkpoint barrier: %w", task, err)
		}
		if leader {
			g.ckOK.Store(false)
			g.mu.Lock()
			snap := make(map[int]uint64, len(g.digests))
			for t, v := range g.digests {
				snap[t] = v
			}
			g.mu.Unlock()
			ck, err := g.m.Checkpoint(map[string][]byte{"app": encodeWireBlob(resume, snap)})
			if err == nil {
				var enc []byte
				if enc, err = ck.Encode(); err == nil {
					g.job.store(resume, enc)
					g.ckOK.Store(true)
					if g.job.verbose {
						fmt.Printf("checkpointed at round %d (%d bytes)\n", resume, len(enc))
					}
				}
			}
		}
		if err := g.bar.Await(); err != nil {
			return fmt.Errorf("task %d at the checkpoint barrier: %w", task, err)
		}
		if g.ckOK.Load() {
			return nil
		}
	}
}

func savedRounds(saved []wireSaved) []int {
	out := make([]int, len(saved))
	for i, s := range saved {
		out[i] = s.resume
	}
	return out
}

// runWireShakedown is the -listen/-join/-rank-range driver: boot (or
// restore) a machine generation, assemble the wire partition, run the
// digest rounds, and on a confirmed peer death recover from the last
// checkpoint and go again — until the shakedown completes byte-exact.
func runWireShakedown(cfg machine.Config, wf wireFlags, verbose bool) error {
	nTasks := cfg.Dims.Nodes() * cfg.PPN
	if cfg.PhiThreshold == 0 {
		cfg.PhiThreshold = 10
	}
	job := &wireJob{cfg: cfg, wf: wf, verbose: verbose, nTasks: nTasks, rounds: wireRounds}
	all := make([]int, nTasks)
	for i := range all {
		all[i] = i
	}
	job.segs = []memberSeg{{from: 0, alive: all}}

	dead := make(map[torus.Rank]bool)
	dieRound := wf.dieRound
	for genNum := 0; ; {
		c := job.cfg
		c.HostedLo, c.HostedHi = wf.lo, wf.hi
		if wf.listen != "" || len(wf.join) > 0 {
			c.Wire = &wire.Options{
				Listen: wf.listen, Join: wf.join, Partition: wf.partition,
				Seed: c.FaultSeed, DropProb: wf.drop, CorruptProb: wf.corrupt,
			}
		}
		var m *machine.Machine
		var err error
		if genNum == 0 {
			m, err = machine.New(c)
		} else {
			// Checkpoint-restore: the snapshot pins the shape, the
			// transports start clean (nothing was in flight at capture).
			var ck *machine.Checkpoint
			if ck, err = machine.DecodeCheckpoint(job.saved[len(job.saved)-1].enc); err == nil {
				m, err = machine.RestoreWith(ck, c)
			}
		}
		if err != nil {
			return err
		}
		for r := range dead {
			m.Health().DeclareDead(r) // hmon always exists in wire mode
		}
		if w := m.Wire(); w != nil {
			if wf.listen != "" {
				// Pin the kernel-assigned port: a recovery reboot must
				// rebind the same address or the other survivors' join
				// lists point at a listener that no longer exists.
				wf.listen = w.Addr()
				fmt.Printf("wire listening on %s (hosting tasks [%d,%d) of %d)\n", w.Addr(), wf.lo, wf.hi, nTasks)
			}
			if err := m.WaitWire(wireJoinTimeout); err != nil {
				m.Shutdown()
				return fmt.Errorf("assembling the wire partition: %w", err)
			}
			fmt.Printf("wire partition assembled: %d peer process(es), %d member task(s), epoch %d\n",
				len(w.Peers()), countAliveTasks(m, nTasks), m.Epoch())
		}
		if genNum == 0 {
			// Base checkpoint: a freshly assembled partition is trivially
			// quiescent, and a death before the first periodic snapshot
			// then restarts from round 0 instead of failing the job.
			zero := make(map[int]uint64, wf.hi-wf.lo)
			for t := wf.lo; t < wf.hi; t++ {
				zero[t] = 0
			}
			ck, err := m.Checkpoint(map[string][]byte{"app": encodeWireBlob(0, zero)})
			if err != nil {
				m.Shutdown()
				return fmt.Errorf("base checkpoint: %w", err)
			}
			enc, err := ck.Encode()
			if err != nil {
				m.Shutdown()
				return err
			}
			job.store(0, enc)
		}

		g := newWireGen(job, m, genNum, dieRound)
		start := time.Now()
		runErr := g.run()
		var newDead []torus.Rank
		if h := m.Health(); h != nil {
			newDead = h.DeadNodes()
		}
		epochNow := m.Epoch()
		m.Shutdown()
		if wf.stats {
			printStats(m)
		}

		if runErr == nil {
			return finishWireShakedown(job, g, time.Since(start))
		}
		if !wireTypedErr(runErr) {
			return runErr
		}
		for _, r := range newDead {
			dead[r] = true
		}
		typed := g.typedFailure()
		if typed == nil {
			typed = mu.ErrPeerDead
		}
		fmt.Printf("peer death confirmed: node(s) %v dead at epoch %d after %v; survivors failed over with typed errors (%v); recovering from the last checkpoint\n",
			newDead, epochNow, time.Since(start).Round(time.Millisecond), typed)
		genNum = int(epochNow)
		dieRound = -1
	}
}

func countAliveTasks(m *machine.Machine, nTasks int) int {
	n := 0
	for t := 0; t < nTasks; t++ {
		if m.Alive(t) {
			n++
		}
	}
	return n
}

func finishWireShakedown(job *wireJob, g *wireGen, elapsed time.Duration) error {
	tasks := make([]int, 0, len(g.digests))
	for t := range g.digests {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	for _, t := range tasks {
		want := expectedWireDigest(t, job.rounds, job.segs)
		if g.digests[t] != want {
			return fmt.Errorf("task %d digest %016x, want %016x — NOT byte-exact", t, g.digests[t], want)
		}
		fmt.Printf("task %d digest %016x\n", t, g.digests[t])
	}
	fmt.Printf("wire shakedown passed in %v: %d rounds, %d generation(s), %d hosted task(s), digests byte-exact\n",
		elapsed.Round(time.Millisecond), job.rounds, g.gen+1, len(tasks))
	return nil
}
