// Package scenario runs the failure scenarios that prove the runtime on
// commodity links: a deterministic workload on a booted partition, a
// fault that kills part of it mid-run, a recovery, and a byte-exact
// comparison of every task's final state against the analytic fault-free
// answer. It is what `pamirun` runs whenever its flags ask for more than
// the MPI shakedown, and what the chaos tests call.
//
// One entry point, Run: a Plan in, a Report and an error out. Two
// workloads — an iterative allreduce and an all-to-all exchange — and two
// recovery policies:
//
//   - Restart: stop-the-world checkpoints at a quiesce point, and on a
//     confirmed death a reboot of the whole machine generation that
//     resumes from the last checkpoint among the survivors (restart.go).
//   - Online: buddy-replicated checkpoints with no quiescence; the victim
//     is revived (in-process) or respawned (across processes), restores
//     from its buddy's replica and replays, while the survivors never
//     stop (online.go).
//
// Three combinations exist: allreduce×restart in-process, and exchange
// under either policy in-process or across OS processes over
// internal/wire.
package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"
	"time"

	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
	"pamigo/internal/wire"
)

// Workload selects what the tasks compute.
type Workload int

const (
	// Allreduce sums a replicated state vector over every task, step by
	// step, on an unoptimized geometry (software collectives over MU
	// packets, so a crash@pkt trigger keeps counting).
	Allreduce Workload = iota
	// Exchange ships a deterministic payload from every task to every
	// other each round and folds a digest of what arrived.
	Exchange
)

// Policy selects how the job survives a death.
type Policy int

const (
	Restart Policy = iota
	Online
)

// Span places this process in a partition that spans OS processes. The
// zero value (but for DieRound) is a single process hosting every task.
type Span struct {
	Listen      string   // wire address to accept peers on
	Join        []string // wire addresses of already-started peers
	Lo, Hi      int      // hosted task range, half-open; both zero = all
	Partition   uint64   // ID every process of the job shares
	Incarnation uint32   // bumped by the respawn supervisor per relaunch
	DieRound    int      // SIGKILL this process at the given round; negative = never
}

func (s Span) wired() bool { return s.Listen != "" || len(s.Join) > 0 }

// Plan is one scenario: exactly what pamirun's flags express.
type Plan struct {
	// Machine is the partition to boot: shape, fault plan and seed,
	// deadlines. Wire, HostedLo/Hi and Recovery are Run's to fill in.
	// In one process the fault plan arms the torus injector. In a
	// partition that spans processes the links under test are the
	// inter-process ones: the plan's drop and corrupt rates arm the
	// wire-level storm, the torus injector stays off, and the plan may
	// hold nothing else (a process dies at Span.DieRound instead).
	Machine       machine.Config
	Workload      Workload
	Policy        Policy
	Span          Span
	BuddyInterval int       // Online: rounds between buddy checkpoints
	Verbose       bool      // per-task, per-round progress on Out
	Out           io.Writer // progress lines as they happen; nil discards
}

// Report is what a run established. Run returns it, as far as it got,
// with an error too.
type Report struct {
	Generations   int            // machines booted: 1 + restarts
	TypedFailures int            // Restart: task runs a death ended with a typed error
	Crashed       int            // Restart: task runs that stopped because their own node was killed
	Checkpoints   int            // checkpoints captured (Restart: including the base one)
	Resume        int            // round the last recovery resumed at; -1 when there was none
	Restores      int            // Online: recoveries this process observed
	MTTR          time.Duration  // Online: last death confirmation → restored
	Epoch         int64          // membership epoch at the end
	Digests       map[int]uint64 // per hosted task: its final state, folded to one word
	// Lines is the verdict, for printing: one `task N digest X` line per
	// hosted task and the summary.
	Lines []string
	// Machines are the generations booted, shut down, oldest first; their
	// telemetry stays readable.
	Machines []*machine.Machine
}

// Run executes the plan to its byte-exact end or its first error. Task
// bodies never panic on a failure: whatever a task could not classify as
// the typed outcome of an injected death is returned.
func Run(p Plan) (*Report, error) {
	r := &run{Plan: p, rep: &Report{Resume: -1, Digests: make(map[int]uint64)}, start: time.Now()}
	if r.Out == nil {
		r.Out = io.Discard
	}
	cfg := &r.Machine
	r.nTasks = cfg.Dims.Nodes() * cfg.PPN
	r.lo, r.hi = p.Span.Lo, p.Span.Hi
	if r.lo == 0 && r.hi == 0 {
		r.hi = r.nTasks
	}
	wired := p.Span.wired()
	switch {
	case p.Workload == Allreduce && (p.Policy != Restart || wired):
		return r.rep, errors.New("scenario: the allreduce workload runs under the restart policy, in one process")
	case p.Span.DieRound >= 0 && !wired:
		return r.rep, errors.New("scenario: DieRound needs a partition that spans processes, so that a survivor exists to recover (set it negative otherwise)")
	case p.Policy == Online && cfg.PPN != 1:
		return r.rep, errors.New("the online policy (-recover=auto) runs at PPN 1: one checkpoint domain per node")
	case p.Policy == Online && p.BuddyInterval < 1:
		return r.rep, fmt.Errorf("buddy checkpoint interval %d: must be at least 1 round", p.BuddyInterval)
	case p.Policy == Online && !wired && (cfg.Faults == nil || !cfg.Faults.HasNodeFaults()):
		return r.rep, errors.New(`the online policy (-recover=auto) needs a node-fault plan to heal from, e.g. -faults "crash@pkt=600,node=2"`)
	case wired && offWire(cfg.Faults).Active():
		return r.rep, fmt.Errorf("scenario: over the wire only drop and corrupt are injected, not %s: kill a process with -die-round instead", offWire(cfg.Faults))
	}
	var drop, corrupt float64 // the wire-level storm
	if wired && cfg.Faults != nil {
		drop, corrupt = cfg.Faults.Drop, cfg.Faults.Corrupt
		cfg.Faults = nil
		r.logf("wire fault storm armed: drop=%g corrupt=%g (seed %d)", drop, corrupt, cfg.FaultSeed)
	}
	if wired {
		cfg.HostedLo, cfg.HostedHi = r.lo, r.hi
		cfg.Wire = &wire.Options{
			Listen: p.Span.Listen, Join: p.Span.Join, Partition: p.Span.Partition,
			Seed: cfg.FaultSeed, DropProb: drop, CorruptProb: corrupt,
			Incarnation: p.Span.Incarnation,
		}
	}
	FastDetect(cfg)
	var err error
	switch {
	case p.Policy == Online:
		err = r.online()
	case p.Workload == Allreduce:
		err = r.restart(allreduceJob)
	default:
		err = r.restart(exchangeJob)
	}
	return r.rep, err
}

// offWire is what of plan a wired run cannot inject: all but its drop
// and corrupt rates.
func offWire(plan *fault.Plan) fault.Plan {
	if plan == nil {
		return fault.Plan{}
	}
	rest := *plan
	rest.Drop, rest.Corrupt = 0, 0
	return rest
}

// run is one Run call's state: the plan, the report being filled, and
// what the policies share.
type run struct {
	Plan
	rep            *Report
	start          time.Time
	nTasks, lo, hi int
}

func (r *run) logf(format string, a ...any) { fmt.Fprintf(r.Out, format+"\n", a...) }

func (r *run) seed() int64 { return r.Machine.FaultSeed }

// FastDetect fills in the failure-detection settings the scenarios (and
// the chaos tests) run with, where the config leaves them open: in one
// process 200 µs beats and six missed ones, so a run turns around in
// milliseconds; over a wire the transport's own beat and ten missed
// ones, which rides out a scheduling hiccup of the peer process.
func FastDetect(cfg *machine.Config) {
	if cfg.Wire != nil {
		if cfg.PhiThreshold == 0 {
			cfg.PhiThreshold = 10
		}
		return
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 200 * time.Microsecond
	}
	if cfg.PhiThreshold == 0 {
		cfg.PhiThreshold = 6
	}
}

const joinTimeout = 30 * time.Second

// boot starts one machine generation — with the given nodes already
// dead, if they are another process's — and, when the partition spans
// processes, assembles it: the listen address is printed as soon as it
// is bound (peers are started with it) and pinned in the plan, because a
// later generation must rebind the same address or the survivors' join
// lists point at a listener that no longer exists.
func (r *run) boot(cfg machine.Config, dead []torus.Rank) (*machine.Machine, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	// Nodes of a peer process that died stay dead in a later generation;
	// declared before the assembly below, which would otherwise wait for
	// their process to join. (The monitor always exists in wire mode.)
	for _, n := range dead {
		if !m.Hosted(int(n) * cfg.PPN) {
			m.Health().DeclareDead(n)
		}
	}
	r.rep.Generations++
	r.rep.Machines = append(r.rep.Machines, m)
	w := m.Wire()
	if w == nil {
		return m, nil
	}
	if r.Span.Listen != "" {
		r.Machine.Wire.Listen = w.Addr()
		r.logf("wire listening on %s (hosting tasks [%d,%d) of %d, incarnation %d)", w.Addr(), r.lo, r.hi, r.nTasks, r.Span.Incarnation)
	}
	if err := m.WaitWire(joinTimeout); err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("assembling the wire partition: %w", err)
	}
	r.logf("wire partition assembled: %d peer process(es), epoch %d", len(w.Peers()), m.Epoch())
	return m, nil
}

// contexts creates a client and one context for every hosted task, before
// any task runs: a peer's first send then always finds its reception
// FIFO, and a rejoining process has consumers registered before the
// survivors' traffic resumes.
func (r *run) contexts(m *machine.Machine, name string) ([]*core.Context, error) {
	ctxs := make([]*core.Context, r.hi-r.lo)
	for i := range ctxs {
		cl, err := core.NewClient(m, m.Task(r.lo+i), name)
		if err != nil {
			return nil, err
		}
		cc, err := cl.CreateContexts(1)
		if err != nil {
			return nil, err
		}
		ctxs[i] = cc[0]
	}
	return ctxs, nil
}

// send ships one single-packet message, riding out what clears by itself:
// a transient refusal (a full queue, a throttled destination) is retried
// after a short settle — a bare spin here can starve this process's own
// heartbeat writer into a false death — and, with a recovery supervisor
// armed, a dead destination is waited back to life. Whatever it returns
// is either a typed death (core.Recoverable) or a bug.
func send(ctx *core.Context, dst int, dispatch uint16, meta, data []byte) error {
	var step int64
	return ctx.SendRetry(dst, 60*time.Second, func() error {
		err := ctx.SendImmediate(core.Endpoint{Task: dst}, dispatch, meta, data)
		if core.Transient(err) {
			step++
			time.Sleep(fault.Jitter(int64(dst), step, 100*time.Microsecond))
		}
		return err
	})
}

// dieAt is the chaos hook of the multi-process runs: the process kills
// itself, without a goodbye, on reaching the plan's round.
func (r *run) dieAt(task, round, die int) {
	if die < 0 || round != die {
		return
	}
	r.logf("task %d reached round %d: SIGKILL self (pid %d)", task, round, os.Getpid())
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // the signal is not survivable; never fall through
}

// settleWire holds a finished task until the wire transport has no
// unacknowledged frame in flight, pumping acks meanwhile: a process that
// tears its transport down before its last round is acknowledged loses
// the slower peer's final contribution and turns a clean finish into a
// spurious death. Quiesced skips confirmed-dead peers, and a death while
// waiting discards that peer's window, so this terminates.
func (r *run) settleWire(m *machine.Machine, ctx *core.Context, task int) {
	w := m.Wire()
	if w == nil {
		return
	}
	for step := int64(1); w.Quiesced() != nil; step++ {
		ctx.AdvanceAuto()
		time.Sleep(fault.Jitter(r.seed(), int64(task)<<40|0x1d<<32|step, 100*time.Microsecond))
	}
}

// verify compares every hosted task's final state with the analytic
// expectation, word for word, and writes the verdict: a digest line per
// task and the summary, which what names and detail fills in.
func (r *run) verify(what string, got, want func(task int) []uint64, detail string) error {
	for task := r.lo; task < r.hi; task++ {
		g, w := got(task), want(task)
		if !slices.Equal(g, w) {
			return fmt.Errorf("task %d digest %016x, want %016x — NOT byte-exact", task, foldWords(g), foldWords(w))
		}
		r.rep.Digests[task] = foldWords(g)
		r.rep.Lines = append(r.rep.Lines, fmt.Sprintf("task %d digest %016x", task, r.rep.Digests[task]))
	}
	r.rep.Lines = append(r.rep.Lines, fmt.Sprintf("%s passed in %v: %s, tasks [%d,%d) digests byte-exact",
		what, time.Since(r.start).Round(time.Millisecond), detail, r.lo, r.hi))
	return nil
}
