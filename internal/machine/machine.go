// Package machine assembles a functional Blue Gene/Q system out of the
// hardware substrates: CNK nodes with processes and hardware threads
// (internal/cnk), the Message Unit + torus data plane (internal/mu),
// per-node shared memory segments (internal/shmem), and the collective
// network with classroutes (internal/collnet).
//
// A Machine is the "job": dims.Nodes() nodes with a fixed number of
// processes per node, task ranks assigned node-major as on the real
// system. Run launches one goroutine per process — real concurrency, so
// the lockless algorithms above this layer are exercised in earnest — and
// joins them all.
package machine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/fault"
	"pamigo/internal/health"
	"pamigo/internal/mu"
	"pamigo/internal/recovery"
	"pamigo/internal/shmem"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
	"pamigo/internal/wire"
)

// Config describes the job to boot.
type Config struct {
	// Dims is the torus shape; every dimension must be at least 1.
	Dims torus.Dims
	// PPN is the number of processes per node (1..64, power of two).
	PPN int
	// RecFIFOSlots sizes each reception FIFO's lock-free array; 0 picks a
	// default of 256 packets.
	RecFIFOSlots int
	// TrackHops enables per-packet hop accounting in the fabric.
	TrackHops bool
	// Faults, when non-nil and active, arms deterministic fault injection
	// on the data planes: the fabric runs the CRC/retransmit reliable
	// layer and the collective network rebuilds classroutes around links
	// the plan takes down.
	Faults *fault.Plan
	// FaultSeed seeds the fault plan's deterministic decision hash.
	FaultSeed int64
	// HeartbeatInterval overrides the health monitor's beat period; 0
	// picks the wire transport's beat interval in wire mode — suspicion
	// is counted in the beats the peers actually send — and the health
	// default (1ms) otherwise.
	HeartbeatInterval time.Duration
	// PhiThreshold overrides the suspicion threshold (silent heartbeat
	// periods before a node is declared dead); 0 picks the default (8).
	PhiThreshold float64
	// Wire, when non-nil, makes this process host only the task range
	// [HostedLo, HostedHi) and reach the rest of the partition through a
	// wire transport (TCP or Unix sockets) — the partition spans OS
	// processes. The health monitor is always armed in wire mode: remote
	// nodes prove liveness with every frame they send (beat frames when
	// they have nothing else to say), and a process that dies (even
	// SIGKILL) is confirmed dead by phi accrual.
	Wire *wire.Options
	// HostedLo/HostedHi is the locally hosted task range in wire mode,
	// node-aligned (multiples of PPN). Both zero means "host everything"
	// (useful for a single-process wire-mode reference run).
	HostedLo, HostedHi int
	// Recovery arms the self-healing subsystem: a recovery.Supervisor
	// that keeps buddy-replicated in-memory checkpoints and, in a single
	// process, turns a confirmed death into an online restart. Its replica
	// waits jitter from FaultSeed. Arms the health monitor.
	Recovery bool
	// StallDeadline, when positive, arms the partition stall sentinel:
	// any registered wait (team barriers, collective credit gates, MU
	// link stalls) parked longer than this is escalated into a typed
	// abort instead of hanging. Zero leaves the sentinel observe-only —
	// the wait-site table still populates for hang dumps, but nothing
	// is ever aborted by deadline.
	StallDeadline time.Duration
}

// validateHosted checks the wire-mode task range, with messages that
// tell the operator what to fix rather than just what is wrong.
func validateHosted(cfg *Config) error {
	nTasks := cfg.Dims.Nodes() * cfg.PPN
	if cfg.HostedLo == 0 && cfg.HostedHi == 0 {
		cfg.HostedHi = nTasks
	}
	if cfg.HostedLo < 0 || cfg.HostedHi > nTasks {
		return fmt.Errorf("machine: hosted task range [%d,%d) outside the partition's %d tasks (dims %v x PPN %d); adjust -rank-range",
			cfg.HostedLo, cfg.HostedHi, nTasks, cfg.Dims, cfg.PPN)
	}
	if cfg.HostedLo >= cfg.HostedHi {
		return fmt.Errorf("machine: hosted task range [%d,%d) is empty; a process must host at least one node's tasks",
			cfg.HostedLo, cfg.HostedHi)
	}
	if cfg.HostedLo%cfg.PPN != 0 || cfg.HostedHi%cfg.PPN != 0 {
		return fmt.Errorf("machine: hosted task range [%d,%d) splits a node: with PPN %d both bounds must be multiples of %d so same-node tasks share a process (the shared-memory path requires it)",
			cfg.HostedLo, cfg.HostedHi, cfg.PPN, cfg.PPN)
	}
	return nil
}

// Machine is a booted functional BG/Q system.
type Machine struct {
	cfg Config

	nodes  []*cnk.Node
	shm    []*shmem.Node
	fabric *mu.Fabric
	coll   *collnet.Network
	tasks  []*cnk.Process
	tele   *telemetry.Registry

	// hmon is the heartbeat failure detector, armed when the fault plan
	// kills or freezes nodes or when the machine runs in wire mode; nil
	// otherwise (zero steady-state cost).
	hmon *health.Monitor

	// wt is the inter-process transport; nil in single-process mode.
	wt *wire.Transport

	// rsup is the self-healing coordinator, armed by Config.Recovery;
	// nil otherwise.
	rsup *recovery.Supervisor

	// sentinel is the partition stall sentinel: every abortable wait
	// site registers with it, and Config.StallDeadline arms escalation.
	sentinel  *watchdog.Sentinel
	unregDump func()

	geoMu  sync.Mutex
	geoReg map[uint64]any

	// deathHooks run at the end of the death propagation below, keyed by
	// registration order so OnDeath's detach can remove one.
	deathMu    sync.Mutex
	deathHooks map[uint64]func(torus.Rank)
	deathSeq   uint64
}

// New boots a machine: builds every node, maps every task onto the torus,
// and wires the data planes.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Dims.Validate(); err != nil {
		return nil, err
	}
	if !cnk.ValidPPN(cfg.PPN) {
		return nil, fmt.Errorf("machine: invalid processes-per-node %d", cfg.PPN)
	}
	if cfg.RecFIFOSlots == 0 {
		cfg.RecFIFOSlots = 256
	}
	fabric, err := mu.NewFabric(cfg.Dims, cfg.RecFIFOSlots)
	if err != nil {
		return nil, err
	}
	fabric.TrackHops = cfg.TrackHops
	m := &Machine{
		cfg:    cfg,
		fabric: fabric,
		coll:   collnet.New(cfg.Dims),
		geoReg: make(map[uint64]any),
		tele:   telemetry.NewRegistry("machine"),

		deathHooks: make(map[uint64]func(torus.Rank)),
	}
	// One registry tree for the whole job: the substrates' private
	// registries become groups, and the software layers above (core, mpi)
	// hang their own groups off the root.
	m.tele.Adopt(fabric.Telemetry())
	m.tele.Adopt(m.coll.Telemetry())
	// The buffer pool is process-global (slabs flow between machines'
	// layers freely); its registry reports process-wide live/miss counts.
	m.tele.Adopt(bufpool.Telemetry())
	// The stall sentinel always exists (observe-only when no deadline is
	// configured) so the wait-site table is available for hang dumps;
	// every abortable layer registers its sites with it.
	m.sentinel = watchdog.NewSentinel(m.tele)
	fabric.SetSentinel(m.sentinel)
	m.coll.SetSentinel(m.sentinel)
	if cfg.StallDeadline > 0 {
		m.sentinel.Arm(cfg.StallDeadline, 0)
	}
	sent := m.sentinel
	m.unregDump = watchdog.RegisterDump(func(w io.Writer) {
		fmt.Fprintf(w, "machine %s wait sites:\n%s", cfg.Dims, sent.Render())
	})
	for r := 0; r < cfg.Dims.Nodes(); r++ {
		node, err := cnk.NewNode(torus.Rank(r), cfg.PPN, r*cfg.PPN)
		if err != nil {
			return nil, err
		}
		m.nodes = append(m.nodes, node)
		m.shm = append(m.shm, shmem.NewNode(torus.Rank(r)))
		for _, p := range node.Procs() {
			fabric.MapTask(p.TaskRank(), torus.Rank(r))
			m.tasks = append(m.tasks, p)
		}
	}
	needHmon := cfg.Wire != nil || cfg.Recovery ||
		(cfg.Faults != nil && cfg.Faults.Active() && cfg.Faults.HasNodeFaults())
	if needHmon {
		if cfg.Wire != nil && cfg.HeartbeatInterval == 0 {
			// Remote nodes beat at the wire's pace, so that is the unit
			// PhiThreshold counts in: at the health default of 1 ms a
			// threshold of 8 would mean four missed 2 ms wire beats.
			cfg.HeartbeatInterval = cfg.Wire.BeatInterval
			if cfg.HeartbeatInterval <= 0 {
				cfg.HeartbeatInterval = wire.DefaultBeatInterval
			}
		}
		hmon, err := health.NewMonitor(health.Config{
			Nodes:        cfg.Dims.Nodes(),
			BeatInterval: cfg.HeartbeatInterval,
			PhiThreshold: cfg.PhiThreshold,
			Telemetry:    m.tele,
		})
		if err != nil {
			return nil, err
		}
		m.hmon = hmon
		// The monitor is the one membership record: the fabric and the
		// collective network ask it who is dead and keep no copy.
		fabric.SetHealth(hmon)
		m.coll.SetHealth(hmon)
		// Confirmed death (the epoch has already moved): propagate
		// through every layer —
		//   collnet: shrink classroutes, fail in-flight sessions
		//   cnk:     stop the dead node's commthreads
		//   wire:    fail queued and future sends with ErrPeerDead
		// then wake every parked context so survivors observe the new
		// epoch instead of sleeping on a signal that will never come. The
		// fabric needs no call: a sender the reliable link holds asks the
		// monitor at every wait, and fails within one backoff.
		hmon.OnDeath(func(n torus.Rank) {
			m.coll.HandleMembership(n)
			m.nodes[n].StopCommThreads()
			if m.wt != nil {
				m.wt.MarkTaskDead(int(n) * cfg.PPN)
			}
			m.deathMu.Lock()
			for _, fn := range m.deathHooks {
				fn(n)
			}
			m.deathMu.Unlock()
			m.fabric.TouchAll()
		})
	}
	if cfg.Faults != nil && cfg.Faults.Active() {
		inj, err := fault.NewInjector(cfg.Dims, *cfg.Faults, cfg.FaultSeed)
		if err != nil {
			return nil, err
		}
		// The collective network learns about dead cables from the same
		// injector the fabric consults, so classroutes are rebuilt as the
		// plan fires link-down events mid-run.
		inj.OnLinkDown(func(n torus.Rank, l torus.Link) {
			m.coll.HandleLinkDown(n, l)
		})
		fabric.InstallFaults(inj)
		if cfg.Faults.HasNodeFaults() {
			// A node fault firing silences the node's heartbeats; the
			// monitor then accrues suspicion until it confirms the death.
			// (The fabric blackholes the node's traffic from the same
			// injector event, no wiring needed.)
			inj.OnNodeFault(func(nf fault.NodeFault) {
				m.hmon.Silence(nf.Node)
			})
		}
	}
	if cfg.Wire != nil {
		if err := validateHosted(&m.cfg); err != nil {
			return nil, err
		}
		cfg.HostedLo, cfg.HostedHi = m.cfg.HostedLo, m.cfg.HostedHi
		// Remote nodes prove liveness with the frames they send over the
		// wire, not the simulated service network: mark them external so
		// silence accrues suspicion once their process has joined.
		for r := 0; r < cfg.Dims.Nodes(); r++ {
			if task := r * cfg.PPN; task < cfg.HostedLo || task >= cfg.HostedHi {
				m.hmon.SetExternal(torus.Rank(r))
			}
		}
		wt, err := wire.New(wire.Config{
			Options:  *cfg.Wire,
			Dims:     cfg.Dims,
			PPN:      cfg.PPN,
			HostedLo: cfg.HostedLo,
			HostedHi: cfg.HostedHi,
			Deliver:  fabric.DeliverRemoteBurst,
			BurstEnd: fabric.EndRemoteBurst,
			OnBeat: func(taskLo, taskHi int) {
				for r := taskLo / cfg.PPN; r < (taskHi+cfg.PPN-1)/cfg.PPN; r++ {
					m.hmon.Beat(torus.Rank(r))
				}
			},
			RangeDead: func(lo, hi int) bool {
				for r := lo / cfg.PPN; r < (hi+cfg.PPN-1)/cfg.PPN; r++ {
					if m.hmon.Dead(torus.Rank(r)) {
						return true
					}
				}
				return false
			},
			// A dead peer range reconnecting with a higher incarnation is a
			// recovered process rejoining. If this process holds buddy
			// replicas for any of the victim's nodes, they are enqueued
			// FIRST — the rejoin admission pre-created the peer record, so
			// the replica becomes frame #1 of the new incarnation's stream.
			// Only then are the nodes revived through the full chain
			// (fabric flow reset, membership epoch bump, classroute
			// regrow): revival unparks senders blocked in retry loops, and
			// their data must sequence BEHIND the replica, because the
			// rejoined process cannot consume data until its tasks have
			// restored from it (head-of-line deadlock otherwise).
			OnRejoin: func(taskLo, taskHi int, incarnation uint32) {
				loN, hiN := taskLo/cfg.PPN, (taskHi+cfg.PPN-1)/cfg.PPN
				if m.rsup != nil {
					for r := loN; r < hiN; r++ {
						if blob, ok := m.rsup.ReplicaResponse(torus.Rank(r), loN, hiN); ok {
							if err := m.wt.SendReplica(r*cfg.PPN, blob); err != nil {
								go m.pushReplica(r*cfg.PPN, blob)
							}
						}
					}
				}
				for r := loN; r < hiN; r++ {
					m.Revive(torus.Rank(r))
				}
				if m.rsup == nil {
					return
				}
				for r := loN; r < hiN; r++ {
					m.rsup.NoteRestored(torus.Rank(r))
				}
			},
			OnReplica: func(blob []byte) {
				if m.rsup != nil {
					m.rsup.AcceptReplica(blob)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		m.wt = wt
		// The hang dump gets the link table: every peer's state and why
		// its connection last broke.
		unregSites, unregLinks := m.unregDump, watchdog.RegisterDump(wt.WriteLinks)
		m.unregDump = func() { unregSites(); unregLinks() }
		m.tele.Adopt(wt.Telemetry())
		fabric.InstallTransport(wt)
	}
	if cfg.Recovery {
		rcfg := recovery.Config{
			Nodes:     cfg.Dims.Nodes(),
			HostedHi:  cfg.Dims.Nodes(),
			Telemetry: m.tele,
			Seed:      cfg.FaultSeed,
			Alive:     func(n torus.Rank) bool { return m.hmon.Alive(n) },
			Revive:    m.Revive,
		}
		if m.wt != nil {
			rcfg.HostedLo, rcfg.HostedHi = m.cfg.HostedLo/cfg.PPN, m.cfg.HostedHi/cfg.PPN
			// Over a wire, a dead node means a dead OS process: nothing in
			// this process can revive it. Recovery there is respawn + rejoin
			// handshake, so the in-process auto path stays off.
			rcfg.Revive = nil
			rcfg.Replicate = func(buddy torus.Rank, blob []byte) error {
				if m.Hosted(int(buddy) * cfg.PPN) {
					return m.rsup.AcceptReplica(blob)
				}
				return m.wt.SendReplica(int(buddy)*cfg.PPN, blob)
			}
		}
		rsup, err := recovery.NewSupervisor(rcfg)
		if err != nil {
			return nil, err
		}
		m.rsup = rsup
		m.rsup.SetSentinel(m.sentinel)
		// Registered after the death-propagation callback above, so by the
		// time the supervisor fences a victim the flows are already failed
		// and the classroutes already shrunk.
		m.hmon.OnDeath(m.rsup.NoteDeath)
	}
	if m.hmon != nil {
		m.hmon.Start()
	}
	return m, nil
}

// pushReplica ships a buddy replica to a freshly rejoined victim,
// retrying while its peer record attaches (the rejoin hook fires before
// the handshake completes) and while the send queue back-pressures.
func (m *Machine) pushReplica(dstTask int, blob []byte) {
	for i := 0; i < 400; i++ {
		err := m.wt.SendReplica(dstTask, blob)
		if err == nil || errors.Is(err, wire.ErrClosed) || errors.Is(err, wire.ErrFrameTooLarge) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Revive returns a confirmed-dead node to service: clears its injected
// fault so it can heartbeat again, resets every fabric flow touching it
// (fresh flows restart at sequence 1 on both sides), re-admits it to the
// health membership (epoch bump), regrows the classroutes it belongs to,
// and wakes every parked context so blocked callers observe the new
// epoch. The order matters: the flows are torn down while health still
// calls the node dead, so no sender resumes the dead incarnation's
// stream; and the epoch moves before collnet fails sessions, as it does
// for a death. Idempotent: reviving an alive node is a no-op.
// Restarting the node's application tasks — and its commthreads, if the
// workload uses them — is the caller's job after Revive returns.
func (m *Machine) Revive(n torus.Rank) error {
	if !m.hmon.Dead(n) {
		return nil
	}
	if inj := m.fabric.Injector(); inj != nil {
		inj.ClearNodeFault(n)
	}
	m.fabric.ReviveNode(n)
	m.hmon.Revive(n)
	m.coll.HandleMembership(n)
	m.fabric.TouchAll()
	return nil
}

// OnDeath registers fn to run on every confirmed node death, after the
// machine has propagated the death through its own layers (classroutes
// shrunk, commthreads stopped, the epoch already moved) and before the recovery
// supervisor hears of it — so a hook's effects precede any revival. The
// layers above use it for state that must fail eagerly rather than at
// the next membership gate (core: the node teams of every geometry that
// lists the dead node). fn runs under the hook table's lock: it must not
// block, nor register or detach a hook. The returned detach removes the
// hook. Without a failure detector no death is ever confirmed and the
// hook never runs.
func (m *Machine) OnDeath(fn func(torus.Rank)) (detach func()) {
	m.deathMu.Lock()
	defer m.deathMu.Unlock()
	m.deathSeq++
	id := m.deathSeq
	m.deathHooks[id] = fn
	return func() {
		m.deathMu.Lock()
		delete(m.deathHooks, id)
		m.deathMu.Unlock()
	}
}

// Quiesced is the checkpoint precondition: nil only when nothing is in
// flight — every reception FIFO is empty, no send is inside the reliable
// link and, in wire mode, every frame to every live peer has been
// acknowledged — so a snapshot taken now holds no
// transport state and a restart (machine.New on the same Config, its
// transports starting clean) never replays or loses a message. Callers
// stop initiating traffic and drain their contexts (core.Context.Drain)
// first; otherwise the error names the busy component.
func (m *Machine) Quiesced() error {
	if err := m.fabric.Quiesced(); err != nil {
		return fmt.Errorf("machine: checkpoint refused, data plane not quiescent: %w", err)
	}
	if m.wt != nil {
		if err := m.wt.Quiesced(); err != nil {
			return fmt.Errorf("machine: checkpoint refused, wire transport not quiescent: %w", err)
		}
	}
	return nil
}

// Recovery returns the self-healing coordinator, or nil when
// Config.Recovery did not arm it.
func (m *Machine) Recovery() *recovery.Supervisor { return m.rsup }

// Sentinel returns the partition stall sentinel. Always non-nil;
// observe-only unless Config.StallDeadline armed escalation.
func (m *Machine) Sentinel() *watchdog.Sentinel { return m.sentinel }

// Health returns the heartbeat failure detector, or nil when neither
// node faults nor wire mode armed it.
func (m *Machine) Health() *health.Monitor { return m.hmon }

// Wire returns the inter-process transport, or nil in single-process
// mode.
func (m *Machine) Wire() *wire.Transport { return m.wt }

// Hosted reports whether the given task runs in this process. Always
// true in single-process mode.
func (m *Machine) Hosted(task int) bool {
	return m.wt == nil || m.wt.Local(task)
}

// HostedRange returns the locally hosted task range [lo, hi); the full
// range in single-process mode.
func (m *Machine) HostedRange() (lo, hi int) {
	if m.wt == nil {
		return 0, len(m.tasks)
	}
	return m.wt.HostedRange()
}

// WaitWire blocks until every task of the partition is reachable — all
// peer processes joined (or resolved dead) — failing fast on terminal
// handshake errors. A no-op in single-process mode.
func (m *Machine) WaitWire(timeout time.Duration) error {
	if m.wt == nil {
		return nil
	}
	return m.wt.WaitComplete(timeout)
}

// Epoch returns the cluster membership epoch: 0 at boot and whenever no
// failure detector is armed, +1 per confirmed node death and per
// revival. One atomic load; contexts compare it against their cached
// value every advance.
func (m *Machine) Epoch() int64 { return m.hmon.Epoch() }

// Alive reports whether the node hosting the given task has not been
// confirmed dead.
func (m *Machine) Alive(task int) bool { return m.hmon.Alive(m.tasks[task].Node().Rank) }

// Crashed reports whether the node hosting the given task has a node
// fault fired against it (crash or hang) — true from the instant the
// injector fires, before the health monitor confirms the death. Workload
// goroutines simulating processes on that node poll it and stop
// executing, the cooperative analogue of the process being gone.
func (m *Machine) Crashed(task int) bool {
	inj := m.fabric.Injector()
	if inj == nil {
		return false
	}
	return inj.NodeFaulted(m.tasks[task].Node().Rank)
}

// Config returns the machine's boot configuration.
func (m *Machine) Config() Config { return m.cfg }

// Dims returns the torus shape.
func (m *Machine) Dims() torus.Dims { return m.cfg.Dims }

// Nodes returns the number of nodes.
func (m *Machine) Nodes() int { return len(m.nodes) }

// Tasks returns the total number of processes in the job.
func (m *Machine) Tasks() int { return len(m.tasks) }

// Task returns the process with the given global task rank.
func (m *Machine) Task(rank int) *cnk.Process { return m.tasks[rank] }

// Node returns the node with the given torus rank.
func (m *Machine) Node(r torus.Rank) *cnk.Node { return m.nodes[r] }

// NodeOf returns the node hosting the given task.
func (m *Machine) NodeOf(task int) *cnk.Node { return m.nodes[m.tasks[task].Node().Rank] }

// Shmem returns the shared-memory segment of the node with torus rank r.
func (m *Machine) Shmem(r torus.Rank) *shmem.Node { return m.shm[r] }

// Fabric returns the MU/torus data plane.
func (m *Machine) Fabric() *mu.Fabric { return m.fabric }

// Telemetry returns the job-wide counter registry: the fabric's and
// collective network's registries are adopted as groups, and each
// software layer (core, mpi) adds its own. Snapshot it for the tables
// the -stats flags print.
func (m *Machine) Telemetry() *telemetry.Registry { return m.tele }

// CollNet returns the classroute manager.
func (m *Machine) CollNet() *collnet.Network { return m.coll }

// SameNode reports whether two tasks share a node.
func (m *Machine) SameNode(a, b int) bool {
	return m.tasks[a].Node() == m.tasks[b].Node()
}

// Run launches fn once per locally hosted process, each on its own
// goroutine, and waits for all of them — the SPMD main() of the job. In
// wire mode only the hosted task range runs here; the rest of the
// partition runs in its own OS processes.
func (m *Machine) Run(fn func(p *cnk.Process)) {
	var wg sync.WaitGroup
	for _, p := range m.tasks {
		p := p
		if !m.Hosted(p.TaskRank()) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p)
		}()
	}
	wg.Wait()
}

// SharedState returns the process-shared object registered under key,
// creating it with mk on first use. PAMI geometries use it for the state
// that on the real machine lives in a shared memory segment (local
// barriers, contribution slots, classroutes).
func (m *Machine) SharedState(key uint64, mk func() any) any {
	m.geoMu.Lock()
	defer m.geoMu.Unlock()
	if v, ok := m.geoReg[key]; ok {
		return v
	}
	v := mk()
	m.geoReg[key] = v
	return v
}

// DropSharedState removes a shared object once every user detached.
func (m *Machine) DropSharedState(key uint64) {
	m.geoMu.Lock()
	delete(m.geoReg, key)
	m.geoMu.Unlock()
}

// Shutdown stops machine-owned background activity: commthreads started
// through the cnk nodes, and the fabric's reliable link, whose waiting
// senders then fail with mu.ErrFabricClosed.
func (m *Machine) Shutdown() {
	// The wire transport goes first: its read loops deliver into the
	// fabric and its beats feed the monitor, so nothing may arrive after
	// the layers below stop.
	if m.wt != nil {
		m.wt.Close()
	}
	if m.hmon != nil {
		m.hmon.Stop()
	}
	if m.rsup != nil {
		m.rsup.Stop()
	}
	m.sentinel.Stop()
	if m.unregDump != nil {
		m.unregDump()
	}
	for _, n := range m.nodes {
		n.StopCommThreads()
	}
	m.fabric.Close()
}
