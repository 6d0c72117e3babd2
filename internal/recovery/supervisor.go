package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/fault"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
)

// State is the supervisor's recovery state machine. One recovery runs
// at a time (deaths queue); the state is observable for telemetry and
// tests but carries no locking duty of its own.
type State int32

// Recovery states: Idle (nothing in flight), Fencing (death confirmed,
// waiting out the settle window while the death wiring propagates),
// Restoring (reviving the victim and locating its replica), Resuming
// (handing the snapshot back to the application).
const (
	StateIdle State = iota
	StateFencing
	StateRestoring
	StateResuming
)

// String names the state for logs.
func (s State) String() string {
	switch s {
	case StateFencing:
		return "fencing"
	case StateRestoring:
		return "restoring"
	case StateResuming:
		return "resuming"
	default:
		return "idle"
	}
}

// settleDelay is the fencing window between a death confirmation and the
// revival: long enough for the death callbacks (flow failure, classroute
// shrink, blackholing) to finish propagating, short enough to keep MTTR
// in the single-digit milliseconds.
const settleDelay = 2 * time.Millisecond

// Config wires a Supervisor into its process.
type Config struct {
	// Nodes is the partition's node count; HostedLo/HostedHi is the node
	// range this process hosts ([0, Nodes) in a single-process machine).
	Nodes              int
	HostedLo, HostedHi int
	Telemetry          *telemetry.Registry
	// Seed drives the deterministic poll jitter (replica waits).
	Seed int64

	// Alive reports whether a node is currently in the live membership
	// (the health monitor's verdict). Used for leader election.
	Alive func(torus.Rank) bool
	// Revive performs the machine-level revival of a node: clear the
	// injected fault, reset fabric flows, regrow classroutes, return the
	// node to the health membership (epoch bump). When set, the
	// supervisor recovers locally observed deaths on its own: fence,
	// revive, restore from the buddy replica, and hand the snapshot to
	// OnRestore — the single-process path. Over a wire transport the
	// victim is another OS process, revival happens on its rejoin
	// handshake instead, and Revive stays nil.
	Revive func(torus.Rank) error
	// Replicate ships an encoded snapshot blob to the process hosting
	// the buddy node. nil means every buddy is in-process and the store
	// insert happens directly.
	Replicate func(buddy torus.Rank, blob []byte) error
}

// BuddyOf returns the buddy node holding node n's replica: the next
// node in ring order outside the owner's hosted node range [lo, hi) —
// the nearest different failure domain. When the owner hosts every node
// (single process) the buddy is simply the next node: the failure
// domain is then the simulated node itself, which preserves the
// placement rule's shape even though a process crash would take both
// copies (the chaos soak kills nodes, not the process, in that mode).
// Deterministic and owner-independent: survivors compute the same buddy
// for a victim's nodes as the victim did, from the victim's range.
func BuddyOf(n torus.Rank, nodes, lo, hi int) torus.Rank {
	for i := 1; i <= nodes; i++ {
		b := (int(n) + i) % nodes
		if b == int(n) {
			continue
		}
		if hi-lo < nodes && b >= lo && b < hi {
			continue // same failure domain as the owner
		}
		return torus.Rank(b)
	}
	return n
}

// Supervisor is the per-process recovery coordinator: it owns the
// checkpoint store, runs the detect → fence → restore → resume state
// machine, and accounts the recovery.* telemetry subtree.
type Supervisor struct {
	cfg   Config
	store *Store
	state atomic.Int32

	mu        sync.Mutex
	deathAt   map[torus.Rank]time.Time
	onRestore func(*Snapshot)

	restoreQ chan torus.Rank
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// waitSite is the stall-sentinel site replica waits register with;
	// nil until SetSentinel wires one.
	waitSite atomic.Pointer[watchdog.Site]

	checkpoints *telemetry.Counter
	replicas    *telemetry.Counter
	restores    *telemetry.Counter
	corrupt     *telemetry.Counter
	freshStarts *telemetry.Counter
	mttrNS      *telemetry.Gauge
}

// NewSupervisor builds and starts a supervisor.
func NewSupervisor(cfg Config) (*Supervisor, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("recovery: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.HostedLo < 0 || cfg.HostedHi > cfg.Nodes || cfg.HostedLo >= cfg.HostedHi {
		return nil, fmt.Errorf("recovery: hosted node range [%d,%d) outside the %d-node partition",
			cfg.HostedLo, cfg.HostedHi, cfg.Nodes)
	}
	s := &Supervisor{
		cfg:      cfg,
		store:    NewStore(),
		deathAt:  make(map[torus.Rank]time.Time),
		restoreQ: make(chan torus.Rank, cfg.Nodes+1),
		stopCh:   make(chan struct{}),
	}
	g := cfg.Telemetry
	if g == nil {
		g = telemetry.NewRegistry("recovery")
	} else {
		g = g.Group("recovery")
	}
	s.checkpoints = g.Counter("checkpoints")
	s.replicas = g.Counter("replicas")
	s.restores = g.Counter("restores")
	s.corrupt = g.Counter("corrupt_replicas")
	s.freshStarts = g.Counter("fresh_starts")
	s.mttrNS = g.Gauge("mttr_ns")
	s.wg.Add(1)
	go s.worker()
	return s, nil
}

// Stop halts the supervisor's recovery worker. Idempotent.
func (s *Supervisor) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// Store returns the supervisor's checkpoint store.
func (s *Supervisor) Store() *Store { return s.store }

// State returns the current recovery state.
func (s *Supervisor) State() State { return State(s.state.Load()) }

// OnRestore registers the application hook invoked with the restored
// snapshot at the end of an automatic recovery — the application
// relaunches the victim's tasks from it. At most one hook.
func (s *Supervisor) OnRestore(fn func(*Snapshot)) {
	s.mu.Lock()
	s.onRestore = fn
	s.mu.Unlock()
}

// Buddy returns the replica holder for one of this process's own nodes.
func (s *Supervisor) Buddy(n torus.Rank) torus.Rank {
	return BuddyOf(n, s.cfg.Nodes, s.cfg.HostedLo, s.cfg.HostedHi)
}

// Leader returns the recovery leader: the lowest alive node rank in the
// current epoch. Deterministic across processes — every survivor
// elects the same leader from the same membership view.
func (s *Supervisor) Leader() torus.Rank {
	for n := 0; n < s.cfg.Nodes; n++ {
		if s.cfg.Alive == nil || s.cfg.Alive(torus.Rank(n)) {
			return torus.Rank(n)
		}
	}
	return 0
}

// IsLeader reports whether this process hosts the recovery leader.
func (s *Supervisor) IsLeader() bool {
	l := int(s.Leader())
	return l >= s.cfg.HostedLo && l < s.cfg.HostedHi
}

// Checkpoint saves one hosted node's state at the given version: the
// local copy lands in the store, the encoded blob ships to the buddy.
// Asynchronous by design — no barrier, no quiescence; callers invoke it
// from their own progress loop whenever the interval crosses. data is
// copied, so the caller may reuse its buffer.
func (s *Supervisor) Checkpoint(node torus.Rank, version uint64, data []byte) error {
	snap := &Snapshot{Node: node, Version: version, Data: append([]byte(nil), data...)}
	s.store.PutLocal(snap)
	s.checkpoints.Inc()
	buddy := s.Buddy(node)
	if s.cfg.Replicate != nil {
		return s.cfg.Replicate(buddy, snap.Encode())
	}
	// Single failure domain: the buddy lives in this store.
	s.store.PutReplica(snap)
	s.replicas.Inc()
	return nil
}

// AcceptReplica ingests an encoded replica blob (from the wire
// transport's replica frames, or the local Replicate shortcut). A blob
// that fails validation is rejected with ErrCorruptSnapshot and
// counted — the previous replica, if any, stays in place.
func (s *Supervisor) AcceptReplica(blob []byte) error {
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		s.corrupt.Inc()
		return err
	}
	s.store.PutReplica(snap)
	s.replicas.Inc()
	return nil
}

// ReplicaResponse decides this process's duty toward a rejoining victim
// hosting nodes [victimLo, victimHi): for victim node n, if this
// process hosts n's buddy it must answer — with the held replica, or
// with an empty version-0 snapshot when none was ever replicated (the
// victim died before its first checkpoint), so the victim never blocks
// on a holder with nothing to say. ok=false means another process is
// the designated responder.
func (s *Supervisor) ReplicaResponse(n torus.Rank, victimLo, victimHi int) (blob []byte, ok bool) {
	buddy := int(BuddyOf(n, s.cfg.Nodes, victimLo, victimHi))
	if buddy < s.cfg.HostedLo || buddy >= s.cfg.HostedHi {
		return nil, false
	}
	snap := s.store.Replica(n)
	if snap == nil {
		snap = &Snapshot{Node: n}
	}
	return snap.Encode(), true
}

// AwaitReplica blocks until a replica for node n is in the store (a
// rejoined victim waiting for its buddy's push), polling on a seeded
// jitter. Returns the snapshot — possibly the version-0 empty snapshot
// meaning "start fresh" — or, on timeout, a typed deadline abort
// (errors.Is(err, abort.ErrAborted)) so callers distinguish "buddy
// never pushed" from replica decode failures. While waiting, the park
// is visible in the sentinel's wait-site table when one is wired.
func (s *Supervisor) AwaitReplica(n torus.Rank, timeout time.Duration) (*Snapshot, error) {
	if st := s.waitSite.Load(); st != nil {
		var park watchdog.Park
		st.Attach(&park, nil) // observe-only: the poll below owns the deadline
		park.Enter()
		defer park.Detach()
	}
	deadline := time.Now().Add(timeout)
	for step := int64(0); ; step++ {
		if snap := s.store.Replica(n); snap != nil {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return nil, abort.Wrap(abort.KindDeadline, "recovery.await.replica",
				fmt.Errorf("recovery: no replica for node %d arrived within %v", n, timeout))
		}
		time.Sleep(fault.Jitter(s.cfg.Seed, step, time.Millisecond))
	}
}

// SetSentinel registers the replica-wait site with the partition stall
// sentinel so a victim stuck waiting for its buddy's push shows up in
// hang dumps. The wait keeps its own timeout, so the site is
// observe-only.
func (s *Supervisor) SetSentinel(sent *watchdog.Sentinel) {
	if sent == nil {
		return
	}
	s.waitSite.Store(sent.Site("recovery.await.replica"))
}

// NoteDeath records a confirmed death (machine wiring calls it from the
// health monitor's death callback — it must not block). With Revive
// set the death queues for the recovery worker; otherwise it only
// stamps the clock that MTTR is measured from when the node rejoins.
func (s *Supervisor) NoteDeath(n torus.Rank) {
	s.mu.Lock()
	s.deathAt[n] = time.Now()
	s.mu.Unlock()
	if s.cfg.Revive != nil {
		select {
		case s.restoreQ <- n:
		default: // queue full: worker is drowning; drop rather than block the detector
		}
	}
}

// NoteRestored accounts a completed restore: bumps recovery.restores
// and publishes MTTR (death confirmation → restore complete) on
// recovery.mttr_ns. The wire rejoin path calls it after reviving a
// remote victim; the in-process worker calls it itself.
func (s *Supervisor) NoteRestored(n torus.Rank) {
	s.mu.Lock()
	t0, ok := s.deathAt[n]
	delete(s.deathAt, n)
	s.mu.Unlock()
	s.restores.Inc()
	if ok {
		s.mttrNS.Set(time.Since(t0).Nanoseconds())
	}
}

// worker serializes automatic recoveries: one victim at a time, in
// death-confirmation order.
func (s *Supervisor) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case n := <-s.restoreQ:
			s.recover(n)
		}
	}
}

// recover runs one victim through fence → restore → resume.
func (s *Supervisor) recover(n torus.Rank) {
	defer s.state.Store(int32(StateIdle))
	s.state.Store(int32(StateFencing))
	// Fencing window: the death wiring (flow failure, classroute
	// shrink, blackholing) finishes propagating before the world is
	// told the node is back.
	tm := time.NewTimer(settleDelay)
	select {
	case <-s.stopCh:
		tm.Stop()
		return
	case <-tm.C:
	}
	s.state.Store(int32(StateRestoring))
	snap := s.store.Replica(n)
	if snap == nil {
		// Died before the first checkpoint interval: restart from zero.
		snap = &Snapshot{Node: n}
		s.freshStarts.Inc()
	}
	if err := s.cfg.Revive(n); err != nil {
		return
	}
	s.state.Store(int32(StateResuming))
	s.NoteRestored(n)
	s.mu.Lock()
	cb := s.onRestore
	s.mu.Unlock()
	if cb != nil {
		cb(snap)
	}
}
