package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
)

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

	// Revive performs the machine-level revival of a node: clear the
	// injected fault, reset fabric flows, regrow classroutes, return the
	// node to the health membership (epoch bump). When set, the
	// supervisor recovers locally observed deaths on its own: fence,
	// revive, and publish the buddy replica as the node's restore — the
	// single-process path. Over a wire transport the victim is another
	// OS process, revival happens on its rejoin handshake instead, and
	// Revive stays nil.
	Revive func(torus.Rank) error
	// Replicate ships an encoded snapshot blob to the process hosting
	// the buddy node when that is another process. A buddy this process
	// hosts gets the replica in its store directly.
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
// checkpoint store, fences and revives locally observed deaths,
// publishes each node's restores, and accounts the recovery.* telemetry
// subtree. It starts no goroutine for a restored task: the task's own
// goroutine takes its restore (AwaitRestore), so a context keeps one
// advancer (paper §III.B) across every crash.
type Supervisor struct {
	cfg   Config
	store *Store

	mu      sync.Mutex
	deathAt map[torus.Rank]time.Time
	latest  map[torus.Rank]restore // each node's newest published restore
	// published is closed at every publish; the next waiter makes a new
	// one. nil while nobody waits.
	published chan struct{}

	restoreQ chan torus.Rank
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// waitSite is the stall-sentinel site restore waits register with;
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
		latest:   make(map[torus.Rank]restore),
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

// Buddy returns the replica holder for one of this process's own nodes.
func (s *Supervisor) Buddy(n torus.Rank) torus.Rank {
	return BuddyOf(n, s.cfg.Nodes, s.cfg.HostedLo, s.cfg.HostedHi)
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
	if buddy := s.Buddy(node); s.cfg.Replicate != nil && !s.hosts(buddy) {
		return s.cfg.Replicate(buddy, snap.Encode())
	}
	// The buddy lives in this store.
	s.store.PutReplica(snap)
	s.replicas.Inc()
	return nil
}

// hosts reports whether node n is one of this process's.
func (s *Supervisor) hosts(n torus.Rank) bool {
	return int(n) >= s.cfg.HostedLo && int(n) < s.cfg.HostedHi
}

// AcceptReplica ingests an encoded replica blob from the wire
// transport's replica frames. A blob that fails validation is rejected
// with ErrCorruptSnapshot and counted — the previous replica, if any,
// stays in place. A replica of a node this process hosts can only be a
// buddy's push to a rejoined incarnation, so it is published as that
// node's restore.
func (s *Supervisor) AcceptReplica(blob []byte) error {
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		s.corrupt.Inc()
		return err
	}
	s.store.PutReplica(snap)
	s.replicas.Inc()
	if s.hosts(snap.Node) {
		s.publish(snap)
	}
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

// restore is one published restore of a node: the snapshot its tasks
// resume from, and how many restores of the node were published up to
// and including it.
type restore struct {
	snap *Snapshot
	seq  uint64
}

// publish makes snap node snap.Node's latest restore and wakes every
// AwaitRestore.
func (s *Supervisor) publish(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latest[snap.Node] = restore{snap: snap, seq: s.latest[snap.Node].seq + 1}
	if s.published != nil {
		close(s.published)
		s.published = nil
	}
}

// Restores returns how many restores of node n have been published. A
// task that resumed from fewer runs from a stale snapshot: its node was
// restored under it, and it must take the new restore.
func (s *Supervisor) Restores(n torus.Rank) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest[n].seq
}

// AwaitRestore is how a task's own goroutine comes back from a crash:
// it blocks until more than seen restores of node n have been published
// and returns the latest — the buddy replica, or the version-0 snapshot
// meaning "start fresh" — with the count to pass as seen next time. On
// timeout it returns a typed deadline abort (errors.Is(err,
// abort.ErrAborted)). While waiting, the park is visible in the
// sentinel's wait-site table when one is wired.
func (s *Supervisor) AwaitRestore(n torus.Rank, seen uint64, timeout time.Duration) (*Snapshot, uint64, error) {
	if st := s.waitSite.Load(); st != nil {
		var park watchdog.Park
		st.Attach(&park, nil) // observe-only: the timer below owns the deadline
		park.Enter()
		defer park.Detach()
	}
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	for {
		s.mu.Lock()
		r := s.latest[n]
		if r.seq > seen {
			s.mu.Unlock()
			return r.snap, r.seq, nil
		}
		if s.published == nil {
			s.published = make(chan struct{})
		}
		published := s.published
		s.mu.Unlock()
		select {
		case <-published:
		case <-tm.C:
			return nil, seen, abort.Wrap(abort.KindDeadline, "recovery.await.restore",
				fmt.Errorf("recovery: node %d not restored within %v", n, timeout))
		}
	}
}

// SetSentinel registers the restore wait's site with the partition
// stall sentinel so a task stuck waiting for its restore shows up in
// hang dumps. The wait keeps its own timeout, so the site is
// observe-only.
func (s *Supervisor) SetSentinel(sent *watchdog.Sentinel) {
	if sent == nil {
		return
	}
	s.waitSite.Store(sent.Site("recovery.await.restore"))
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

// recover fences one victim, revives it, and publishes its restore.
func (s *Supervisor) recover(n torus.Rank) {
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
	snap := s.store.Replica(n)
	if snap == nil {
		// Died before the first checkpoint interval: restart from zero.
		snap = &Snapshot{Node: n}
		s.freshStarts.Inc()
	}
	if err := s.cfg.Revive(n); err != nil {
		return
	}
	s.NoteRestored(n)
	s.publish(snap)
}
