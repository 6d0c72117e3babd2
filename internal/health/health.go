// Package health is the out-of-band failure detector for the simulated
// BG/Q machine. Real Blue Gene installations pair the data fabric with a
// separate service/control network (QPACE's health-monitoring service
// network is the direct model) over which every node emits a periodic
// heartbeat; a monitor accrues suspicion for silent nodes and declares
// them dead once suspicion crosses a threshold — the crash-stop failure
// model. Detection is deliberately out-of-band: a node that stops
// heartbeating is declared dead even if the data plane is idle, so
// blocked rendezvous peers and stalled collectives learn of the death
// without having to probe it themselves.
//
// Suspicion is a simplified phi accrual: phi(n) = elapsed/interval, the
// number of heartbeat periods node n has been silent. phi crossing
// Config.PhiThreshold confirms the death, bumps the cluster membership
// epoch, and fires OnDeath callbacks exactly once per node. A confirmed
// death ends that node's incarnation — the crash-stop model — but the
// node itself may return: the recovery supervisor calls Revive once the
// node's state has been restored from its buddy replica, which bumps
// the epoch again and re-arms detection for the new incarnation.
package health

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
)

// Typed errors the stack surfaces when membership changes underneath an
// operation. They live here — the lowest layer that knows about node
// death — so mu, collnet, and core can all wrap them without cycles.
var (
	// ErrPeerDead reports that the remote endpoint of an operation has
	// been confirmed dead; the operation will never complete.
	ErrPeerDead = errors.New("health: peer is dead")

	// ErrEpochChanged reports that cluster membership changed while an
	// operation was in flight; the caller must re-examine the surviving
	// membership before retrying.
	ErrEpochChanged = errors.New("health: membership epoch changed")
)

// Config tunes a Monitor. The zero value gets simulation-scale defaults:
// a 1ms beat and a threshold of 8 silent periods, for ~8ms detection
// latency (the real control network beats per-second; the simulation
// compresses time so chaos tests finish fast).
type Config struct {
	Nodes        int
	BeatInterval time.Duration
	PhiThreshold float64
	Telemetry    *telemetry.Registry
}

// Defaults for Config zero fields.
const (
	DefaultBeatInterval = time.Millisecond
	DefaultPhiThreshold = 8.0
)

// Monitor is the failure detector: one scanner goroutine models the
// service network, stamping a fresh heartbeat for every node that is
// still emitting them and accruing suspicion for nodes that have gone
// silent. All methods are safe for concurrent use.
type Monitor struct {
	interval time.Duration
	phiMax   float64
	now      func() int64 // UnixNano clock; the scanner tests substitute their own

	lastBeat []atomic.Int64 // UnixNano of node's latest heartbeat
	silenced []atomic.Bool  // node stopped heartbeating (fault fired)
	dead     []atomic.Bool  // death confirmed; permanent
	external []atomic.Bool  // beats arrive over a wire transport, not self-stamped
	everBeat []atomic.Bool  // external node has delivered at least one beat

	deadCount atomic.Int64
	epoch     atomic.Int64 // bumped once per confirmed death and per revival

	phiGauges []*telemetry.Gauge // per-node suspicion, in centi-phi
	deaths    *telemetry.Counter

	mu       sync.Mutex
	deadList []torus.Rank // confirmation order, for callback replay
	cbs      []func(torus.Rank)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewMonitor builds a monitor for n nodes. Call Start to begin scanning.
func NewMonitor(cfg Config) (*Monitor, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("health: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.BeatInterval <= 0 {
		cfg.BeatInterval = DefaultBeatInterval
	}
	if cfg.PhiThreshold <= 0 {
		cfg.PhiThreshold = DefaultPhiThreshold
	}
	m := &Monitor{
		interval: cfg.BeatInterval,
		phiMax:   cfg.PhiThreshold,
		now:      func() int64 { return time.Now().UnixNano() },
		lastBeat: make([]atomic.Int64, cfg.Nodes),
		silenced: make([]atomic.Bool, cfg.Nodes),
		dead:     make([]atomic.Bool, cfg.Nodes),
		external: make([]atomic.Bool, cfg.Nodes),
		everBeat: make([]atomic.Bool, cfg.Nodes),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		g := cfg.Telemetry.Group("health")
		m.deaths = g.Counter("deaths")
		m.phiGauges = make([]*telemetry.Gauge, cfg.Nodes)
		for i := range m.phiGauges {
			m.phiGauges[i] = g.Gauge(fmt.Sprintf("node%d.phi", i))
		}
	}
	now := m.now()
	for i := range m.lastBeat {
		m.lastBeat[i].Store(now)
	}
	return m, nil
}

// BeatInterval returns the heartbeat period suspicion is counted in.
func (m *Monitor) BeatInterval() time.Duration { return m.interval }

// Start launches the scanner goroutine. Idempotent.
func (m *Monitor) Start() {
	m.startOnce.Do(func() { go m.scan() })
}

// Stop halts the scanner and waits for it to exit. Idempotent; safe to
// call even if Start never ran.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) }) // never started: unblock the wait
	<-m.done
}

func (m *Monitor) scan() {
	defer close(m.done)
	tick := time.NewTicker(m.interval)
	defer tick.Stop()
	last := m.now()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		now := m.now()
		m.scanOnce(last, now)
		last = now
	}
}

// scanOnce is one pass of the scanner at time now, the previous pass
// having run at time last.
func (m *Monitor) scanOnce(last, now int64) {
	// A pass that runs a whole interval or more behind its tick has
	// measured this process's own pause (a descheduled vCPU, a long GC
	// assist), during which the beats of the external nodes sat unread
	// in the kernel: that much of their silence is ours, so it is
	// credited to them instead of accrued.
	late := now - last - int64(m.interval)
	if late < int64(m.interval) {
		late = 0
	}
	for n := range m.lastBeat {
		if m.dead[n].Load() {
			continue
		}
		if !m.silenced[n].Load() {
			if !m.external[n].Load() {
				// The service network delivered another beat.
				m.lastBeat[n].Store(now)
				continue
			}
			if !m.everBeat[n].Load() {
				// External node whose process has not joined yet:
				// suspicion cannot accrue before the first real beat
				// arrives (bootstrap grace; the join path has its own
				// timeout). Once it has beaten, silence is suspicion.
				m.lastBeat[n].Store(now)
				continue
			}
			if lb := m.lastBeat[n].Load(); late > 0 {
				// A beat that lands meanwhile is fresher: let it win.
				m.lastBeat[n].CompareAndSwap(lb, min(lb+late, now))
			}
		}
		phi := float64(now-m.lastBeat[n].Load()) / float64(m.interval)
		if m.phiGauges != nil {
			m.phiGauges[n].Set(int64(phi * 100))
		}
		if phi >= m.phiMax {
			m.declareDead(torus.Rank(n))
		}
	}
}

// SetExternal marks node n's heartbeats as externally supplied: they
// are the frames its process sends over a wire transport, so the
// scanner stops self-stamping and Beat is the only thing that keeps the
// node alive. A machine spanning OS processes marks every non-hosted
// node external at boot. Suspicion only starts accruing after the first
// real beat — before its process joins, an external node is in
// bootstrap grace and cannot be declared dead.
func (m *Monitor) SetExternal(n torus.Rank) {
	if int(n) < len(m.external) {
		m.external[n].Store(true)
	}
}

// Beat records a sign of life from node n: the wire transport calls it
// for every burst of valid frames it reads from the node's process,
// beat frames or not. Safe from any goroutine.
func (m *Monitor) Beat(n torus.Rank) {
	if int(n) < len(m.lastBeat) {
		m.lastBeat[n].Store(m.now())
		m.everBeat[n].Store(true)
	}
}

// Silence marks node n as no longer heartbeating — the fault injector
// calls this the instant a crash/hang fires. Suspicion then accrues
// until the monitor confirms the death phi-threshold periods later.
func (m *Monitor) Silence(n torus.Rank) {
	if int(n) < len(m.silenced) {
		m.silenced[n].Store(true)
	}
}

// DeclareDead confirms node n dead immediately, bypassing suspicion
// accrual. Used by tests and by layers with certain knowledge (e.g. a
// process that panicked locally).
func (m *Monitor) DeclareDead(n torus.Rank) {
	if int(n) < len(m.dead) {
		m.silenced[n].Store(true)
		m.declareDead(n)
	}
}

// declareDead transitions n to dead exactly once, bumps the epoch, and
// fires callbacks outside the lock in confirmation order.
func (m *Monitor) declareDead(n torus.Rank) {
	if !m.dead[n].CompareAndSwap(false, true) {
		return
	}
	m.deadCount.Add(1)
	m.epoch.Add(1)
	if m.deaths != nil {
		m.deaths.Inc()
	}
	if m.phiGauges != nil {
		m.phiGauges[n].Set(int64(m.phiMax * 100))
	}
	m.mu.Lock()
	m.deadList = append(m.deadList, n)
	cbs := m.cbs
	m.mu.Unlock()
	for _, fn := range cbs {
		fn(n)
	}
}

// Revive returns a previously confirmed-dead node to the living
// membership: the recovery supervisor calls it after the node's state
// has been restored from its buddy replica and the fabric re-adopted
// its ranks. Revival bumps the membership epoch again (survivors must
// observe that the world changed, just as they did for the death) and
// re-arms detection: for an in-process node the scanner resumes
// self-stamping, for an external node everBeat resets so the node is
// back in bootstrap grace until its new incarnation's first beat
// arrives. Reports whether n was dead (false = no-op).
func (m *Monitor) Revive(n torus.Rank) bool {
	if int(n) >= len(m.dead) {
		return false
	}
	if !m.dead[n].Load() {
		return false
	}
	// Re-arm while the node is still dead, which the scanner skips: a
	// pass between making it alive and re-arming it would read a
	// silenced node with a stale beat and confirm its death again. And
	// re-arm before the epoch bump: once survivors see the new epoch
	// they may immediately probe Alive(n) and start talking to it.
	m.lastBeat[n].Store(m.now())
	m.everBeat[n].Store(false)
	m.silenced[n].Store(false)
	if h := reviveHook; h != nil {
		h(n)
	}
	if !m.dead[n].CompareAndSwap(true, false) {
		return false
	}
	if m.phiGauges != nil {
		m.phiGauges[n].Set(0)
	}
	m.mu.Lock()
	for i, d := range m.deadList {
		if d == n {
			m.deadList = append(m.deadList[:i], m.deadList[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	m.deadCount.Add(-1)
	m.epoch.Add(1)
	return true
}

// reviveHook, when non-nil, runs inside Revive after node n is re-armed
// and before it is made alive: a test runs a scanner pass there.
var reviveHook func(n torus.Rank)

// OnDeath registers a callback invoked once per confirmed death. Nodes
// already dead at registration time are replayed immediately in
// confirmation order, so late subscribers miss nothing.
func (m *Monitor) OnDeath(fn func(torus.Rank)) {
	m.mu.Lock()
	m.cbs = append(m.cbs, fn)
	replay := append([]torus.Rank(nil), m.deadList...)
	m.mu.Unlock()
	for _, n := range replay {
		fn(n)
	}
}

// Epoch returns the membership epoch: 0 at boot, +1 per confirmed
// death and per revival. Layers cache it and compare to detect
// membership changes. A nil monitor is a machine without a failure
// detector: its epoch stays 0 and nobody ever dies.
func (m *Monitor) Epoch() int64 {
	if m == nil {
		return 0
	}
	return m.epoch.Load()
}

// Alive reports whether node n has not been confirmed dead. It is the
// one membership record: the fabric and the collective network ask it
// rather than keep their own copy.
func (m *Monitor) Alive(n torus.Rank) bool {
	if m == nil || m.deadCount.Load() == 0 {
		return true
	}
	return int(n) >= len(m.dead) || !m.dead[n].Load()
}

// Dead reports whether node n's death has been confirmed.
func (m *Monitor) Dead(n torus.Rank) bool { return !m.Alive(n) }

// DeadNodes returns the confirmed-dead set in rank order.
func (m *Monitor) DeadNodes() []torus.Rank {
	m.mu.Lock()
	out := append([]torus.Rank(nil), m.deadList...)
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Phi returns node n's current suspicion level: heartbeat periods of
// silence. 0 for a heartbeating node.
func (m *Monitor) Phi(n torus.Rank) float64 {
	if int(n) >= len(m.lastBeat) {
		return 0
	}
	accruing := m.silenced[n].Load() ||
		(m.external[n].Load() && m.everBeat[n].Load())
	if !accruing {
		return 0
	}
	return float64(m.now()-m.lastBeat[n].Load()) / float64(m.interval)
}
