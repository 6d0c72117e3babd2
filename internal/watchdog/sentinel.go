package watchdog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/telemetry"
)

// Sentinel is the partition-wide stall sentinel: a registry of every
// named wait site in the runtime (team barriers, collective credit
// gates, mu window stalls, replica waits, idle progress parks). Each
// blocking wait registers a Park on entry and removes it on exit; the
// sentinel's scanner converts any park that outlives its site's
// deadline into a typed abort — the site's escalation hook poisons the
// primitive the waiter is parked on, so the waiter returns an
// ErrAborted-wrapped cause instead of hanging silently. Sites whose
// parks carry no escalation hook are observe-only: they appear in the
// wait-site table (the -hang-dump output) but are never aborted, which
// is what the idle progress-loop parks — legitimately indefinite —
// want.
//
// The cost contract: a Park is attached to its site once, when its owner
// (a geometry, a context, a stalled flow) is set up — the only step that
// takes the site mutex. A wait then costs two atomic stores into the
// caller-owned Park (Enter marks it waiting, Leave clears it): no lock, no
// clock read, no allocation, no cache line shared with another waiter, so
// a wait that turns out not to block may register too. The scan that
// first sees a wait stamps it: ages and deadlines run from then, late by
// at most one scan period — deadline/4 when armed; idleScan once a hang
// dump can be asked for (observe); else a Table call is the only scan.
type Sentinel struct {
	mu    sync.Mutex
	sites map[string]*Site
	order []*Site

	deadline time.Duration // default escalation deadline; 0 = observe only
	armed    bool
	stop     chan struct{}
	stopOnce sync.Once

	tele        *telemetry.Registry
	escalations *telemetry.Counter
}

// NewSentinel returns an unarmed (observe-only) sentinel. reg may be
// nil; when set, the per-site waiter gauges (brought up to date by every
// snapshot of the group) and the escalation counter are published under
// a "sentinel" group.
func NewSentinel(reg *telemetry.Registry) *Sentinel {
	s := &Sentinel{
		sites: make(map[string]*Site),
		stop:  make(chan struct{}),
	}
	if reg != nil {
		s.tele = reg.Group("sentinel")
		s.escalations = s.tele.Counter("escalations")
		s.tele.OnSnapshot(s.sweep)
	}
	enroll(s)
	return s
}

// Site returns (creating on first use) the wait site with the given
// stable dotted name, e.g. "core.team.barrier".
func (s *Sentinel) Site(name string) *Site {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.sites[name]; ok {
		return st
	}
	st := &Site{name: name}
	if s.tele != nil {
		st.waitersG = s.tele.Gauge(strings.ReplaceAll(name, ".", "_") + "_waiters")
	}
	s.sites[name] = st
	s.order = append(s.order, st)
	return st
}

// Arm starts the escalation scanner: any park older than deadline at a
// site with escalation hooks is aborted with a KindDeadline cause.
// scanEvery <= 0 picks deadline/4 (at least 1ms). Arming twice or with
// a non-positive deadline is a no-op.
func (s *Sentinel) Arm(deadline, scanEvery time.Duration) {
	if deadline <= 0 {
		return
	}
	s.mu.Lock()
	if s.armed {
		s.mu.Unlock()
		return
	}
	s.armed = true
	s.deadline = deadline
	s.mu.Unlock()
	if scanEvery <= 0 {
		scanEvery = max(deadline/4, time.Millisecond)
	}
	go s.scan(scanEvery)
}

// Stop halts the scanners. Idempotent; parks keep registering (the
// table stays live for hang dumps) but nothing escalates anymore.
func (s *Sentinel) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		forget(s)
	})
}

func (s *Sentinel) scan(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sweep()
		}
	}
}

// firing is one escalation a scan decided on.
type firing struct {
	fn    func(*abort.Cause)
	cause *abort.Cause
}

// sweep is one scan: it stamps the waits it sees for the first time and,
// when armed, fires the escalation hook of every over-deadline park. Hooks
// run outside all sentinel locks — they poison teams, fail sessions, kick
// condition variables, any of which may take the locks the parked waiters
// hold.
func (s *Sentinel) sweep() {
	var fire []firing
	now := monotonic()
	s.mu.Lock()
	def, armed := s.deadline, s.armed
	sites := s.order
	s.mu.Unlock()
	for _, st := range sites {
		st.mu.Lock()
		d := effDeadline(st.deadline, def)
		if !armed {
			d = 0
		}
		st.scanLocked(now, d, &fire)
		st.mu.Unlock()
	}
	for _, f := range fire {
		if s.escalations != nil {
			s.escalations.Inc()
		}
		f.fn(f.cause)
	}
}

// SiteStat is one row of the wait-site table.
type SiteStat struct {
	Name        string
	Waiters     int
	OldestAge   time.Duration
	Deadline    time.Duration // effective escalation deadline; 0 = observe only
	Escalations int64
	LastCause   string
}

// Table snapshots every site, busiest-first (waiters, then name), and
// brings the per-site waiter gauges up to date.
func (s *Sentinel) Table() []SiteStat {
	now := monotonic()
	s.mu.Lock()
	def := s.deadline // 0 until armed
	sites := append([]*Site(nil), s.order...)
	s.mu.Unlock()
	stats := make([]SiteStat, 0, len(sites))
	for _, st := range sites {
		st.mu.Lock()
		waiters, oldest := st.scanLocked(now, 0, nil)
		stats = append(stats, SiteStat{
			Name:        st.name,
			Waiters:     waiters,
			OldestAge:   oldest,
			Deadline:    effDeadline(st.deadline, def),
			Escalations: st.escalated,
			LastCause:   st.lastCause,
		})
		st.mu.Unlock()
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Waiters != stats[j].Waiters {
			return stats[i].Waiters > stats[j].Waiters
		}
		return stats[i].Name < stats[j].Name
	})
	return stats
}

// Render formats the wait-site table for a hang dump.
func (s *Sentinel) Render() string {
	stats := s.Table()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %10s %6s  %s\n",
		"wait site", "waiters", "oldest", "deadline", "esc", "last cause")
	for _, r := range stats {
		dl := "observe"
		if r.Deadline > 0 {
			dl = r.Deadline.String()
		}
		fmt.Fprintf(&b, "%-28s %8d %12s %10s %6d  %s\n",
			r.Name, r.Waiters, r.OldestAge.Round(time.Millisecond), dl, r.Escalations, r.LastCause)
	}
	return b.String()
}

// Site is one named wait site. Its mutex guards the attached-park list
// and the deadline — Attach, Detach, SetDeadline and the readers — and
// is never taken by a wait.
type Site struct {
	name string

	mu        sync.Mutex
	parks     []*Park
	deadline  time.Duration // per-site override; 0 = sentinel default
	escalated int64
	lastCause string

	waitersG *telemetry.Gauge
}

// SetDeadline overrides the sentinel's default escalation deadline for
// this site; a negative d pins the site observe-only even when armed.
func (st *Site) SetDeadline(d time.Duration) {
	st.mu.Lock()
	st.deadline = d
	st.mu.Unlock()
}

// scanLocked is the one pass over the site's parks: it stamps waits seen
// for the first time, counts the waiters, finds the oldest, sets the
// site's waiter gauge — derived here, by every scan, Table and telemetry
// snapshot, instead of being updated by each wait — and, given a deadline
// d > 0, marks the waits older than d escalated and appends their hooks.
func (st *Site) scanLocked(now int64, d time.Duration, fire *[]firing) (waiters int, oldest time.Duration) {
	for _, p := range st.parks {
		t := p.since.Load()
		if t == unseen && p.since.CompareAndSwap(unseen, now) {
			t = now
		}
		if t == 0 {
			continue
		}
		waiters++
		if t == unseen { // left and came back since the load: age 0
			continue
		}
		age := time.Duration(now - max(t, -t))
		oldest = max(oldest, age)
		// The CAS marks this wait escalated (negative stamp); it fails when
		// the waiter left or re-entered since the load above.
		if d > 0 && t > 0 && age > d && p.abortFn != nil && p.since.CompareAndSwap(t, -t) {
			st.escalated++
			cause := abort.Causef(abort.KindDeadline, st.name,
				"parked %v, stall deadline %v", age.Round(time.Millisecond), d)
			st.lastCause = cause.Error()
			*fire = append(*fire, firing{fn: p.abortFn, cause: cause})
		}
	}
	if st.waitersG != nil {
		st.waitersG.Set(int64(waiters))
	}
	return waiters, oldest
}

func effDeadline(site, def time.Duration) time.Duration {
	if site == 0 {
		site = def
	}
	return max(site, 0)
}

// clockBase anchors the monotonic stamps parks carry.
var clockBase = time.Now()

// monotonic returns nanoseconds since clockBase, above the unseen mark.
func monotonic() int64 { return int64(time.Since(clockBase)) + unseen + 1 }

// unseen is a Park's stamp from Enter until a scan first sees the wait.
const unseen = 1

// Park is one waiter's registration, caller-owned so waiting allocates
// nothing: embed it in the waiting structure (a geometry, a context),
// Attach it once, and Enter/Leave around every wait. A Park belongs to
// one waiter; it must not be entered twice without a Leave between.
type Park struct {
	site    *Site
	abortFn func(*abort.Cause)
	idx     int
	// since is 0 when not waiting, unseen from Enter until a scan stamps
	// the wait with its monotonic time, and that stamp negated once the
	// wait has been escalated.
	since atomic.Int64
}

// Attach registers p at the site for its owner's lifetime. abortFn,
// when non-nil, is the escalation hook: called once per wait (from the
// scanner goroutine) if the wait outlives the site's deadline; it must
// cut the waiter loose — poison the team or the route, fail the flow,
// latch the context's abort — and must not block. A nil abortFn makes p
// observe-only.
func (st *Site) Attach(p *Park, abortFn func(*abort.Cause)) {
	st.mu.Lock()
	p.site, p.abortFn, p.idx = st, abortFn, len(st.parks)
	st.parks = append(st.parks, p)
	st.mu.Unlock()
}

// Detach ends the park's registration (and any wait in progress).
// Detaching an unattached park is a no-op.
func (p *Park) Detach() {
	st := p.site
	if st == nil {
		return
	}
	st.mu.Lock()
	last := len(st.parks) - 1
	st.parks[p.idx] = st.parks[last]
	st.parks[p.idx].idx = p.idx
	st.parks = st.parks[:last]
	p.site = nil
	st.mu.Unlock()
	p.since.Store(0)
}

// Enter marks the park's owner as waiting.
func (p *Park) Enter() { p.since.Store(unseen) }

// Leave marks the wait over. Safe after an escalation fired.
func (p *Park) Leave() { p.since.Store(0) }
