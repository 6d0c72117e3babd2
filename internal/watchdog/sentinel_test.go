package watchdog

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/telemetry"
)

func TestSentinelEscalatesOverdueParks(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	s := NewSentinel(reg)
	site := s.Site("test.slow")
	var mu sync.Mutex
	var got *abort.Cause
	var p Park
	site.Attach(&p, func(c *abort.Cause) {
		mu.Lock()
		got = c
		mu.Unlock()
	})
	p.Enter()
	s.Arm(10*time.Millisecond, time.Millisecond)
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		c := got
		mu.Unlock()
		if c != nil {
			if !errors.Is(c, abort.ErrAborted) || c.Kind != abort.KindDeadline {
				t.Fatalf("escalation cause = %v", c)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sentinel never escalated an overdue park")
		}
		time.Sleep(time.Millisecond)
	}
	p.Leave()
	tab := s.Table()
	if len(tab) != 1 || tab[0].Escalations != 1 || tab[0].Waiters != 0 {
		t.Fatalf("table after escalation+leave: %+v", tab)
	}
	if tab[0].LastCause == "" {
		t.Fatal("last cause not recorded")
	}
}

func TestSentinelObserveOnlyNeverEscalates(t *testing.T) {
	s := NewSentinel(nil)
	site := s.Site("test.idle")
	var p Park
	site.Attach(&p, nil) // observe-only
	p.Enter()
	s.Arm(time.Millisecond, time.Millisecond)
	defer s.Stop()
	time.Sleep(20 * time.Millisecond)
	tab := s.Table()
	if tab[0].Escalations != 0 {
		t.Fatalf("observe-only park escalated: %+v", tab)
	}
	if tab[0].Waiters != 1 || tab[0].OldestAge <= 0 {
		t.Fatalf("observe-only park not visible: %+v", tab)
	}
	p.Leave()
}

func TestSentinelSiteDeadlineOverride(t *testing.T) {
	s := NewSentinel(nil)
	pinned := s.Site("test.pinned")
	pinned.SetDeadline(-1) // observe-only even when armed
	var fired sync.Map
	var p1, p2 Park
	pinned.Attach(&p1, func(c *abort.Cause) { fired.Store("pinned", true) })
	fast := s.Site("test.fast")
	fast.SetDeadline(2 * time.Millisecond)
	fast.Attach(&p2, func(c *abort.Cause) { fired.Store("fast", true) })
	p1.Enter()
	p2.Enter()
	s.Arm(time.Hour, time.Millisecond) // default deadline far away
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := fired.Load("fast"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("per-site fast deadline never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := fired.Load("pinned"); ok {
		t.Fatal("negative-deadline site escalated")
	}
	p1.Leave()
	p2.Leave()
}

func TestSentinelParkReuseAndRender(t *testing.T) {
	s := NewSentinel(nil)
	site := s.Site("test.reuse")
	var p Park
	site.Attach(&p, nil)
	for i := 0; i < 100; i++ {
		p.Enter()
		p.Leave()
	}
	p.Detach()
	p.Detach() // detaching twice must be harmless
	var ps [4]Park
	for i := range ps {
		site.Attach(&ps[i], nil)
		ps[i].Enter()
	}
	ps[1].Detach() // interior remove must keep the others registered
	if tab := s.Table(); tab[0].Waiters != 3 {
		t.Fatalf("waiters after interior Detach = %d, want 3", tab[0].Waiters)
	}
	out := s.Render()
	if !strings.Contains(out, "test.reuse") || !strings.Contains(out, "observe") {
		t.Fatalf("render missing site row:\n%s", out)
	}
	for i := range ps {
		ps[i].Leave() // double-Leave on ps[1] must be harmless
	}
	if tab := s.Table(); tab[0].Waiters != 0 {
		t.Fatalf("waiters after all left = %d", tab[0].Waiters)
	}
}

func TestSentinelConcurrentParks(t *testing.T) {
	s := NewSentinel(nil)
	site := s.Site("test.churn")
	s.Arm(50*time.Millisecond, time.Millisecond)
	defer s.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p Park
			for i := 0; i < 500; i++ {
				site.Attach(&p, func(*abort.Cause) {})
				p.Enter()
				p.Leave()
				if i%2 == 0 {
					p.Enter() // Detach must also end a wait in progress
				}
				p.Detach()
			}
		}()
	}
	wg.Wait()
	if tab := s.Table(); tab[0].Waiters != 0 {
		t.Fatalf("leaked waiters: %d", tab[0].Waiters)
	}
}

// TestSentinelGaugeDerivedAtSnapshot: no wait touches the waiter gauge;
// a snapshot of the sentinel's telemetry group still reads it right.
func TestSentinelGaugeDerivedAtSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	s := NewSentinel(reg)
	site := s.Site("test.gauge")
	var ps [3]Park
	for i := range ps {
		site.Attach(&ps[i], nil)
		ps[i].Enter()
	}
	if g, ok := reg.Snapshot().Gauge("sentinel.test_gauge_waiters"); !ok || g.Value != 3 {
		t.Fatalf("waiters gauge with three parks waiting = %+v (found %v), want 3", g, ok)
	}
	for i := range ps {
		ps[i].Leave()
	}
	if g, _ := reg.Snapshot().Gauge("sentinel.test_gauge_waiters"); g.Value != 0 || g.HighWater != 3 {
		t.Fatalf("waiters gauge at rest = %+v, want 0 with high water 3", g)
	}
}

// TestParkEnterLeaveCost pins the cost contract in the package comment.
// A wait allocates nothing, and takes no lock: Enter and Leave touch
// nothing but the caller's own Park (the site mutex is held by this test
// for the whole of the contended run, so a wait that took it would
// deadlock), which is also why eight waiters on one site scale with the
// cores instead of queueing behind each other.
func TestParkEnterLeaveCost(t *testing.T) {
	s := NewSentinel(telemetry.NewRegistry("test"))
	site := s.Site("test.cost")
	const waiters, rounds = 8, 1_000_000
	// Padded: a Park is written on every wait, and neighbours in one
	// array would share cache lines.
	var parks [waiters]struct {
		Park
		_ [64]byte
	}
	for i := range parks {
		site.Attach(&parks[i].Park, func(*abort.Cause) {})
	}
	if a := testing.AllocsPerRun(1000, func() { parks[0].Enter(); parks[0].Leave() }); a != 0 {
		t.Fatalf("Enter+Leave allocates %v times per wait", a)
	}
	run := func(n int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(p *Park) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					p.Enter()
					p.Leave()
				}
			}(&parks[i].Park)
		}
		wg.Wait()
		return time.Since(start)
	}
	site.mu.Lock()
	defer site.mu.Unlock()
	if raceBuild {
		run(waiters)
		return
	}
	// Eight waiters on two cores are four waiters' work per core: 5x one
	// waiter's time leaves a quarter for the scheduler. One core gets
	// twice that; more cores are not given less.
	bound := 5.0
	if runtime.GOMAXPROCS(0) == 1 {
		bound = 10
	}
	best := 0.0
	for try := 0; try < 10; try++ {
		one, all := run(1), run(waiters)
		ratio := float64(all) / float64(one)
		if best == 0 || ratio < best {
			best = ratio
		}
		if best <= bound {
			return
		}
	}
	t.Fatalf("8 waiters x 1M waits took %.1fx one waiter's time on %d cores, want <= %.0fx",
		best, runtime.GOMAXPROCS(0), bound)
}

// TestObservedSentinelStampsAges: an unarmed sentinel runs no scanner, so
// a wait nobody looked at has no age; once a hang dump can be asked for
// (observe), sentinels old and new scan every idleScan and the table's
// ages are good to that without anyone having looked before.
func TestObservedSentinelStampsAges(t *testing.T) {
	defer func(d time.Duration) { idleScan = d }(idleScan)
	idleScan = time.Millisecond
	dumpMu.Lock()
	observing = false // a run of this test before us has set it
	dumpMu.Unlock()
	old := NewSentinel(nil)
	defer old.Stop()
	var p, q Park
	old.Site("test.observed").Attach(&p, func(*abort.Cause) { t.Error("an unarmed sentinel escalated") })
	p.Enter()
	time.Sleep(20 * time.Millisecond)
	if age := old.Table()[0].OldestAge; age > 10*time.Millisecond {
		t.Fatalf("unobserved wait aged %v before anyone looked", age)
	}
	p.Leave()
	p.Enter()
	observe()
	young := NewSentinel(nil)
	defer young.Stop()
	young.Site("test.observed").Attach(&q, nil)
	q.Enter()
	time.Sleep(50 * time.Millisecond)
	for _, s := range []*Sentinel{old, young} {
		if row := s.Table()[0]; row.Waiters != 1 || row.OldestAge < 25*time.Millisecond {
			t.Fatalf("observed wait after 50ms: %+v", row)
		}
	}
}
