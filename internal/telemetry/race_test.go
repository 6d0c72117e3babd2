package telemetry

import (
	"sync"
	"testing"
)

// The stress tests below are designed to fail under `go test -race` if
// any telemetry path is unsafe: many goroutines hammer the same counters,
// gauges, registry and tracer while concurrent readers snapshot, total
// and render. scripts/check.sh runs them with -race on every PR.

func TestRaceCountersAndGauges(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				c.Add(2)
				g.Update(1)
				if j%2 == 1 {
					g.Update(-2)
				}
				_ = c.Load()
				_ = g.Load()
				_ = g.HighWater()
			}
		}(i)
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG*3 {
		t.Fatalf("counter = %d, want %d (lost updates)", got, goroutines*perG*3)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge level = %d, want 0", got)
	}
	if g.HighWater() < 1 {
		t.Fatalf("gauge hwm = %d, want >= 1", g.HighWater())
	}
}

func TestRaceRegistryCreateAndSnapshot(t *testing.T) {
	const goroutines = 12
	r := NewRegistry("race")
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			grp := r.Group(names[id%len(names)])
			for j := 0; j < 500; j++ {
				// Get-or-create races against identical creations and
				// against snapshotting readers.
				grp.Counter(names[j%len(names)]).Inc()
				grp.Gauge("depth").Update(1)
				grp.Gauge("depth").Update(-1)
				if j%100 == 0 {
					sub := r.Group(names[(id+j)%len(names)]).Group("sub")
					sub.Counter("deep").Inc()
				}
			}
		}(i)
	}
	// Concurrent readers: snapshot, total and render while writers run.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := r.Snapshot()
				s.Totals()
				_ = s.RenderTotals()
				if _, err := s.JSON(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	counters, gauges := r.Snapshot().Totals()
	var sum int64
	for _, v := range counters {
		sum += v
	}
	want := int64(goroutines * (500 + 5)) // 500 group increments + 5 "deep" ones
	if sum != want {
		t.Fatalf("counter sum = %d, want %d", sum, want)
	}
	if d := gauges["depth"]; d.Value != 0 {
		t.Fatalf("depth gauge = %d, want 0", d.Value)
	}
}
