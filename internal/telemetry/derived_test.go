package telemetry

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCounterConcurrentAddExact: concurrent writers on one counter lose
// nothing, for Inc and mixed-sign Add traffic alike. Run under -race this
// also vets the counter's memory ordering.
func TestCounterConcurrentAddExact(t *testing.T) {
	const (
		writers = 16
		perG    = 10000
	)
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch {
				case i%3 == 0:
					c.Add(3)
				case i%7 == 0:
					c.Add(-1)
				default:
					c.Inc()
				}
			}
		}()
	}
	wg.Wait()
	var want int64
	for i := 0; i < perG; i++ {
		switch {
		case i%3 == 0:
			want += 3
		case i%7 == 0:
			want--
		default:
			want++
		}
	}
	want *= writers
	if got := c.Load(); got != want {
		t.Fatalf("Counter.Load() = %d after quiescence, want exact %d", got, want)
	}
}

// TestFuncEntriesInSnapshot: entries evaluated at snapshot appear in
// Snapshot, Totals, JSON and RenderTotals exactly like stored counters
// and gauges, and read the owner's state as of the snapshot.
func TestFuncEntriesInSnapshot(t *testing.T) {
	reg := NewRegistry("m")
	var received, depth, peak atomic.Int64
	fifo := reg.Group("fifo0")
	fifo.CounterFunc("packets_received", received.Load)
	fifo.GaugeFunc("occupancy", func() (int64, int64) { return depth.Load(), peak.Load() })
	reg.Group("fifo1").Counter("packets_received").Add(2)

	received.Store(5)
	depth.Store(3)
	peak.Store(4)
	snap := reg.Snapshot()
	if v, ok := snap.Counter("fifo0.packets_received"); !ok || v != 5 {
		t.Fatalf("fifo0.packets_received = %d,%v, want 5", v, ok)
	}
	if g, ok := snap.Gauge("fifo0.occupancy"); !ok || g.Value != 3 || g.HighWater != 4 {
		t.Fatalf("fifo0.occupancy = %+v,%v, want 3 (hwm 4)", g, ok)
	}
	counters, gauges := snap.Totals()
	if counters["packets_received"] != 7 {
		t.Fatalf("Totals()[packets_received] = %d, want 5 derived + 2 stored", counters["packets_received"])
	}
	if g := gauges["occupancy"]; g.Value != 3 || g.HighWater != 4 {
		t.Fatalf("Totals()[occupancy] = %+v, want 3 (hwm 4)", g)
	}
	raw, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter("fifo0.packets_received"); !ok || v != 5 {
		t.Fatalf("JSON roundtrip = %d,%v, want 5", v, ok)
	}
	if out := snap.RenderTotals(); !contains(out, "(hwm 4)") {
		t.Fatalf("RenderTotals lacks the derived gauge:\n%s", out)
	}

	received.Store(9) // a later snapshot reads the state anew
	if v, _ := reg.Snapshot().Counter("fifo0.packets_received"); v != 9 {
		t.Fatalf("second snapshot read %d, want 9", v)
	}
}

// TestSnapshotFoldRace hammers a counter and the state behind a derived
// gauge while readers snapshot. A counter read is monotonic across
// snapshots and the final read is exact. Primarily a -race target.
func TestSnapshotFoldRace(t *testing.T) {
	const (
		writers = 8
		perG    = 20000
	)
	reg := NewRegistry("race")
	c := reg.Counter("events")
	var level atomic.Int64
	reg.GaugeFunc("level", func() (int64, int64) { v := level.Load(); return v, v })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				level.Add(1)
				level.Add(-1)
			}
		}()
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last int64
		for {
			snap := reg.Snapshot()
			v, ok := snap.Counter("events")
			if !ok {
				t.Error("snapshot lost the counter")
				return
			}
			if v < last {
				t.Errorf("counter read went backwards: %d after %d", v, last)
				return
			}
			last = v
			if _, ok := snap.Gauge("level"); !ok {
				t.Error("snapshot lost the derived gauge")
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := c.Load(), int64(writers*perG); got != want {
		t.Fatalf("final counter = %d, want exact %d", got, want)
	}
	if g, _ := reg.Snapshot().Gauge("level"); g.Value != 0 {
		t.Fatalf("final derived level = %d, want 0", g.Value)
	}
}
