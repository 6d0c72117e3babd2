package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("final time %v, want 30ns", end)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("execution order %v", order)
		}
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

// TestEngineTieBreakIsScheduleOrder pins the engine's documented
// tie-breaking contract: events at equal times fire in Schedule order,
// regardless of how they interleave with other timestamps in the heap.
// netsim's packet schedule depends on this (its TestScheduleGolden).
func TestEngineTieBreakIsScheduleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var e Engine
		var fired []int
		type slot struct {
			at Time
			id int
		}
		var want []slot
		// Many events over few distinct times forces dense ties while the
		// heap keeps reshaping under random insertion order.
		for id := 0; id < 200; id++ {
			at := Time(rng.Intn(8)) * Nanosecond
			want = append(want, slot{at, id})
			id := id
			e.Schedule(at, func() { fired = append(fired, id) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		for i := range want {
			if fired[i] != want[i].id {
				t.Fatalf("trial %d: position %d fired id %d, want %d (schedule order within time %v)",
					trial, i, fired[i], want[i].id, want[i].at)
			}
		}
	}
}

// Same-time events scheduled from within a same-time event fire after
// every previously scheduled event at that time — tie order is schedule
// order even across nesting.
func TestEngineTieBreakNestedSameTime(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(5*Nanosecond, func() {
		order = append(order, "a")
		e.Schedule(5*Nanosecond, func() { order = append(order, "a.child") })
	})
	e.Schedule(5*Nanosecond, func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "a.child"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	hits := 0
	e.Schedule(0, func() {
		e.Schedule(e.Now()+10*Nanosecond, func() {
			hits++
			e.Schedule(e.Now()+10*Nanosecond, func() { hits++ })
		})
	})
	e.Run()
	if hits != 2 || e.Now() != 20*Nanosecond {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestResourceFCFS(t *testing.T) {
	var r Resource
	s1, d1 := r.Reserve(0, 10*Nanosecond)
	if s1 != 0 || d1 != 10*Nanosecond {
		t.Fatalf("first reservation (%v,%v)", s1, d1)
	}
	// Arrives while busy: queues.
	s2, d2 := r.Reserve(5*Nanosecond, 10*Nanosecond)
	if s2 != 10*Nanosecond || d2 != 20*Nanosecond {
		t.Fatalf("queued reservation (%v,%v)", s2, d2)
	}
	// Arrives after idle gap: starts at arrival.
	s3, _ := r.Reserve(100*Nanosecond, Nanosecond)
	if s3 != 100*Nanosecond {
		t.Fatalf("idle-start reservation start=%v", s3)
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	r.Reserve(0, 25*Nanosecond)
	r.Reserve(0, 25*Nanosecond)
	got := r.Utilization(100 * Nanosecond)
	if got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestBytesTime(t *testing.T) {
	// 1.8 GB/s payload rate, 512-byte packet: ~284.4 ns.
	d := BytesTime(512, 1.8e9)
	if d < 284*Nanosecond || d > 285*Nanosecond {
		t.Fatalf("512B @ 1.8GB/s = %v", d)
	}
	if BytesTime(0, 1e9) != 0 {
		t.Fatal("zero bytes should cost zero time")
	}
	if BytesTime(100, 0) != 0 {
		t.Fatal("zero rate should cost zero time (degenerate input)")
	}
}

func TestBytesTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bytes/sec is 1/3 s; must round up, never down.
	d := BytesTime(1, 3)
	if d.Seconds() < 1.0/3.0 {
		t.Fatalf("BytesTime rounded down: %v", d)
	}
}

// TestEngineRandomTraceQuick: for any random set of event times, the engine
// fires them in nondecreasing time order and ends at the max time.
func TestEngineRandomTraceQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		var e Engine
		times := make([]Time, len(raw))
		var fired []Time
		for i, r := range raw {
			at := Time(r % 1000000)
			times[i] = at
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceNeverOverlapsQuick(t *testing.T) {
	// Property: service intervals returned by a resource never overlap and
	// respect arrival times, for any arrival/service sequence.
	f := func(raw []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Resource
		arrival := Time(0)
		var lastDone Time
		for range raw {
			arrival += Time(rng.Intn(100)) * Nanosecond
			service := Time(rng.Intn(50)+1) * Nanosecond
			start, done := r.Reserve(arrival, service)
			if start < arrival || start < lastDone || done != start+service {
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScheduleRun measures the engine's per-event cost: after the
// backing array has warmed up on the first batch, scheduling and
// stepping an event must not allocate — the engine moves events by value
// instead of boxing them through container/heap interfaces.
func BenchmarkScheduleRun(b *testing.B) {
	var e Engine
	fn := func() {}
	const batch = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			// Deliberately non-monotonic offsets exercise siftUp/siftDown.
			e.Schedule(base+Time((j*7)%batch)*Nanosecond, fn)
		}
		e.Run()
	}
}
