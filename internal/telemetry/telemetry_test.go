package telemetry

import (
	"encoding/json"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero counter = %d", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Update(3)
	g.Update(4)
	g.Update(-5)
	if g.Load() != 2 {
		t.Fatalf("level = %d, want 2", g.Load())
	}
	if g.HighWater() != 7 {
		t.Fatalf("hwm = %d, want 7", g.HighWater())
	}
	g.Set(1)
	if g.Load() != 1 || g.HighWater() != 7 {
		t.Fatalf("after Set: level %d hwm %d", g.Load(), g.HighWater())
	}
	g.Inc()
	g.Dec()
	if g.Load() != 1 {
		t.Fatalf("after Inc/Dec: level %d", g.Load())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry("root")
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Group("sub") != r.Group("sub") {
		t.Fatal("Group not idempotent")
	}
	if r.Name() != "root" || r.Group("sub").Name() != "sub" {
		t.Fatal("names wrong")
	}
}

func TestSnapshotPathsAndTotals(t *testing.T) {
	r := NewRegistry("machine")
	mu := r.Group("mu")
	mu.Group("node0").Counter("packets").Add(10)
	mu.Group("node1").Counter("packets").Add(5)
	mu.Group("node0").Gauge("occupancy").Update(7)
	mu.Group("node1").Gauge("occupancy").Update(3)
	mu.Group("node1").Gauge("occupancy").Update(-2)

	s := r.Snapshot()
	if v, ok := s.Counter("mu.node0.packets"); !ok || v != 10 {
		t.Fatalf("path lookup = %d,%v", v, ok)
	}
	if _, ok := s.Counter("mu.nodeX.packets"); ok {
		t.Fatal("lookup of missing group succeeded")
	}
	if _, ok := s.Counter("mu.node0.missing"); ok {
		t.Fatal("lookup of missing counter succeeded")
	}
	g, ok := s.Gauge("mu.node1.occupancy")
	if !ok || g.Value != 1 || g.HighWater != 3 {
		t.Fatalf("gauge lookup = %+v,%v", g, ok)
	}

	counters, gauges := s.Totals()
	if counters["packets"] != 15 {
		t.Fatalf("total packets = %d, want 15", counters["packets"])
	}
	if tot := gauges["occupancy"]; tot.Value != 8 || tot.HighWater != 7 {
		t.Fatalf("occupancy total = %+v, want sum 8 / max hwm 7", tot)
	}
}

func TestAdopt(t *testing.T) {
	root := NewRegistry("machine")
	fab := NewRegistry("mu")
	fab.Counter("packets").Add(3)
	root.Adopt(fab)
	root.Adopt(nil)  // ignored
	root.Adopt(root) // ignored
	if v, ok := root.Snapshot().Counter("mu.packets"); !ok || v != 3 {
		t.Fatalf("adopted lookup = %d,%v", v, ok)
	}
	// Adopting again under the same name replaces, not duplicates.
	root.Adopt(fab)
	if n := len(root.Snapshot().Groups); n != 1 {
		t.Fatalf("groups = %d, want 1", n)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry("m")
	r.Group("core").Counter("sends_eager").Add(2)
	r.Group("core").Gauge("inflight").Update(1)
	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter("core.sends_eager"); !ok || v != 2 {
		t.Fatalf("JSON roundtrip counter = %d,%v", v, ok)
	}
}

func TestRenderTotals(t *testing.T) {
	r := NewRegistry("machine")
	r.Group("mu").Counter("packets").Add(9)
	r.Group("mu").Gauge("occupancy").Update(4)
	out := r.Snapshot().RenderTotals()
	for _, want := range []string{"machine.mu", "packets", "occupancy", "(hwm 4)"} {
		if !contains(out, want) {
			t.Fatalf("RenderTotals missing %q in:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// The acceptance bar for hot-path instrumentation: incrementing a counter
// on the eager send path costs zero allocations...
func TestCounterIncNoAlloc(t *testing.T) {
	var c Counter
	if allocs := testing.AllocsPerRun(1000, c.Inc); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f objects/op, want 0", allocs)
	}
	var g Gauge
	if allocs := testing.AllocsPerRun(1000, g.Inc); allocs != 0 {
		t.Fatalf("Gauge.Inc allocates %.1f objects/op, want 0", allocs)
	}
}

// ...and a handful of nanoseconds (< 20 ns/op uncontended):
//
//	go test -bench BenchmarkCounterInc ./internal/telemetry
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Load() != int64(b.N) {
		b.Fatal("lost updates")
	}
}

func BenchmarkGaugeUpdate(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Update(1)
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Load() != int64(b.N) {
		b.Fatal("lost updates")
	}
}
