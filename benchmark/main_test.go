package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs all eight workloads, untraced and traced, and the ladder at
// 1/100 length, and checks the shape of the result, not its numbers: every
// metric BENCHMARK.json names is there with the right unit, no op failed,
// and the result line parses. It asserts nothing about time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at 1/100 length")
	}
	sp := loadSpec()
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	window := time.Duration(sp.RunSeconds) * time.Second / 100
	acct := newAccount()
	vals := map[string]float64{}
	check := func(where string, want []specMetric, got map[string]metric) {
		t.Helper()
		line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: got})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		var back result
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("%s: result does not parse: %v", where, err)
		}
		if len(back.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", where, len(back.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := back.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s: got %+v, want unit %q", where, m.Name, v, m.Unit)
			}
		}
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, sp.Workloads[i].Name, w.name)
		}
		endToEnd := map[string]metric{}
		endToEndRun(w, 1, window, quickOptions, acct, endToEnd)
		check(w.name, sp.EndToEnd, endToEnd)
		workloadLayers(w, 1, window/4, filepath.Join(t.TempDir(), "trace.json"), quickOptions, acct, vals)
	}
	runLadder(window/2, acct, vals)
	budget(1, window/4, quickOptions, acct, vals)
	for _, m := range sp.PerLayer {
		if _, ok := vals[m.Name]; !ok {
			t.Errorf("BENCHMARK.json names %s, which nothing measures", m.Name)
		}
	}
	layers := map[string]metric{}
	fillPerLayer(sp.PerLayer, vals, acct, layers)
	check("per layer", sp.PerLayer, layers)
	if n := acct.failed.Load(); n != 0 {
		t.Errorf("failed_ops = %d: %v", n, acct.reasons())
	}
}
