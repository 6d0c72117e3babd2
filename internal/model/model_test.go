package model

import (
	"math"
	"strings"
	"testing"
)

// within asserts |got-want|/want <= tol.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Errorf("%s = %.1f, paper %.1f (off by %.1f%%, tol %.0f%%)",
			name, got, want, 100*math.Abs(got-want)/want, 100*tol)
	}
}

// --- Table 1 ---

func TestTable1Calibration(t *testing.T) {
	p := Default()
	imm, snd := Table1Latencies(p)
	within(t, "PAMI SendImmediate 0B HRT (ns)", imm, 1180, 0.02)
	within(t, "PAMI Send 0B HRT (ns)", snd, 1320, 0.02)
	if imm >= snd {
		t.Error("SendImmediate must be faster than Send")
	}
}

// --- Table 2 ---

func TestTable2Calibration(t *testing.T) {
	p := Default()
	cases := []struct {
		cfg       Table2Config
		noCT, wCT float64
	}{
		{Table2Config{Library: "classic"}, 1950, -1},
		{Table2Config{Library: "classic", LockEnabled: true}, 2280, 8700},
		{Table2Config{Library: "thread-optimized", ThreadMode: "single"}, 2500, -1},
		{Table2Config{Library: "thread-optimized", ThreadMode: "multiple"}, 2960, 3250},
	}
	for _, c := range cases {
		no, with := Table2Latency(p, c.cfg)
		within(t, c.cfg.Library+"/"+c.cfg.ThreadMode+" noCT", no, c.noCT, 0.02)
		if c.wCT < 0 {
			if with >= 0 {
				t.Errorf("%v: expected N/A with commthreads", c.cfg)
			}
			continue
		}
		within(t, c.cfg.Library+"/"+c.cfg.ThreadMode+" withCT", with, c.wCT, 0.02)
	}
}

func TestTable2Shape(t *testing.T) {
	p := Default()
	classicSingle, _ := Table2Latency(p, Table2Config{Library: "classic"})
	classicLocked, classicCT := Table2Latency(p, Table2Config{Library: "classic", LockEnabled: true})
	optSingle, _ := Table2Latency(p, Table2Config{Library: "thread-optimized", ThreadMode: "single"})
	optMulti, optCT := Table2Latency(p, Table2Config{Library: "thread-optimized", ThreadMode: "multiple"})
	// Shape claims from §V: classic single-threaded is the cheapest; the
	// thread-optimized build pays memory sync even single-threaded; the
	// classic build collapses with commthreads while the thread-optimized
	// build barely notices them.
	if !(classicSingle < classicLocked && classicLocked < optMulti) {
		t.Error("latency ordering classicSingle < classicLocked < optMulti violated")
	}
	if optSingle <= classicSingle {
		t.Error("thread-optimized must cost more than classic in THREAD_SINGLE")
	}
	if classicCT < 2*classicLocked {
		t.Error("classic + commthreads should collapse (context-lock contention)")
	}
	if optCT > 1.2*optMulti {
		t.Error("thread-optimized should tolerate commthreads")
	}
}

// --- Table 3 ---

func TestTable3Calibration(t *testing.T) {
	p := Default()
	paper := map[int][2]float64{ // neighbors -> {eager, rendezvous}
		1:  {3267, 3333},
		2:  {3360, 6625},
		4:  {6676, 13139},
		10: {8467, 32355},
	}
	for n, want := range paper {
		e, r := Table3Throughput(p, n)
		within(t, "eager", e, want[0], 0.05)
		within(t, "rendezvous", r, want[1], 0.05)
	}
}

func TestTable3Shape(t *testing.T) {
	p := Default()
	// Rendezvous scales near-linearly with neighbors; eager saturates.
	_, r1 := Table3Throughput(p, 1)
	_, r10 := Table3Throughput(p, 10)
	if r10 < 9*r1 {
		t.Errorf("rendezvous scaling %0.1fx over 10 links, want ~10x", r10/r1)
	}
	e1, _ := Table3Throughput(p, 1)
	e10, _ := Table3Throughput(p, 10)
	if e10 > 3*e1 {
		t.Errorf("eager should saturate: %0.1fx at 10 neighbors", e10/e1)
	}
	// Rendezvous wins at every neighbor count >= 2, and by ~4x at 10.
	for _, n := range []int{2, 4, 10} {
		e, r := Table3Throughput(p, n)
		if r <= e {
			t.Errorf("rendezvous must beat eager at %d neighbors", n)
		}
	}
	e, r := Table3Throughput(p, 10)
	if r/e < 3 || r/e > 5 {
		t.Errorf("rendezvous/eager at 10 neighbors = %.1fx, paper ~3.8x", r/e)
	}
	// Rendezvous reaches ~90% of the 10-link peak.
	if frac := r / (2 * 10 * p.LinkPayloadMBs); frac < 0.88 || frac > 0.93 {
		t.Errorf("rendezvous peak fraction %.2f, paper 0.90", frac)
	}
}

// --- Figure 5 ---

func TestFig5Calibration(t *testing.T) {
	p := Default()
	within(t, "PAMI rate at PPN=32 (MMPS)", Fig5PAMIRate(p, 32), 107, 0.02)
	within(t, "MPI rate at PPN=32 (MMPS)", Fig5MPIRate(p, 32, false), 22.9, 0.02)
	within(t, "MPI+CT best (PPN=16, MMPS)", Fig5MPIRateCommthreads(p, 16, false), 18.7, 0.03)
	speedup := Fig5MPIRateCommthreads(p, 1, false) / Fig5MPIRate(p, 1, false)
	within(t, "commthread speedup at PPN=1", speedup, 2.4, 0.03)
}

func TestFig5Shape(t *testing.T) {
	p := Default()
	// PAMI beats MPI everywhere, by ~4.7x at PPN=32.
	for _, ppn := range Fig5PPNs {
		if Fig5PAMIRate(p, ppn) <= Fig5MPIRate(p, ppn, false) {
			t.Errorf("PAMI rate must exceed MPI at PPN=%d", ppn)
		}
	}
	ratio := Fig5PAMIRate(p, 32) / Fig5MPIRate(p, 32, false)
	if ratio < 4 || ratio > 6 {
		t.Errorf("PAMI/MPI ratio %.1f, paper ~4.7", ratio)
	}
	// Commthread speedup declines as PPN grows (fewer helpers each).
	s1 := Fig5MPIRateCommthreads(p, 1, false) / Fig5MPIRate(p, 1, false)
	s16 := Fig5MPIRateCommthreads(p, 16, false) / Fig5MPIRate(p, 16, false)
	if s16 >= s1 {
		t.Errorf("commthread speedup should decline with PPN: %.2f -> %.2f", s1, s16)
	}
	if s16 <= 1 {
		t.Error("commthreads should still help at PPN=16")
	}
	// Wildcards cost message rate where the serial matching path is the
	// bottleneck (low PPN with commthreads, and everywhere without them).
	if Fig5MPIRateCommthreads(p, 1, true) >= Fig5MPIRateCommthreads(p, 1, false) {
		t.Error("wildcard receives must reduce the commthreaded message rate")
	}
	if Fig5MPIRate(p, 16, true) >= Fig5MPIRate(p, 16, false) {
		t.Error("wildcard receives must reduce the message rate")
	}
	// No commthreads modeled at PPN=32.
	if !math.IsNaN(Fig5MPIRateCommthreads(p, 32, false)) {
		t.Error("commthreads are not enabled at PPN=32 in the paper")
	}
	// Rates scale with PPN.
	if Fig5MPIRate(p, 32, false) <= Fig5MPIRate(p, 16, false) {
		t.Error("MPI rate must grow with PPN")
	}
}

// --- Figure 6 ---

func TestFig6Calibration(t *testing.T) {
	p := Default()
	within(t, "barrier 2048 PPN=1 (ns)", Fig6Barrier(p, 2048, 1), 2700, 0.02)
	within(t, "barrier 2048 PPN=4 (ns)", Fig6Barrier(p, 2048, 4), 4000, 0.02)
	within(t, "barrier 2048 PPN=16 (ns)", Fig6Barrier(p, 2048, 16), 4200, 0.02)
}

func TestFig6Shape(t *testing.T) {
	p := Default()
	// Latency grows slowly (logarithmically) with node count...
	if Fig6Barrier(p, 2048, 1) > 1.5*Fig6Barrier(p, 32, 1) {
		t.Error("GI barrier should scale near-flat from 32 to 2048 nodes")
	}
	// ...and grows with PPN, but modestly (L2 atomic local barrier).
	for _, nodes := range FigNodeCounts {
		b1, b4, b16 := Fig6Barrier(p, nodes, 1), Fig6Barrier(p, nodes, 4), Fig6Barrier(p, nodes, 16)
		if !(b1 < b4 && b4 < b16) {
			t.Errorf("barrier PPN ordering broken at %d nodes", nodes)
		}
		if b16 > 2*b1 {
			t.Errorf("local barrier overhead too large at %d nodes", nodes)
		}
	}
}

// --- Figure 7 ---

func TestFig7Calibration(t *testing.T) {
	p := Default()
	within(t, "allreduce 2048 PPN=1 (ns)", Fig7Allreduce(p, 2048, 1), 5500, 0.02)
	within(t, "allreduce 2048 PPN=4 (ns)", Fig7Allreduce(p, 2048, 4), 5000, 0.02)
	within(t, "allreduce 2048 PPN=16 (ns)", Fig7Allreduce(p, 2048, 16), 5300, 0.02)
}

func TestFig7Shape(t *testing.T) {
	p := Default()
	// The paper's counterintuitive ordering at 2048 nodes: PPN=4 fastest.
	a1, a4, a16 := Fig7Allreduce(p, 2048, 1), Fig7Allreduce(p, 2048, 4), Fig7Allreduce(p, 2048, 16)
	if !(a4 < a16 && a16 < a1) {
		t.Errorf("allreduce PPN ordering: got %v %v %v, want a4 < a16 < a1", a1, a4, a16)
	}
	// Latency grows with node count through tree depth.
	if Fig7Allreduce(p, 2048, 1) <= Fig7Allreduce(p, 32, 1) {
		t.Error("allreduce latency must grow with machine size")
	}
	// Barrier is faster than allreduce at the same scale (paper: 2.7 vs 5.5).
	if Fig6Barrier(p, 2048, 1) >= Fig7Allreduce(p, 2048, 1) {
		t.Error("barrier must be faster than allreduce")
	}
}

// --- Figure 8 ---

func TestFig8Calibration(t *testing.T) {
	p := Default()
	within(t, "allreduce tput 8MB PPN=1", Fig8Allreduce(p, 8<<20, 1), 1704, 0.02)
	within(t, "allreduce tput 2MB PPN=4", Fig8Allreduce(p, 2<<20, 4), 1693, 0.02)
	within(t, "allreduce tput 512KB PPN=16", Fig8Allreduce(p, 512<<10, 16), 1643, 0.02)
}

func TestFig8Shape(t *testing.T) {
	p := Default()
	// Peak fraction ~95% at PPN=1.
	frac := Fig8Allreduce(p, 8<<20, 1) / p.LinkPayloadMBs
	if frac < 0.93 || frac > 0.96 {
		t.Errorf("allreduce peak fraction %.3f, paper 0.95", frac)
	}
	// Throughput rises with size up to the L2 knee, then declines at
	// PPN=4/16 (buffers spill to DDR) but not at PPN=1 within 8MB.
	if Fig8Allreduce(p, 4<<20, 4) >= Fig8Allreduce(p, 2<<20, 4) {
		t.Error("PPN=4 should decline past 2MB (L2 spill)")
	}
	if Fig8Allreduce(p, 1<<20, 16) >= Fig8Allreduce(p, 512<<10, 16) {
		t.Error("PPN=16 should decline past 512KB (L2 spill)")
	}
	if Fig8Allreduce(p, 8<<20, 1) <= Fig8Allreduce(p, 1<<20, 1) {
		t.Error("PPN=1 should still be rising at 8MB")
	}
	// The knee moves earlier with more processes per node.
	_, peak1 := seriesFor(Fig8(p), "PPN=1").Peak()
	x4, _ := seriesFor(Fig8(p), "PPN=4").Peak()
	x16, _ := seriesFor(Fig8(p), "PPN=16").Peak()
	if !(x16 < x4) {
		t.Errorf("L2 knee should move earlier with PPN: x4=%v x16=%v", x4, x16)
	}
	if peak1 < 1700 {
		t.Errorf("PPN=1 peak %f too low", peak1)
	}
	// Small messages are latency-bound: far below peak.
	if Fig8Allreduce(p, 8, 1) > 100 {
		t.Error("8B allreduce should be latency-bound")
	}
}

// --- Figure 9 ---

func TestFig9Calibration(t *testing.T) {
	p := Default()
	within(t, "bcast tput 32MB PPN=1", Fig9Broadcast(p, 32<<20, 1), 1728, 0.02)
	within(t, "bcast tput 4MB PPN=4", Fig9Broadcast(p, 4<<20, 4), 1722, 0.02)
	within(t, "bcast tput 1MB PPN=16", Fig9Broadcast(p, 1<<20, 16), 1701, 0.02)
}

func TestFig9Shape(t *testing.T) {
	p := Default()
	// ~96% of peak at PPN=1.
	frac := Fig9Broadcast(p, 32<<20, 1) / p.LinkPayloadMBs
	if frac < 0.95 || frac > 0.97 {
		t.Errorf("broadcast peak fraction %.3f, paper 0.96", frac)
	}
	// PPN=4 and 16 saturate then decline past their L2 knees.
	if Fig9Broadcast(p, 8<<20, 4) >= Fig9Broadcast(p, 4<<20, 4) {
		t.Error("PPN=4 should decline past 4MB")
	}
	if Fig9Broadcast(p, 2<<20, 16) >= Fig9Broadcast(p, 1<<20, 16) {
		t.Error("PPN=16 should decline past 1MB")
	}
	// Broadcast peak slightly exceeds allreduce peak (no combine).
	if Fig9Broadcast(p, 32<<20, 1) <= Fig8Allreduce(p, 8<<20, 1) {
		t.Error("broadcast should outrun allreduce")
	}
}

// --- Figure 10 ---

func TestFig10Calibration(t *testing.T) {
	p := Default()
	within(t, "rect bcast 32MB PPN=1", Fig10RectBcast(p, 32<<20, 1), 16900, 0.02)
}

func TestFig10Shape(t *testing.T) {
	p := Default()
	// ~10x over the single-tree collective network broadcast.
	gain := Fig10RectBcast(p, 32<<20, 1) / Fig9Broadcast(p, 32<<20, 1)
	if gain < 8 || gain > 11 {
		t.Errorf("rectangle broadcast gain %.1fx, paper ~9.8x", gain)
	}
	// ~94% of the 18 GB/s aggregate peak.
	frac := Fig10RectBcast(p, 32<<20, 1) / (float64(p.RectColors) * p.LinkPayloadMBs)
	if frac < 0.92 || frac > 0.95 {
		t.Errorf("rect peak fraction %.3f, paper 0.94", frac)
	}
	// At PPN>1 the node copy rate dominates; PPN=16 is slowest.
	t1 := Fig10RectBcast(p, 4<<20, 1)
	t4 := Fig10RectBcast(p, 4<<20, 4)
	t16 := Fig10RectBcast(p, 4<<20, 16)
	if !(t16 < t4 && t4 < t1) {
		t.Errorf("rect bcast PPN ordering broken: %v %v %v", t1, t4, t16)
	}
	// Large sizes at PPN>1 decline past the L2 spill.
	if Fig10RectBcast(p, 32<<20, 16) >= Fig10RectBcast(p, 1<<20, 16) {
		t.Error("PPN=16 rect bcast should decline for huge messages")
	}
}

// --- plumbing ---

func seriesFor(ss []Series, substr string) Series {
	for _, s := range ss {
		if contains(s.Label, substr) {
			return s
		}
	}
	return Series{}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestShapeForCoversSweeps(t *testing.T) {
	for _, n := range FigNodeCounts {
		d := ShapeFor(n)
		if d.Nodes() != n {
			t.Errorf("ShapeFor(%d) has %d nodes", n, d.Nodes())
		}
	}
	if ShapeFor(96).Nodes() != 96 && ShapeFor(96).Nodes() == 0 {
		t.Error("fallback shape broken")
	}
}

func TestTablesRender(t *testing.T) {
	p := Default()
	for _, tab := range []Table{Table1(p), Table2(p), Table3(p)} {
		if tab.Title == "" || len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Errorf("table %q incomplete", tab.Title)
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Columns) {
				t.Errorf("table %q row width mismatch", tab.Title)
			}
		}
	}
}

func TestFiguresRender(t *testing.T) {
	p := Default()
	for _, f := range [][]Series{Fig5(p), Fig6(p), Fig7(p), Fig8(p), Fig9(p), Fig10(p)} {
		if len(f) == 0 {
			t.Fatal("empty figure")
		}
		for _, s := range f {
			if len(s.X) != len(s.Y) || len(s.X) == 0 {
				t.Errorf("series %q malformed", s.Label)
			}
			for _, y := range s.Y {
				if math.IsNaN(y) || y < 0 {
					t.Errorf("series %q has invalid point", s.Label)
				}
			}
		}
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable(Table1(Default()))
	if !strings.Contains(out, "PAMI Send Immediate") || !strings.Contains(out, "us") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("render too short:\n%s", out)
	}
}

func TestRenderSeries(t *testing.T) {
	out := RenderSeries("Figure 5", Fig5(Default()))
	if !strings.Contains(out, "PAMI") || !strings.Contains(out, "MMPS") {
		t.Fatalf("series render missing content:\n%s", out)
	}
	// PPN=32 row must show '-' for the commthread series (not run there).
	if !strings.Contains(out, "-") {
		t.Fatalf("missing N/A marker:\n%s", out)
	}
}
