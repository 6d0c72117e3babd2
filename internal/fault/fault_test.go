package fault

import (
	"math"
	"sync"
	"testing"
	"time"

	"pamigo/internal/torus"
)

var testDims = torus.Dims{4, 2, 1, 1, 1}

func mustInjector(t *testing.T, plan Plan, seed int64) *Injector {
	t.Helper()
	in, err := NewInjector(testDims, plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Decisions must be a pure function of (seed, flow, seq, attempt):
// two injectors with the same seed agree everywhere, a different seed
// disagrees somewhere.
func TestDeterminism(t *testing.T) {
	plan := Plan{Drop: 0.3, Corrupt: 0.2, Duplicate: 0.1, Delay: 0.1}
	a := mustInjector(t, plan, 7)
	b := mustInjector(t, plan, 7)
	c := mustInjector(t, plan, 8)
	differs := false
	for flow := uint64(0); flow < 4; flow++ {
		for seq := uint64(1); seq <= 200; seq++ {
			for attempt := 1; attempt <= 3; attempt++ {
				if a.Decide(flow, seq, attempt) != b.Decide(flow, seq, attempt) {
					t.Fatalf("same seed disagrees at flow=%d seq=%d attempt=%d", flow, seq, attempt)
				}
				if a.Decide(flow, seq, attempt) != c.Decide(flow, seq, attempt) {
					differs = true
				}
				if a.DelayFor(flow, seq, attempt) != b.DelayFor(flow, seq, attempt) {
					t.Fatalf("delay duration not deterministic")
				}
			}
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

// Empirical rates must track the configured probabilities.
func TestDecideRates(t *testing.T) {
	plan := Plan{Drop: 0.25, Corrupt: 0.1, Duplicate: 0.05, Delay: 0.02}
	in := mustInjector(t, plan, 42)
	const n = 200000
	var drops, corrupts, dups, delays int
	for seq := uint64(1); seq <= n; seq++ {
		a := in.Decide(1, seq, 1)
		if a.Has(Drop) {
			drops++
		}
		if a.Has(Corrupt) {
			corrupts++
		}
		if a.Has(Duplicate) {
			dups++
		}
		if a.Has(Delay) {
			delays++
		}
	}
	check := func(name string, got int, want float64) {
		t.Helper()
		rate := float64(got) / n
		if math.Abs(rate-want) > 0.01 {
			t.Errorf("%s rate %.4f, want ~%.2f", name, rate, want)
		}
	}
	check("drop", drops, plan.Drop)
	check("corrupt", corrupts, plan.Corrupt)
	check("dup", dups, plan.Duplicate)
	check("delay", delays, plan.Delay)
}

func TestLinkDownFiresAtPacketCount(t *testing.T) {
	plan := Plan{LinkDowns: []LinkDown{{Node: 0, Link: torus.Link{Dim: 0, Dir: +1}, AfterPackets: 10}}}
	in := mustInjector(t, plan, 1)
	var mu sync.Mutex
	var fired []torus.Rank
	in.OnLinkDown(func(n torus.Rank, l torus.Link) {
		mu.Lock()
		fired = append(fired, n)
		mu.Unlock()
	})
	if in.HasDownLinks() {
		t.Fatal("link down before any traffic")
	}
	for i := 0; i < 9; i++ {
		in.NotePacket(1)
	}
	if in.HasDownLinks() {
		t.Fatal("link down before threshold")
	}
	in.NotePacket(1)
	if !in.HasDownLinks() {
		t.Fatal("link not down after threshold")
	}
	if !in.LinkIsDown(0, torus.Link{Dim: 0, Dir: +1}) {
		t.Error("named direction not down")
	}
	// The cable is bidirectional: the reverse direction out of the
	// neighbor is down too.
	nb := testDims.Neighbor(0, torus.Link{Dim: 0, Dir: +1})
	if !in.LinkIsDown(nb, torus.Link{Dim: 0, Dir: -1}) {
		t.Error("reverse direction of the cable still up")
	}
	if in.LinkIsDown(0, torus.Link{Dim: 1, Dir: +1}) {
		t.Error("unrelated link reported down")
	}
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 1 {
		t.Errorf("callback fired %d times, want 1", n)
	}
	// A late subscriber gets the already-down link replayed.
	var replayed int
	in.OnLinkDown(func(torus.Rank, torus.Link) { replayed++ })
	if replayed != 1 {
		t.Errorf("late subscriber saw %d replays, want 1", replayed)
	}
}

func TestBootTimeLinkDown(t *testing.T) {
	plan := Plan{LinkDowns: []LinkDown{{Node: 2, Link: torus.Link{Dim: 0, Dir: -1}}}}
	in := mustInjector(t, plan, 1)
	if !in.HasDownLinks() {
		t.Fatal("AfterPackets=0 link not down at boot")
	}
	if in.DownFn() == nil {
		t.Fatal("DownFn nil with a dead link")
	}
}

func TestStallWindow(t *testing.T) {
	plan := Plan{Stalls: []Stall{{Node: 1, From: 3, To: 6}}}
	in := mustInjector(t, plan, 1)
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, in.NotePacket(1))
	}
	// Packet counts run 1..8; stalled while count in [3,6).
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d stalled=%v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
	if in.NotePacket(0) {
		t.Error("stall leaked onto another node")
	}
}

// TestParsePlanFlood checks the flood verb is gone: a plan that names it
// is refused, not accepted and then ignored.
func TestParsePlanFlood(t *testing.T) {
	for _, spec := range []string{"flood@node=2", "drop=0.1,flood@node=2"} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) = %v, want an error", spec, p)
		}
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	base := 10 * time.Millisecond
	seen := map[time.Duration]bool{}
	for step := int64(0); step < 64; step++ {
		d := Jitter(7, step, base)
		if d != Jitter(7, step, base) {
			t.Fatalf("Jitter not deterministic at step %d", step)
		}
		if d < base || d >= 2*base {
			t.Fatalf("Jitter(7,%d)=%v outside [base, 2*base)", step, d)
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter shows no spread: %d distinct values", len(seen))
	}
	if Jitter(7, 1, 0) != 0 {
		t.Fatal("zero base must yield zero jitter")
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "drop=0.05,corrupt=0.02,dup=0.01,delay=0.1,linkdown=3:A+@500,stall=1@100-200"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.05 || p.Corrupt != 0.02 || p.Duplicate != 0.01 || p.Delay != 0.1 {
		t.Errorf("probabilities wrong: %+v", p)
	}
	if len(p.LinkDowns) != 1 || p.LinkDowns[0].Node != 3 || p.LinkDowns[0].AfterPackets != 500 ||
		p.LinkDowns[0].Link != (torus.Link{Dim: 0, Dir: +1}) {
		t.Errorf("linkdown wrong: %+v", p.LinkDowns)
	}
	if len(p.Stalls) != 1 || p.Stalls[0] != (Stall{Node: 1, From: 100, To: 200}) {
		t.Errorf("stall wrong: %+v", p.Stalls)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if back.String() != p.String() {
		t.Errorf("round trip %q != %q", back.String(), p.String())
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"drop", "drop=x", "bogus=1", "linkdown=3", "linkdown=3:F+", "linkdown=x:A+",
		"stall=1", "stall=1@5", "stall=x@1-2",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
	if p, err := ParsePlan(""); err != nil || p.Active() {
		t.Errorf("empty spec: %v %+v", err, p)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Drop: 1.5},
		{Corrupt: -0.1},
		{LinkDowns: []LinkDown{{Node: 99, Link: torus.Link{Dim: 0, Dir: 1}}}},
		{LinkDowns: []LinkDown{{Node: 0, Link: torus.Link{Dim: 7, Dir: 1}}}},
		{Stalls: []Stall{{Node: 0, From: 10, To: 5}}},
		{Stalls: []Stall{{Node: -1, From: 0, To: 5}}},
	}
	for i, p := range bad {
		if _, err := NewInjector(testDims, p, 1); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
}

func TestInactivePlan(t *testing.T) {
	if (Plan{}).Active() {
		t.Error("zero plan active")
	}
	if !(Plan{Drop: 0.01}).Active() || !(Plan{LinkDowns: []LinkDown{{}}}).Active() {
		t.Error("non-trivial plan inactive")
	}
}
