package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/recovery"
	"pamigo/internal/torus"
)

var testDims = torus.Dims{2, 2, 1, 1, 1}

func testConfig(t *testing.T, faults string, seed int64) machine.Config {
	t.Helper()
	cfg := machine.Config{Dims: testDims, PPN: 1, FaultSeed: seed}
	if faults != "" {
		plan, err := fault.ParsePlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(testDims); err != nil {
			t.Fatal(err)
		}
		cfg.Faults = &plan
	}
	return cfg
}

// TestScenarios runs each of the three combinations in one process, on
// the fault plans scripts/check.sh and scripts/recovery_soak.sh use, and
// holds the report to what the scripts grep for. In one process the
// exchange under Restart runs on the torus plan it was given: a crash
// restarts it, a drop and corrupt storm costs the reliable layer
// retransmits.
func TestScenarios(t *testing.T) {
	cases := []struct {
		name   string
		plan   Plan
		faults string
		seed   int64
		check  func(t *testing.T, rep *Report)
	}{
		{
			name: "allreduce restart, one crash", faults: "crash@pkt=1500,node=3", seed: 7,
			plan: Plan{Workload: Allreduce, Policy: Restart},
			check: func(t *testing.T, rep *Report) {
				if rep.Generations != 2 || rep.TypedFailures == 0 || rep.Epoch != 0 {
					t.Errorf("generations %d, typed failures %d, final epoch %d: want one restart after typed failures onto a repaired partition",
						rep.Generations, rep.TypedFailures, rep.Epoch)
				}
				if rep.Resume <= 0 || rep.Resume%allreduceJob.every != 0 || rep.Checkpoints < 2 {
					t.Errorf("resumed at round %d with %d checkpoints: want a resume from a periodic checkpoint", rep.Resume, rep.Checkpoints)
				}
			},
		},
		{
			name: "exchange online, three sequential kills", seed: 17,
			faults: "crash@pkt=100,node=1,crash@pkt=220,node=3,crash@pkt=340,node=2",
			plan:   Plan{Workload: Exchange, Policy: Online, BuddyInterval: 4},
			check: func(t *testing.T, rep *Report) {
				if rep.Restores != 3 || rep.Epoch != 6 || rep.MTTR <= 0 || rep.Checkpoints == 0 {
					t.Errorf("restores %d, epoch %d, MTTR %v, checkpoints %d: want 3 kills healed online (+1 epoch per death and per revival)",
						rep.Restores, rep.Epoch, rep.MTTR, rep.Checkpoints)
				}
				if rep.Resume <= 0 {
					t.Errorf("last restore resumed at round %d: want a resume from a buddy checkpoint", rep.Resume)
				}
			},
		},
		{
			name: "exchange restart, one crash", faults: "crash@pkt=100,node=1", seed: 7,
			plan: Plan{Workload: Exchange, Policy: Restart},
			check: func(t *testing.T, rep *Report) {
				if rep.Generations != 2 || rep.TypedFailures == 0 || rep.Resume < 0 {
					t.Errorf("generations %d, typed failures %d, resume %d: want one restart after typed failures",
						rep.Generations, rep.TypedFailures, rep.Resume)
				}
			},
		},
		{
			name: "exchange restart, torus storm", faults: "drop=0.05,corrupt=0.02", seed: 7,
			plan: Plan{Workload: Exchange, Policy: Restart},
			check: func(t *testing.T, rep *Report) {
				if rep.Generations != 1 {
					t.Errorf("generations %d: want one generation, the storm kills nobody", rep.Generations)
				}
				if v, _ := rep.Machines[0].Telemetry().Snapshot().Counter("mu.reliable.retransmits"); v == 0 {
					t.Error("mu.reliable.retransmits = 0: the storm never reached the torus")
				}
			},
		},
		{
			name: "exchange restart, fault-free reference",
			plan: Plan{Workload: Exchange, Policy: Restart},
			check: func(t *testing.T, rep *Report) {
				if rep.Generations != 1 || rep.Resume != -1 || rep.Checkpoints != ExchangeRounds/exchangeJob.every {
					t.Errorf("generations %d, resume %d, checkpoints %d: want one undisturbed generation", rep.Generations, rep.Resume, rep.Checkpoints)
				}
				for task := 0; task < 4; task++ {
					if want := expectedDigest(task, ExchangeRounds, fullMembership(4)); rep.Digests[task] != want {
						t.Errorf("task %d digest %016x, want the analytic %016x", task, rep.Digests[task], want)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.plan.Machine = testConfig(t, tc.faults, tc.seed)
			tc.plan.Span.DieRound = -1
			var out strings.Builder
			tc.plan.Out = &out
			rep, err := Run(tc.plan)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if len(rep.Digests) != 4 || len(rep.Lines) != 5 || !strings.Contains(rep.Lines[4], "digests byte-exact") {
				t.Fatalf("verdict for %d tasks: %q", len(rep.Digests), rep.Lines)
			}
			tc.check(t, rep)
		})
	}
}

// TestRunRefusesWhatPamirunCannotAsk pins the offered combinations. Over
// a wire only drop and corrupt are injected: a plan with anything else is
// refused, not dropped.
func TestRunRefusesWhatPamirunCannotAsk(t *testing.T) {
	wire := Span{Listen: "127.0.0.1:0", DieRound: -1}
	for name, tc := range map[string]struct {
		p      Plan
		faults string
	}{
		"allreduce online":         {p: Plan{Workload: Allreduce, Policy: Online, BuddyInterval: 4, Span: Span{DieRound: -1}}},
		"allreduce over a wire":    {p: Plan{Workload: Allreduce, Span: wire}},
		"die in one process":       {p: Plan{Workload: Exchange, Span: Span{DieRound: 3}}},
		"online without a fault":   {p: Plan{Workload: Exchange, Policy: Online, BuddyInterval: 4, Span: Span{DieRound: -1}}},
		"online without buddies":   {p: Plan{Workload: Exchange, Policy: Online, Span: Span{DieRound: -1}}},
		"crash over a wire":        {p: Plan{Workload: Exchange, Span: wire}, faults: "drop=0.05,crash@pkt=100,node=1"},
		"duplicates over a wire":   {p: Plan{Workload: Exchange, Span: wire}, faults: "dup=0.01"},
		"online crash over a wire": {p: Plan{Workload: Exchange, Policy: Online, BuddyInterval: 4, Span: wire}, faults: "crash@pkt=100,node=1"},
	} {
		p := tc.p
		p.Machine = testConfig(t, tc.faults, 1)
		rep, err := Run(p)
		if err == nil || rep.Generations != 0 {
			t.Errorf("%s: err %v after %d boots, want a refusal before any boot", name, err, rep.Generations)
		} else if tc.faults != "" && !strings.Contains(err.Error(), "-die-round") {
			t.Errorf("%s: %v, want a refusal that points to -die-round", name, err)
		}
	}
}

// TestUntypedFailureIsAnError: a task failing in a way no injected death
// explains is the run's error — not a panic inside m.Run, which would
// take the test binary down — and the tasks waiting on the failed one are
// released rather than left in their round.
func TestUntypedFailureIsAnError(t *testing.T) {
	boom := errors.New("boom")
	w := exchangeJob
	w.join = func(g *generation, ctx *core.Context, task int) (func(int, []uint64) error, error) {
		round, err := exchangeJob.join(g, ctx, task)
		return func(r int, state []uint64) error {
			if r == 2 && task == 0 {
				return boom
			}
			return round(r, state)
		}, err
	}
	r := &run{Plan: Plan{Machine: testConfig(t, "", 1), Span: Span{DieRound: -1}, Out: new(strings.Builder)},
		rep: &Report{Resume: -1, Digests: map[int]uint64{}}, start: time.Now(), nTasks: 4, hi: 4}
	done := make(chan error, 1)
	go func() { done <- r.restart(w) }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "task 0: untyped failure") {
			t.Fatalf("restart returned %v, want task 0's untyped failure", err)
		}
		if r.rep.TypedFailures != 0 || r.rep.Generations != 1 {
			t.Fatalf("report %+v: the released tasks must not count as failovers, nor trigger a restart", r.rep)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the tasks waiting for the failed one were never released")
	}
}

// The digest machinery must be deterministic and coordinate-bound, or
// byte-exact comparison across process layouts means nothing.
func TestWireDigestDeterminism(t *testing.T) {
	if sig(3, 1, 2) != sigOf(3, 1, 2, payload(3, 1, 2)) {
		t.Fatal("analytic signature disagrees with the received-bytes path")
	}
	if sig(3, 1, 2) == sig(3, 2, 1) {
		t.Fatal("signature ignores direction")
	}
	p := payload(5, 0, 1)
	p[len(p)/2] ^= 0x40
	if sigOf(5, 0, 1, p) == sig(5, 0, 1) {
		t.Fatal("a flipped bit went unnoticed")
	}
	for round := 0; round < onlineRounds; round++ {
		if n := len(payload(round, round%3, 7)) + len(genMeta(0, round)); n > mu.MaxPayload {
			t.Fatalf("round %d payload plus metadata is %d bytes: more than one packet", round, n)
		}
	}
}

// A retained checkpoint is a recovery.Snapshot: version = resume round,
// data = the state words; what the blob says must match what the
// coordinator stored it under, and damage is refused, typed.
func TestWireBlobRoundTrip(t *testing.T) {
	job := &restartJob{run: &run{rep: &Report{}, hi: 2}, w: exchangeJob}
	job.store(4, []uint64{7, 0xdeadbeefcafef00d})
	job.store(8, []uint64{8, 9})
	job.store(12, []uint64{10, 11})
	if words, err := job.load(8); err != nil || len(words) != 2 || words[0] != 8 || words[1] != 9 {
		t.Fatalf("load(8) = %v, %v", words, err)
	}
	if _, err := job.load(4); err == nil {
		t.Fatal("a third-newest checkpoint is still retained")
	}
	if job.rep.Checkpoints != 3 {
		t.Fatalf("report counts %d checkpoints, want 3", job.rep.Checkpoints)
	}
	good := job.saved[1].blob
	job.saved[1].blob = good[:len(good)-3]
	if _, err := job.load(12); !errors.Is(err, recovery.ErrCorruptSnapshot) {
		t.Fatalf("truncated checkpoint: %v, want ErrCorruptSnapshot", err)
	}
	other := recovery.Snapshot{Version: 16, Data: encodeWords([]uint64{1, 2})}
	job.saved[1].blob = other.Encode()
	if _, err := job.load(12); err == nil || !strings.Contains(err.Error(), "resumes at round 16") {
		t.Fatalf("checkpoint whose blob names another round: %v", err)
	}
	short := recovery.Snapshot{Version: 12, Data: encodeWords([]uint64{1})}
	job.saved[1].blob = short.Encode()
	if _, err := job.load(12); err == nil {
		t.Fatal("checkpoint with a state word missing accepted")
	}
}

func TestWordsCodec(t *testing.T) {
	in := []uint64{0, 1, 0xdeadbeefcafef00d}
	out, err := decodeWords(encodeWords(in))
	if err != nil || len(out) != 3 || out[2] != in[2] {
		t.Fatalf("round trip: %v, %v", out, err)
	}
	if out, err := decodeWords(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty blob: %v, %v", out, err)
	}
	for _, n := range []int{1, 7, 9, 23} {
		if _, err := decodeWords(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte blob accepted", n)
		}
	}
	// A replica that is not one word — or has no round — starts from scratch.
	for _, s := range []*recovery.Snapshot{
		{Version: 4, Data: make([]byte, 7)},
		{Version: 4, Data: make([]byte, 16)},
		{Version: 0, Data: encodeWords([]uint64{9})},
	} {
		if round, dg := resumePoint(s); round != 0 || dg != 0 {
			t.Fatalf("resumePoint(%+v) = %d, %x", s, round, dg)
		}
	}
	if round, dg := resumePoint(&recovery.Snapshot{Version: 8, Data: encodeWords([]uint64{9})}); round != 8 || dg != 9 {
		t.Fatalf("resumePoint = %d, %x", round, dg)
	}
}

// Membership segments: a recovery truncates history at the resume round
// and replays later rounds with survivors only.
func TestExpectedDigestSegments(t *testing.T) {
	segs := fullMembership(2)
	base := expectedDigest(0, 8, segs)
	segs = truncate(segs, 4, []int{0})
	reduced := expectedDigest(0, 8, segs)
	if base == reduced {
		t.Fatal("dropping a member changed nothing")
	}
	var want uint64
	for r := 0; r < 8; r++ {
		want += sig(r, 0, 0)
		if r < 4 {
			want += sig(r, 1, 0)
		}
	}
	if reduced != want {
		t.Fatalf("segmented digest %016x, want %016x", reduced, want)
	}
	// A second recovery that rolls back past the first replaces it.
	segs = truncate(segs, 2, []int{0})
	if len(segs) != 2 || segs[1].from != 2 {
		t.Fatalf("history after rolling back to round 2: %+v", segs)
	}
}

// The control barrier releases its parties when all arrive, and fails
// the ones waiting — typed — when the membership epoch moves instead.
func TestBarrierAbortsOnEpochMove(t *testing.T) {
	cfg := testConfig(t, "crash@pkt=100000000,node=1", 3) // arms the monitor, never fires
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	b := newBarrier(2, cfg.FaultSeed, func() bool { return m.Epoch() != 0 })
	res := make(chan error, 2)
	for round := 0; round < 2; round++ { // reusable
		go func() { res <- b.Await() }()
		go func() { res <- b.Await() }()
		for i := 0; i < 2; i++ {
			if err := <-res; err != nil {
				t.Fatalf("full barrier: %v", err)
			}
		}
	}
	go func() { res <- b.Await() }()
	select {
	case err := <-res:
		t.Fatalf("a lone party got through: %v", err)
	case <-time.After(5 * time.Millisecond):
	}
	m.Health().DeclareDead(1)
	select {
	case err := <-res:
		if !errors.Is(err, mu.ErrEpochChanged) || !core.Recoverable(err) {
			t.Fatalf("Await after the epoch moved: %v, want ErrEpochChanged", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await still blocked after the epoch moved")
	}
}
