package integration

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mpilib"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
)

// chaosDeadline bounds every chaos job: a hung run under injected
// faults fails the test with a goroutine dump instead of wedging the
// whole suite until the go test timeout.
const chaosDeadline = 2 * time.Minute

// bounded is the harness every chaos job runs in: job gets its own
// goroutine and a deadline — an overrun fails the test with a goroutine
// dump instead of wedging the whole suite until the go test timeout — and
// once it returns (having shut down whatever it booted) the goroutine
// count must come back to its starting level: no survivor blocks forever,
// no commthread or retransmit daemon outlives its machine. The runtime
// needs a moment to unwind them, so the check polls before declaring a
// leak — on a cadence derived from the fault-plan seed, not the wall
// clock, so a given plan re-runs with identical timing behavior. job runs
// off the test goroutine: it reports with t.Error, never t.Fatal.
func bounded(t *testing.T, what string, deadline time.Duration, seed int64, job func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		job()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("%s job still running after %v; goroutine dump:\n\n%s", what, deadline, watchdog.Stacks())
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for step := int64(0); runtime.NumGoroutine() > before; step++ {
		if time.Now().After(leakDeadline) {
			t.Errorf("goroutines leaked: %d before job, %d after shutdown\n\n%s",
				before, runtime.NumGoroutine(), watchdog.Stacks())
			break
		}
		time.Sleep(fault.Jitter(seed, step, 5*time.Millisecond))
	}
}

// runMachineJob boots cfg, runs job on the machine inside the bounded harness,
// shuts the machine down, and returns it so callers can inspect its
// telemetry.
func runMachineJob(t *testing.T, what string, deadline time.Duration, cfg machine.Config, job func(m *machine.Machine)) *machine.Machine {
	t.Helper()
	var m *machine.Machine
	bounded(t, what, deadline, cfg.FaultSeed, func() {
		var err error
		if m, err = machine.New(cfg); err != nil {
			t.Error(err)
			return
		}
		defer m.Shutdown()
		job(m)
	})
	if m == nil {
		t.FailNow()
	}
	return m
}

// runChaosJob runs body once per process on an MPI world over cfg.
func runChaosJob(t *testing.T, cfg machine.Config, opts mpilib.Options, body func(w *mpilib.World)) *machine.Machine {
	t.Helper()
	return runMachineJob(t, "chaos", chaosDeadline, cfg, func(m *machine.Machine) { runWorld(t, m, opts, body) })
}

// runWorld runs body once per process on an MPI world over m; the first
// rank to panic fails the test.
func runWorld(t *testing.T, m *machine.Machine, opts mpilib.Options, body func(w *mpilib.World)) {
	var fail sync.Once
	m.Run(func(p *cnk.Process) {
		defer func() {
			if r := recover(); r != nil {
				fail.Do(func() { t.Errorf("rank %d panicked: %v", p.TaskRank(), r) })
			}
		}()
		w, err := mpilib.Init(m, p, opts)
		if err != nil {
			panic(err)
		}
		body(w)
		w.Finalize()
	})
}

func machineCounter(t *testing.T, m *machine.Machine, path string) int64 {
	t.Helper()
	v, _ := m.Telemetry().Snapshot().Counter(path)
	return v
}

func mustPlan(t *testing.T, s string, dims torus.Dims) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(dims); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestChaosPointToPoint pushes mixed eager/rendezvous ring traffic
// through a fabric dropping, corrupting, duplicating, and delaying up
// to 10% of packets, and requires byte-exact exactly-once delivery.
func TestChaosPointToPoint(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 2,
		Faults:    mustPlan(t, "drop=0.10,corrupt=0.10,dup=0.10,delay=0.05", dims),
		FaultSeed: 7,
	}
	m := runChaosJob(t, cfg, mpilib.Options{EagerLimit: 512}, func(w *mpilib.World) {
		cw := w.CommWorld()
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		for round := 0; round < 10; round++ {
			for k, size := range []int{64, 4096} { // eager and rendezvous
				out := make([]byte, size)
				fill(out, w.Rank(), round, k)
				in := make([]byte, size)
				if _, err := cw.SendRecv(out, next, round*2+k, in, prev, round*2+k); err != nil {
					panic(err)
				}
				want := make([]byte, size)
				fill(want, prev, round, k)
				if !bytes.Equal(in, want) {
					t.Errorf("rank %d round %d size %d: payload corrupt", w.Rank(), round, size)
					return
				}
			}
			cw.Barrier()
		}
	})
	for _, c := range []string{"retransmits", "corrupt_drops", "dup_drops"} {
		if v := machineCounter(t, m, "mu.reliable."+c); v == 0 {
			t.Errorf("%s = 0; the plan should have forced recovery work", c)
		}
	}
}

// TestChaosCollectivesSurviveLinkDown runs classroute and software
// collectives across a mid-run link failure: the collective network
// must rebuild its trees around the dead cable and every result must
// stay exact.
func TestChaosCollectivesSurviveLinkDown(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 2,
		Faults:    mustPlan(t, "drop=0.05,corrupt=0.02,dup=0.02,linkdown=0:A+@250", dims),
		FaultSeed: 99,
	}
	m := runChaosJob(t, cfg, mpilib.Options{}, func(w *mpilib.World) {
		cw := w.CommWorld()
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		for round := 0; round < 12; round++ {
			// Push enough pt2pt packets that the link-down trigger fires
			// mid-run, between collective rounds.
			out := make([]byte, 2048)
			fill(out, w.Rank(), round, 5)
			in := make([]byte, 2048)
			if _, err := cw.SendRecv(out, next, round, in, prev, round); err != nil {
				panic(err)
			}
			want := make([]byte, 2048)
			fill(want, prev, round, 5)
			if !bytes.Equal(in, want) {
				t.Errorf("rank %d round %d: pt2pt corrupt", w.Rank(), round)
				return
			}
			// Classroute path on the world communicator.
			sum, err := cw.AllreduceInt64([]int64{int64(w.Rank())}, collnet.OpAdd)
			if err != nil {
				panic(err)
			}
			if want := int64(w.Size() * (w.Size() - 1) / 2); sum[0] != want {
				t.Errorf("rank %d round %d: allreduce = %d, want %d", w.Rank(), round, sum[0], want)
				return
			}
			// Software path on an unoptimized split communicator.
			sub, err := cw.Split(w.Rank()%2, w.Rank())
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 128)
			if sub.Rank() == 0 {
				fill(buf, round, w.Rank()%2, 3)
			}
			if err := sub.Bcast(buf, 0); err != nil {
				panic(err)
			}
			wantB := make([]byte, 128)
			fill(wantB, round, w.Rank()%2, 3)
			if !bytes.Equal(buf, wantB) {
				t.Errorf("rank %d round %d: software bcast corrupt", w.Rank(), round)
				return
			}
			sub.Free()
			cw.Barrier()
		}
	})
	if v := machineCounter(t, m, "mu.reliable.link_down_events"); v != 1 {
		t.Errorf("link_down_events = %d, want 1", v)
	}
	if v := machineCounter(t, m, "collnet.links_down"); v != 1 {
		t.Errorf("collnet.links_down = %d, want 1", v)
	}
}

// TestChaosRouteAround fails the only direct cable on a 3-ring mid-run
// and requires traffic to detour the long way, with hop accounting
// showing the rerouted packets.
func TestChaosRouteAround(t *testing.T) {
	dims := torus.Dims{3, 1, 1, 1, 1}
	cfg := machine.Config{
		Dims: dims, PPN: 1, TrackHops: true,
		Faults:    mustPlan(t, "drop=0.05,linkdown=0:A+@40", dims),
		FaultSeed: 5,
	}
	m := runChaosJob(t, cfg, mpilib.Options{}, func(w *mpilib.World) {
		cw := w.CommWorld()
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		for round := 0; round < 20; round++ {
			out := make([]byte, 1024)
			fill(out, w.Rank(), round, 1)
			in := make([]byte, 1024)
			if _, err := cw.SendRecv(out, next, round, in, prev, round); err != nil {
				panic(err)
			}
			want := make([]byte, 1024)
			fill(want, prev, round, 1)
			if !bytes.Equal(in, want) {
				t.Errorf("rank %d round %d: corrupt after reroute", w.Rank(), round)
				return
			}
			cw.Barrier()
		}
	})
	if v := machineCounter(t, m, "mu.reliable.link_down_events"); v != 1 {
		t.Errorf("link_down_events = %d, want 1", v)
	}
	if v := machineCounter(t, m, "mu.reliable.reroutes"); v == 0 {
		t.Error("reroutes = 0; traffic never detoured the dead cable")
	}
}

// TestChaosDisabledNoRetransmits runs the same workload with faults off
// and requires the reliable layer to stay out of the way entirely.
func TestChaosDisabledNoRetransmits(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	m := runChaosJob(t, machine.Config{Dims: dims, PPN: 2}, mpilib.Options{}, func(w *mpilib.World) {
		cw := w.CommWorld()
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		out := make([]byte, 4096)
		fill(out, w.Rank(), 0, 2)
		in := make([]byte, 4096)
		if _, err := cw.SendRecv(out, next, 0, in, prev, 0); err != nil {
			panic(err)
		}
		cw.Barrier()
	})
	if m.Fabric().Injector() != nil {
		t.Error("injector installed with no fault plan")
	}
	if v := machineCounter(t, m, "mu.reliable.retransmits"); v != 0 {
		t.Errorf("retransmits = %d with faults disabled, want 0", v)
	}
}
