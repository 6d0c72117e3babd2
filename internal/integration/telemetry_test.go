package integration

import (
	"sync"
	"testing"

	"pamigo/internal/cnk"
	"pamigo/internal/core"
	"pamigo/internal/machine"
	"pamigo/internal/mpilib"
	"pamigo/internal/torus"
)

// TestTelemetryUnderConcurrentTraffic drives MPI traffic (mixed eager and
// rendezvous, commthreads enabled) while separate goroutines continuously
// snapshot, total, and serialize the machine's telemetry tree. Under
// `go test -race` this fails if any hot-path counter update or registry
// access is unsynchronized — it is the cross-layer companion of the
// package-level races in internal/telemetry.
//
// After the job drains it also audits the books: every send is counted
// under the protocol its size or its forced mode selects, MU packets
// moved, every rendezvous acked (rdv_inflight back to zero), and the MPI
// matching queues emptied out.
func TestTelemetryUnderConcurrentTraffic(t *testing.T) {
	m, err := machine.New(machine.Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent snapshot readers: they race against context creation,
	// registry growth, and every counter increment in the machine.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Telemetry().Snapshot()
				if _, err := snap.JSON(); err != nil {
					t.Errorf("snapshot JSON: %v", err)
					return
				}
				snap.Totals()
				_ = snap.RenderTotals()
			}
		}()
	}

	// Eager, at-threshold and rendezvous by size, then each protocol
	// forced against its size.
	sends := []struct {
		size int
		mode core.SendMode
		rdv  bool
	}{
		{64, core.ModeAuto, false}, {512, core.ModeAuto, false}, {3000, core.ModeAuto, true},
		{64, core.ModeRendezvous, true}, {3000, core.ModeEager, false},
	}
	const rounds = 40
	var fail sync.Once
	m.Run(func(p *cnk.Process) {
		defer func() {
			if r := recover(); r != nil {
				fail.Do(func() { t.Errorf("rank %d panicked: %v", p.TaskRank(), r) })
			}
		}()
		w, err := mpilib.Init(m, p, mpilib.Options{
			ThreadMode: mpilib.ThreadMultiple, // commthreads: extra writer threads
			EagerLimit: 512,
		})
		if err != nil {
			panic(err)
		}
		defer w.Finalize()
		cw := w.CommWorld()
		n := w.Size()
		peer := (w.Rank() + n/2) % n // cross-node partner, symmetric pairing
		for i := 0; i < rounds; i++ {
			c := sends[i%len(sends)]
			in := make([]byte, c.size)
			out := make([]byte, c.size)
			r, err := cw.Irecv(in, peer, i)
			if err != nil {
				panic(err)
			}
			s, err := cw.IsendMode(out, peer, i, c.mode)
			if err != nil {
				panic(err)
			}
			w.Waitall([]*mpilib.Request{r, s})
		}
	})
	close(stop)
	readers.Wait()

	counters, gauges := m.Telemetry().Snapshot().Totals()
	var rdv int64
	for i := 0; i < rounds; i++ {
		if sends[i%len(sends)].rdv {
			rdv += int64(m.Tasks())
		}
	}
	if counters["sends_eager"] != int64(rounds*m.Tasks())-rdv || counters["sends_rendezvous"] != rdv {
		t.Errorf("%d eager and %d rendezvous sends recorded, want %d and %d",
			counters["sends_eager"], counters["sends_rendezvous"], int64(rounds*m.Tasks())-rdv, rdv)
	}
	if counters["packets"] == 0 || counters["packets_received"] == 0 {
		t.Errorf("no MU traffic recorded: injected=%d received=%d",
			counters["packets"], counters["packets_received"])
	}
	if counters["match_hits"] == 0 {
		t.Error("no MPI matches recorded")
	}
	if g := gauges["rdv_inflight"]; g.Value != 0 {
		t.Errorf("rdv_inflight = %d after drain, want 0 (hwm %d)", g.Value, g.HighWater)
	}
	for _, name := range []string{"posted_depth", "unexpected_depth"} {
		if g := gauges[name]; g.Value != 0 {
			t.Errorf("%s = %d after drain, want 0 (hwm %d)", name, g.Value, g.HighWater)
		}
	}
	if g := gauges["occupancy"]; g.Value != 0 {
		t.Errorf("reception FIFO occupancy = %d after drain, want 0", g.Value)
	}
}
