package bench

import (
	"strings"
	"testing"

	"pamigo/internal/core"
	"pamigo/internal/model"
	"pamigo/internal/mpilib"
	"pamigo/internal/torus"
)

func TestPingPongPAMIRuns(t *testing.T) {
	for _, immediate := range []bool{true, false} {
		hrt, snap, err := PingPongPAMI(50, 0, immediate)
		if err != nil {
			t.Fatal(err)
		}
		if hrt <= 0 {
			t.Fatalf("non-positive latency %v (immediate=%v)", hrt, immediate)
		}
		counters, _ := snap.Totals()
		if counters["packets"] == 0 {
			t.Errorf("snapshot shows no torus packets (immediate=%v)", immediate)
		}
	}
}

func TestPingPongMPIRuns(t *testing.T) {
	hrt, _, err := PingPongMPI(mpilib.Options{}, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hrt <= 0 {
		t.Fatalf("non-positive latency %v", hrt)
	}
}

func TestPAMIFasterThanMPI(t *testing.T) {
	// The relative claim behind Tables 1-2: PAMI's half round trip beats
	// MPI's, which pays matching and request overheads on top.
	pami, _, err := PingPongPAMI(300, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	mpi, _, err := PingPongMPI(mpilib.Options{}, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pami >= mpi {
		t.Errorf("PAMI HRT %v should be below MPI HRT %v", pami, mpi)
	}
}

// A fixed-count fan-in ends with the receiver ahead of its last senders,
// polling a FIFO whose head ticket is claimed but not yet published. If
// that poll spins instead of yielding to the producer, a run collapses to
// a tenth of its rate and counts tens of millions of advances for 120 k
// messages (one run in five did, before mu.RecFIFO.PollBatch yielded);
// a healthy run counts a tenth of an advance per message.
func TestFanInStragglersDoNotSpin(t *testing.T) {
	const senders, window, reps, runs = 4, 100, 300, 12
	var advances int64
	for i := 0; i < runs; i++ {
		_, snap, err := FanInPAMI(senders, window, reps)
		if err != nil {
			t.Fatal(err)
		}
		counters, _ := snap.Totals()
		advances += counters["advances"]
	}
	if msgs := int64(runs * senders * window * reps); advances > 2*msgs {
		t.Errorf("%d advances for %d messages: the receiver spun on an unpublished FIFO head", advances, msgs)
	}
}

func TestMessageRatePAMIRuns(t *testing.T) {
	rate, _, err := MessageRatePAMI(2, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %f", rate)
	}
}

func TestMessageRateMPIRuns(t *testing.T) {
	rate, snap, err := MessageRateMPI(MessageRateConfig{PPN: 2, Window: 50, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %f", rate)
	}
	if hits, _ := snap.Totals(); hits["match_hits"] == 0 {
		t.Error("snapshot shows no MPI matches")
	}
}

func TestMessageRateWildcardRuns(t *testing.T) {
	rate, _, err := MessageRateMPI(MessageRateConfig{PPN: 1, Window: 50, Reps: 2, Wildcard: true})
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate = %f", rate)
	}
}

func TestNeighborThroughputRuns(t *testing.T) {
	for _, mode := range []core.SendMode{core.ModeEager, core.ModeRendezvous} {
		tput, snap, err := NeighborThroughputMPI(2, 64*1024, 2, mode)
		if err != nil {
			t.Fatal(err)
		}
		if tput <= 0 {
			t.Fatalf("throughput = %f (mode %d)", tput, mode)
		}
		counters, _ := snap.Totals()
		if mode == core.ModeRendezvous && counters["sends_rendezvous"] == 0 {
			t.Error("forced rendezvous run recorded no rendezvous sends")
		}
		if mode == core.ModeEager && counters["sends_eager"] == 0 {
			t.Error("forced eager run recorded no eager sends")
		}
	}
}

func TestCollectiveMPIRuns(t *testing.T) {
	dims := torus.Dims{2, 2, 1, 1, 1}
	for _, kind := range []CollectiveKind{KindBarrier, KindAllreduce, KindBroadcast, KindRectBroadcast} {
		lat, _, err := CollectiveMPI(kind, dims, 1, 4096, 3)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if lat <= 0 {
			t.Fatalf("kind %d latency %v", kind, lat)
		}
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable(model.Table1(model.Default()))
	if !strings.Contains(out, "PAMI Send Immediate") || !strings.Contains(out, "us") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("render too short:\n%s", out)
	}
}

func TestRenderSeries(t *testing.T) {
	out := RenderSeries("Figure 5", model.Fig5(model.Default()))
	if !strings.Contains(out, "PAMI") || !strings.Contains(out, "MMPS") {
		t.Fatalf("series render missing content:\n%s", out)
	}
	// PPN=32 row must show '-' for the commthread series (not run there).
	if !strings.Contains(out, "-") {
		t.Fatalf("missing N/A marker:\n%s", out)
	}
}
