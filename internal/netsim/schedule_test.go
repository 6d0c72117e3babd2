package netsim

import (
	"testing"

	"pamigo/internal/torus"
)

// TestScheduleGolden pins the packet schedule bit for bit: every number
// below is a pure function of the order in which same-time events fire,
// so a change to the engine's tie order or to the event chain
// inject -> hop* -> arrive shows up here as a changed float.
func TestScheduleGolden(t *testing.T) {
	p := DefaultParams()
	for _, c := range []struct {
		nb   int
		want float64
	}{
		{1, 3596.7823462616484},
		{4, 14387.129385046594},
		{10, 35967.823462616485},
	} {
		got, err := NeighborExchange(dims333, p, c.nb, 1<<16, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("NeighborExchange neighbors=%d = %v MB/s, want %v", c.nb, got, c.want)
		}
	}

	end, max, _, err := UniformAllToAll(torus.Dims{3, 3, 3, 1, 1}, p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if end != 22616155 || max != 0.9055491528069205 {
		t.Errorf("UniformAllToAll = (end %d ps, max %v), want (22616155 ps, 0.9055491528069205)", int64(end), max)
	}

	n, err := New(dims333, p)
	if err != nil {
		t.Fatal(err)
	}
	dst := dims333.RankOf(torus.Coord{1, 1, 1, 0, 0}) // 3 hops
	for i := 0; i < 4; i++ {
		if err := n.SendMessage(0, 0, dst, 2048, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.SendMessage(0, dst, 0, 2048, nil); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	// 8 messages x 4 packets x 3 hops.
	if got, _ := n.Telemetry().Snapshot().Counter("link_transfers"); got != 8*4*3 {
		t.Errorf("link_transfers = %d, want %d", got, 8*4*3)
	}
}
