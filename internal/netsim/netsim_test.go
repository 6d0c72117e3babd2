package netsim

import (
	"math"
	"testing"

	"pamigo/internal/model"
	"pamigo/internal/sim"
	"pamigo/internal/torus"
)

var dims333 = torus.Dims{3, 3, 3, 3, 3}

func TestSingleMessageBandwidth(t *testing.T) {
	// A large single-flow message must achieve ~link payload bandwidth.
	p := DefaultParams()
	n, err := New(dims333, p)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 << 20
	var done sim.Time
	if err := n.SendMessage(0, 0, dims333.Neighbor(0, torus.Link{Dim: 0, Dir: 1}), size, func(d sim.Time) { done = d }); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if done == 0 {
		t.Fatal("completion callback never fired")
	}
	tput := float64(size) / done.Seconds()
	if tput < 0.95*p.LinkBytesPerSec || tput > 1.01*p.LinkBytesPerSec {
		t.Fatalf("single flow throughput %.0f B/s, want ~%.0f", tput, p.LinkBytesPerSec)
	}
}

func TestSmallMessageLatency(t *testing.T) {
	// A minimal packet's latency is injection + hops × (serialization +
	// router latency), store-and-forward.
	p := DefaultParams()
	n, _ := New(dims333, p)
	dst := torus.Rank(dims333.RankOf(torus.Coord{1, 1, 0, 0, 0})) // 2 hops
	var done sim.Time
	if err := n.SendMessage(0, 0, dst, 1, func(d sim.Time) { done = d }); err != nil {
		t.Fatal(err)
	}
	n.Run()
	ser := sim.BytesTime(1, p.LinkBytesPerSec)
	want := p.InjectOverhead + 2*(ser+p.HopLatency)
	if done != want {
		t.Fatalf("2-hop latency %v, want %v", done, want)
	}
}

func TestTwoFlowsShareALink(t *testing.T) {
	// Two equal flows forced through the same directed link each get half
	// the bandwidth: completion takes ~2x a single flow.
	p := DefaultParams()
	size := 1 << 20
	single, err := singleFlowTime(p, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := singleFlowTime(p, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := shared.Seconds() / single.Seconds()
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("sharing ratio %.2f, want ~2", ratio)
	}
}

// singleFlowTime sends `flows` messages over the same first link (same
// src, same dst) and returns the completion time of the whole batch.
func singleFlowTime(p Params, size, flows int) (sim.Time, error) {
	n, err := New(dims333, p)
	if err != nil {
		return 0, err
	}
	dst := dims333.Neighbor(0, torus.Link{Dim: 0, Dir: 1})
	for i := 0; i < flows; i++ {
		if err := n.SendMessage(0, 0, dst, size, nil); err != nil {
			return 0, err
		}
	}
	return n.Run(), nil
}

func TestOppositeDirectionsIndependent(t *testing.T) {
	// A link's two directions are independent resources: a bidirectional
	// exchange takes the same time as either direction alone.
	p := DefaultParams()
	size := 1 << 20
	n, _ := New(dims333, p)
	dst := dims333.Neighbor(0, torus.Link{Dim: 0, Dir: 1})
	n.SendMessage(0, 0, dst, size, nil)
	n.SendMessage(0, dst, 0, size, nil)
	bidir := n.Run()
	single, _ := singleFlowTime(p, size, 1)
	if float64(bidir) > 1.05*float64(single) {
		t.Fatalf("bidirectional %v much slower than unidirectional %v", bidir, single)
	}
}

func TestNeighborExchangeScalesWithLinks(t *testing.T) {
	// The DES derivation of Table 3's rendezvous column: aggregate
	// throughput grows ~linearly as the exchange spreads over more links.
	p := DefaultParams()
	const size = 1 << 20
	tput := map[int]float64{}
	for _, nb := range []int{1, 2, 4, 10} {
		v, err := NeighborExchange(dims333, p, nb, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		tput[nb] = v
	}
	if r := tput[2] / tput[1]; r < 1.9 || r > 2.1 {
		t.Fatalf("2-neighbor scaling %.2f, want ~2", r)
	}
	if r := tput[10] / tput[1]; r < 9 || r > 10.5 {
		t.Fatalf("10-neighbor scaling %.2f, want ~10", r)
	}
	// Absolute: one neighbor moves 2 x 1.8 GB/s = 3600 MB/s of payload.
	if tput[1] < 3400 || tput[1] > 3650 {
		t.Fatalf("1-neighbor exchange %.0f MB/s, want ~3550", tput[1])
	}
}

func TestNeighborExchangeMatchesModel(t *testing.T) {
	// Cross-check the two derivations of Table 3's rendezvous column:
	// closed-form model versus packet-level DES. The model folds in a
	// ~90-93% software-gap efficiency the DES does not simulate, so the
	// DES should land a few percent above the model, never below ~0.85x.
	p := DefaultParams()
	mp := model.Default()
	for _, nb := range []int{1, 4, 10} {
		des, err := NeighborExchange(dims333, p, nb, 1<<20, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, rdvModel := model.Table3Throughput(mp, nb)
		ratio := des / rdvModel
		if ratio < 1.0 || ratio > 1.15 {
			t.Fatalf("neighbors=%d: DES %.0f vs model %.0f (ratio %.2f)", nb, des, rdvModel, ratio)
		}
	}
}

func TestUniformAllToAllBalanced(t *testing.T) {
	// Dimension-ordered routing on a symmetric torus balances uniform
	// all-to-all traffic across links.
	end, max, mean, err := UniformAllToAll(torus.Dims{3, 3, 3, 1, 1}, DefaultParams(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 || mean <= 0 {
		t.Fatal("degenerate simulation")
	}
	if max/mean > 1.6 {
		t.Fatalf("link load imbalance %.2f (max %.3f mean %.3f)", max/mean, max, mean)
	}
}

// The mean link utilization is a float sum, and float addition is not
// associative: it must not depend on the order links are visited in.
func TestUniformAllToAllMeanIsDeterministic(t *testing.T) {
	var first uint64
	for i := 0; i < 50; i++ {
		_, _, mean, err := UniformAllToAll(torus.Dims{4, 3, 2, 1, 1}, DefaultParams(), 4096)
		if err != nil {
			t.Fatal(err)
		}
		bits := math.Float64bits(mean)
		if i == 0 {
			first = bits
		} else if bits != first {
			t.Fatalf("call %d: mean %x, first call %x", i, bits, first)
		}
	}
}

func TestValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := New(torus.Dims{0, 1, 1, 1, 1}, p); err == nil {
		t.Error("invalid dims accepted")
	}
	if _, err := New(dims333, Params{}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	n, _ := New(dims333, p)
	if err := n.SendMessage(0, 3, 3, 10, nil); err == nil {
		t.Error("self message accepted")
	}
	if _, err := NeighborExchange(torus.Dims{2, 1, 1, 1, 1}, p, 5, 10, 1); err == nil {
		t.Error("too many neighbors accepted")
	}
}

func TestStatsAndUtilization(t *testing.T) {
	p := DefaultParams()
	n, _ := New(dims333, p)
	dst := dims333.Neighbor(0, torus.Link{Dim: 1, Dir: 1})
	n.SendMessage(0, 0, dst, 1024, nil)
	end := n.Run()
	pkts, bytes := n.Stats()
	if pkts != 2 || bytes != 1024 {
		t.Fatalf("stats (%d,%d)", pkts, bytes)
	}
	util := n.LinkUtilization(end)
	// Exactly one directed link used, at ~full utilization minus the
	// injection and hop-latency tail.
	busy := 0
	for _, u := range util {
		if u > 0 {
			busy++
			if u < 0.5 || u > 1.0 {
				t.Fatalf("utilization %.2f out of range", u)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("%d links busy, want 1", busy)
	}
	if math.IsNaN(end.Seconds()) {
		t.Fatal("bad end time")
	}
}
