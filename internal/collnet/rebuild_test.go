package collnet

import (
	"testing"

	"pamigo/internal/torus"
)

func collCounter(t *testing.T, n *Network, name string) int64 {
	t.Helper()
	v, _ := n.Telemetry().Snapshot().Counter(name)
	return v
}

// treeAvoids checks that no parent-child edge of the route's tree
// crosses the given dead cable (in either direction).
func treeAvoids(t *testing.T, dims torus.Dims, cr *ClassRoute, a torus.Rank, l torus.Link) {
	t.Helper()
	b := dims.Neighbor(a, l)
	tree := cr.Tree()
	for _, r := range cr.Ranks() {
		if r == cr.Root {
			continue
		}
		p := tree.Parent(r)
		if (p == a && r == b) || (p == b && r == a) {
			t.Fatalf("tree edge %d-%d rides the dead cable", p, r)
		}
	}
}

// runAllreduce drives one int64-sum session over every rank and checks
// the result.
func runAllreduce(t *testing.T, cr *ClassRoute, seq uint64) {
	t.Helper()
	var want int64
	for _, r := range cr.Ranks() {
		want += int64(r) + 1
	}
	s, _ := cr.Join(seq, KindReduce, OpAdd, Int64, 8)
	for _, r := range cr.Ranks() {
		s.Contribute(r, EncodeInt64s([]int64{int64(r) + 1}))
	}
	for range cr.Ranks() {
		got := DecodeInt64s(wait(s))
		if got[0] != want {
			t.Fatalf("allreduce = %d, want %d", got[0], want)
		}
	}
}

func TestHandleLinkDownRebuildsLiveRoutes(t *testing.T) {
	dims := torus.Dims{3, 3, 1, 1, 1}
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	runAllreduce(t, cr, 1)

	dead := torus.Link{Dim: torus.DimA, Dir: +1}
	n.HandleLinkDown(0, dead)
	if v := collCounter(t, n, "classroute_rebuilds"); v != 1 {
		t.Errorf("classroute_rebuilds = %d, want 1", v)
	}
	if cr.Degraded() {
		t.Error("route degraded though an avoiding tree exists")
	}
	treeAvoids(t, dims, cr, 0, dead)
	if got := cr.Tree().Nodes(); got != dims.Nodes() {
		t.Errorf("rebuilt tree spans %d of %d nodes", got, dims.Nodes())
	}
	// Collectives still work on the rebuilt tree.
	runAllreduce(t, cr, 2)

	// The same failure reported twice is idempotent.
	n.HandleLinkDown(0, dead)
	if v := collCounter(t, n, "links_down"); v != 1 {
		t.Errorf("links_down = %d after duplicate report, want 1", v)
	}
}

func TestHandleLinkDownSkipsUnaffectedRoutes(t *testing.T) {
	dims := torus.Dims{4, 2, 1, 1, 1}
	n := New(dims)
	// A route over the B=1 row only.
	cr, err := n.Allocate(torus.Rectangle{
		Lo: torus.Coord{0, 1, 0, 0, 0}, Hi: torus.Coord{3, 1, 0, 0, 0},
	}, dims.RankOf(torus.Coord{0, 1, 0, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	before := cr.Tree()
	// Fail a cable in the B=0 row; the route cannot be affected.
	n.HandleLinkDown(0, torus.Link{Dim: torus.DimA, Dir: +1})
	if cr.Tree() != before {
		t.Error("unaffected route was rebuilt")
	}
	if v := collCounter(t, n, "classroute_rebuilds"); v != 0 {
		t.Errorf("classroute_rebuilds = %d, want 0", v)
	}
}

func TestDisconnectedRectangleDegradesGracefully(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	// The only in-rectangle cable dies: no avoiding tree exists.
	n.HandleLinkDown(0, torus.Link{Dim: torus.DimA, Dir: +1})
	if !cr.Degraded() {
		t.Error("disconnected route not marked degraded")
	}
	if v := collCounter(t, n, "rebuild_failures"); v == 0 {
		t.Error("rebuild failure not counted")
	}
	// Software combining still completes on the stale tree.
	runAllreduce(t, cr, 7)
}

func TestAllocateAfterLinkDownAvoidsDeadLinks(t *testing.T) {
	dims := torus.Dims{3, 3, 1, 1, 1}
	n := New(dims)
	dead := torus.Link{Dim: torus.DimB, Dir: +1}
	n.HandleLinkDown(4, dead) // interior node of the 3x3 face
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Degraded() {
		t.Error("fresh allocation degraded though avoiding tree exists")
	}
	treeAvoids(t, dims, cr, 4, dead)
	runAllreduce(t, cr, 1)
	if n.DownLinks() != 2 {
		t.Errorf("DownLinks = %d, want 2 (both directions)", n.DownLinks())
	}
}
