package torus

import (
	"testing"
)

// downSet builds a predicate from cable endpoints: failing (n, l) fails
// the reverse direction out of the neighbor too, matching how the fault
// injector models a dead cable.
func downSet(d Dims, fails ...struct {
	n Rank
	l Link
}) func(Rank, Link) bool {
	type key struct {
		n Rank
		l Link
	}
	set := map[key]bool{}
	for _, f := range fails {
		set[key{f.n, f.l}] = true
		set[key{d.Neighbor(f.n, f.l), Link{Dim: f.l.Dim, Dir: -f.l.Dir}}] = true
	}
	return func(n Rank, l Link) bool { return set[key{n, l}] }
}

func fail(n Rank, l Link) struct {
	n Rank
	l Link
} {
	return struct {
		n Rank
		l Link
	}{n, l}
}

func checkPath(t *testing.T, d Dims, a, b Rank, path []Rank, down func(Rank, Link) bool) {
	t.Helper()
	cur := a
	for i, next := range path {
		if _, ok := d.LinkBetween(cur, next); !ok {
			t.Fatalf("hop %d: %d and %d not neighbors", i, cur, next)
		}
		if down != nil && d.HopBlocked(cur, next, down) {
			t.Fatalf("hop %d: every cable from %d to %d is down", i, cur, next)
		}
		cur = next
	}
	if cur != b {
		t.Fatalf("path ends at %d, want %d", cur, b)
	}
}

func TestRouteAroundCleanFastPath(t *testing.T) {
	d := Dims{4, 4, 2, 1, 1}
	for a := Rank(0); a < Rank(d.Nodes()); a += 3 {
		for b := Rank(0); b < Rank(d.Nodes()); b += 5 {
			want := d.Route(a, b)
			got, ok := d.RouteAround(a, b, nil)
			if !ok {
				t.Fatalf("RouteAround(%d,%d) failed with no faults", a, b)
			}
			if len(got) != len(want) {
				t.Fatalf("RouteAround(%d,%d) diverged from Route with no faults", a, b)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("RouteAround(%d,%d) diverged at hop %d", a, b, i)
				}
			}
			// A down predicate that never fires must also leave the
			// deterministic route untouched.
			got2, ok := d.RouteAround(a, b, func(Rank, Link) bool { return false })
			if !ok || len(got2) != len(want) {
				t.Fatalf("RouteAround(%d,%d) with clean predicate diverged", a, b)
			}
		}
	}
}

func TestRouteAroundDetours(t *testing.T) {
	d := Dims{4, 4, 1, 1, 1}
	a, b := d.RankOf(Coord{0, 0}), d.RankOf(Coord{1, 0})
	// Kill the direct A+ cable between them: the detour must step aside
	// and come back, avoiding the failed link in both directions.
	down := downSet(d, fail(a, Link{Dim: DimA, Dir: +1}))
	path, ok := d.RouteAround(a, b, down)
	if !ok {
		t.Fatal("no route around a single dead cable in a 4x4 torus")
	}
	if len(path) <= 1 {
		t.Fatalf("detour of %d hops cannot avoid the dead link", len(path))
	}
	checkPath(t, d, a, b, path, down)
}

func TestRouteAroundManyFaults(t *testing.T) {
	d := Dims{3, 3, 2, 1, 1}
	down := downSet(d,
		fail(0, Link{Dim: DimA, Dir: +1}),
		fail(0, Link{Dim: DimB, Dir: +1}),
		fail(0, Link{Dim: DimC, Dir: +1}),
	)
	for b := Rank(1); b < Rank(d.Nodes()); b++ {
		path, ok := d.RouteAround(0, b, down)
		if !ok {
			t.Fatalf("node %d unreachable with three dead cables", b)
		}
		checkPath(t, d, 0, b, path, down)
	}
}

func TestRouteAroundPartition(t *testing.T) {
	// In a 2x1x1x1x1 torus the two nodes share exactly two cables (A+
	// and A-); killing both partitions the machine.
	d := Dims{2, 1, 1, 1, 1}
	down := downSet(d,
		fail(0, Link{Dim: DimA, Dir: +1}),
		fail(0, Link{Dim: DimA, Dir: -1}),
	)
	if _, ok := d.RouteAround(0, 1, down); ok {
		t.Fatal("found a route across a partition")
	}
	if _, ok := d.RouteAround(0, 0, down); !ok {
		t.Fatal("self-route must always succeed")
	}
}

func TestLinkBetween(t *testing.T) {
	d := Dims{4, 2, 2, 1, 1}
	for _, l := range Links() {
		nb := d.Neighbor(3, l)
		if nb == 3 {
			continue
		}
		got, ok := d.LinkBetween(3, nb)
		if !ok {
			t.Fatalf("neighbor via %s not recognized", l)
		}
		if d.Neighbor(3, got) != nb {
			t.Fatalf("LinkBetween(3,%d) = %s does not reach the neighbor", nb, got)
		}
	}
	if _, ok := d.LinkBetween(0, d.RankOf(Coord{2, 1, 1, 0, 0})); ok {
		t.Fatal("non-neighbor accepted")
	}
}

func TestBuildTreeAvoidingMatchesRectangle(t *testing.T) {
	d := Dims{3, 3, 2, 1, 1}
	rc := Rectangle{Lo: Coord{0, 0, 0, 0, 0}, Hi: Coord{2, 2, 1, 0, 0}}
	root := d.RankOf(Coord{1, 1, 0, 0, 0})
	tree, err := BuildTreeExcluding(d, rc, root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != rc.Size() {
		t.Fatalf("tree covers %d nodes, rectangle has %d", tree.Nodes(), rc.Size())
	}
	// Every non-root node's parent chain must terminate at the root
	// within the box.
	for _, n := range rc.Ranks(d) {
		cur := n
		for steps := 0; cur != root; steps++ {
			if steps > rc.Size() {
				t.Fatalf("parent chain from %d does not reach root", n)
			}
			p := tree.Parent(cur)
			if !rc.Contains(d.CoordOf(p)) {
				t.Fatalf("parent %d of %d escapes the rectangle", p, cur)
			}
			cur = p
		}
	}
}

func TestBuildTreeAvoidingRoutesAroundDeadLink(t *testing.T) {
	d := Dims{3, 3, 1, 1, 1}
	rc := Rectangle{Lo: Coord{0, 0, 0, 0, 0}, Hi: Coord{2, 2, 0, 0, 0}}
	root := d.RankOf(Coord{0, 0, 0, 0, 0})
	down := downSet(d, fail(root, Link{Dim: DimA, Dir: +1}))
	tree, err := BuildTreeExcluding(d, rc, root, nil, down)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != rc.Size() {
		t.Fatalf("tree covers %d of %d nodes", tree.Nodes(), rc.Size())
	}
	// The dead edge must not appear as a parent-child edge.
	for _, n := range rc.Ranks(d) {
		if n == root {
			continue
		}
		p := tree.Parent(n)
		l, ok := d.LinkBetween(p, n)
		if !ok {
			t.Fatalf("tree edge %d->%d not a torus link", p, n)
		}
		if down(p, l) {
			t.Fatalf("tree uses dead link %d:%s", p, l)
		}
	}
}

func TestBuildTreeAvoidingPartitionedBox(t *testing.T) {
	// A 2x1 line whose only in-box cable is dead: unreachable. (The wrap
	// link cannot save it — classroutes never wrap.)
	d := Dims{3, 1, 1, 1, 1}
	rc := Rectangle{Lo: Coord{0, 0, 0, 0, 0}, Hi: Coord{1, 0, 0, 0, 0}}
	down := downSet(d, fail(0, Link{Dim: DimA, Dir: +1}))
	if _, err := BuildTreeExcluding(d, rc, 0, nil, down); err == nil {
		t.Fatal("partitioned rectangle produced a tree")
	}
	if _, err := BuildTreeExcluding(d, rc, 99, nil, nil); err == nil {
		t.Fatal("root outside rectangle accepted")
	}
}
