package torus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var testDims = []Dims{
	{1, 1, 1, 1, 1},
	{2, 1, 1, 1, 1},
	{2, 2, 2, 2, 2},
	{4, 3, 2, 2, 1},
	{3, 3, 3, 1, 1},
	{4, 4, 4, 2, 2},
}

func TestDimsValidate(t *testing.T) {
	if err := (Dims{2, 2, 2, 2, 2}).Validate(); err != nil {
		t.Fatalf("valid dims rejected: %v", err)
	}
	if err := (Dims{2, 0, 2, 2, 2}).Validate(); err == nil {
		t.Fatal("zero-size dimension accepted")
	}
}

func TestDimsNodes(t *testing.T) {
	if got := (Dims{4, 3, 2, 2, 1}).Nodes(); got != 48 {
		t.Fatalf("Nodes = %d, want 48", got)
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	for _, d := range testDims {
		for r := Rank(0); r < Rank(d.Nodes()); r++ {
			if got := d.RankOf(d.CoordOf(r)); got != r {
				t.Fatalf("%v: roundtrip of rank %d gave %d", d, r, got)
			}
		}
	}
}

func TestWrap(t *testing.T) {
	d := Dims{4, 3, 2, 2, 2}
	c := d.Wrap(Coord{-1, 3, 5, -4, 2})
	want := Coord{3, 0, 1, 0, 0}
	if c != want {
		t.Fatalf("Wrap = %v, want %v", c, want)
	}
}

func TestDeltaShortestPath(t *testing.T) {
	d := Dims{5, 4, 1, 1, 1}
	// ring of 5: from 0 to 3 the short way is -2.
	if got := d.Delta(Coord{0, 0, 0, 0, 0}, Coord{3, 0, 0, 0, 0}, DimA); got != -2 {
		t.Fatalf("Delta ring5 0->3 = %d, want -2", got)
	}
	if got := d.Delta(Coord{0, 0, 0, 0, 0}, Coord{2, 0, 0, 0, 0}, DimA); got != 2 {
		t.Fatalf("Delta ring5 0->2 = %d, want 2", got)
	}
	// ring of 4: opposite points tie; the deterministic choice is "+".
	if got := d.Delta(Coord{0, 0, 0, 0, 0}, Coord{0, 2, 0, 0, 0}, DimB); got != 2 {
		t.Fatalf("Delta tie = %d, want +2", got)
	}
}

func TestHopsSymmetricAndBounded(t *testing.T) {
	d := Dims{4, 3, 2, 2, 1}
	diam := d.Diameter()
	for a := Rank(0); a < Rank(d.Nodes()); a++ {
		for b := Rank(0); b < Rank(d.Nodes()); b++ {
			h := d.Hops(a, b)
			if h != d.Hops(b, a) {
				t.Fatalf("Hops asymmetric for %d,%d", a, b)
			}
			if h > diam {
				t.Fatalf("Hops(%d,%d)=%d exceeds diameter %d", a, b, h, diam)
			}
			if (h == 0) != (a == b) {
				t.Fatalf("Hops(%d,%d)=%d", a, b, h)
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	if got := (Dims{4, 4, 4, 2, 2}).Diameter(); got != 2+2+2+1+1 {
		t.Fatalf("Diameter = %d", got)
	}
}

func TestNeighborInverse(t *testing.T) {
	d := Dims{4, 3, 2, 2, 2}
	for r := Rank(0); r < Rank(d.Nodes()); r++ {
		for _, l := range Links() {
			n := d.Neighbor(r, l)
			back := d.Neighbor(n, Link{l.Dim, -l.Dir})
			if back != r {
				t.Fatalf("neighbor not invertible: %d --%v--> %d --back--> %d", r, l, n, back)
			}
		}
	}
}

func TestRouteReachesDestination(t *testing.T) {
	for _, d := range testDims {
		n := d.Nodes()
		for a := Rank(0); a < Rank(n); a++ {
			for b := Rank(0); b < Rank(n); b++ {
				path := d.Route(a, b)
				if a == b {
					if len(path) != 0 {
						t.Fatalf("%v: Route(%d,%d) nonempty", d, a, b)
					}
					continue
				}
				if len(path) != d.Hops(a, b) {
					t.Fatalf("%v: |Route(%d,%d)|=%d, Hops=%d", d, a, b, len(path), d.Hops(a, b))
				}
				if path[len(path)-1] != b {
					t.Fatalf("%v: Route(%d,%d) ends at %d", d, a, b, path[len(path)-1])
				}
				prev := a
				for _, hop := range path {
					if d.Hops(prev, hop) != 1 {
						t.Fatalf("%v: non-unit hop %d->%d", d, prev, hop)
					}
					prev = hop
				}
			}
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	d := Dims{4, 3, 2, 2, 1}
	for trial := 0; trial < 10; trial++ {
		a, b := Rank(5), Rank(40)
		p1 := d.Route(a, b)
		p2 := d.Route(a, b)
		if len(p1) != len(p2) {
			t.Fatal("route length changed between calls")
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatal("route not deterministic")
			}
		}
	}
}

func TestLinksCanonical(t *testing.T) {
	ls := Links()
	if len(ls) != NumLinks {
		t.Fatalf("Links() returned %d links", len(ls))
	}
	if ls[0].String() != "A+" || ls[9].String() != "E-" {
		t.Fatalf("canonical order wrong: %v ... %v", ls[0], ls[9])
	}
}

func TestRectangleBasics(t *testing.T) {
	d := Dims{4, 4, 2, 1, 1}
	rc := Rectangle{Lo: Coord{1, 0, 0, 0, 0}, Hi: Coord{2, 3, 1, 0, 0}}
	if err := rc.Validate(d); err != nil {
		t.Fatalf("valid rectangle rejected: %v", err)
	}
	if got := rc.Size(); got != 2*4*2 {
		t.Fatalf("Size = %d, want 16", got)
	}
	ranks := rc.Ranks(d)
	if len(ranks) != rc.Size() {
		t.Fatalf("Ranks returned %d entries", len(ranks))
	}
	for _, r := range ranks {
		if !rc.Contains(d.CoordOf(r)) {
			t.Fatalf("rank %d outside rectangle", r)
		}
	}
	if rc.Contains(Coord{0, 0, 0, 0, 0}) {
		t.Fatal("Contains accepted an outside coordinate")
	}
}

func TestRectangleValidateRejects(t *testing.T) {
	d := Dims{2, 2, 2, 2, 2}
	bad := Rectangle{Lo: Coord{0, 0, 0, 0, 0}, Hi: Coord{2, 0, 0, 0, 0}}
	if bad.Validate(d) == nil {
		t.Fatal("rectangle exceeding the torus accepted")
	}
	inverted := Rectangle{Lo: Coord{1, 0, 0, 0, 0}, Hi: Coord{0, 0, 0, 0, 0}}
	if inverted.Validate(d) == nil {
		t.Fatal("inverted rectangle accepted")
	}
}

func TestBoundingRectangleExact(t *testing.T) {
	d := Dims{4, 4, 1, 1, 1}
	rc := Rectangle{Lo: Coord{1, 1, 0, 0, 0}, Hi: Coord{2, 2, 0, 0, 0}}
	ranks := rc.Ranks(d)
	got, exact := BoundingRectangle(d, ranks)
	if !exact || got != rc {
		t.Fatalf("BoundingRectangle = %v exact=%v", got, exact)
	}
	// Remove one rank: no longer exact.
	if _, exact := BoundingRectangle(d, ranks[:len(ranks)-1]); exact {
		t.Fatal("incomplete rectangle reported exact")
	}
	// Duplicates must not fool the size check.
	dup := append(append([]Rank{}, ranks[:len(ranks)-1]...), ranks[0])
	if _, exact := BoundingRectangle(d, dup); exact {
		t.Fatal("duplicated ranks reported exact")
	}
	if _, exact := BoundingRectangle(d, nil); exact {
		t.Fatal("empty set reported exact")
	}
}

func TestFullRectangle(t *testing.T) {
	d := Dims{4, 3, 2, 2, 1}
	rc := d.FullRectangle()
	if rc.Size() != d.Nodes() {
		t.Fatalf("full rectangle size %d, want %d", rc.Size(), d.Nodes())
	}
}

func TestBuildTreeSpansAllColors(t *testing.T) {
	d := Dims{3, 2, 2, 1, 1}
	rc := d.FullRectangle()
	root := Rank(0)
	for color := 0; color < NumLinks; color++ {
		tr := BuildTree(d, rc, root, color)
		if tr.Nodes() != d.Nodes() {
			t.Fatalf("color %d: tree has %d nodes, want %d", color, tr.Nodes(), d.Nodes())
		}
		// Every node reaches the root by following parents, without cycles.
		for _, n := range rc.Ranks(d) {
			cur, steps := n, 0
			for cur != root {
				cur = tr.Parent(cur)
				steps++
				if steps > d.Nodes() {
					t.Fatalf("color %d: cycle from node %d", color, n)
				}
			}
		}
	}
}

func TestBuildTreeParentChildConsistent(t *testing.T) {
	d := Dims{4, 2, 2, 1, 1}
	tr := BuildTree(d, d.FullRectangle(), 3, 2)
	for _, n := range d.FullRectangle().Ranks(d) {
		for _, c := range tr.Children(n) {
			if tr.Parent(c) != n {
				t.Fatalf("child %d of %d has parent %d", c, n, tr.Parent(c))
			}
		}
	}
	if tr.Parent(3) != 3 {
		t.Fatal("root's parent is not itself")
	}
}

func TestBuildTreeEdgesAreUnitHops(t *testing.T) {
	d := Dims{3, 3, 2, 1, 1}
	rc := Rectangle{Lo: Coord{0, 1, 0, 0, 0}, Hi: Coord{2, 2, 1, 0, 0}}
	root := d.RankOf(Coord{1, 1, 0, 0, 0})
	for color := 0; color < NumLinks; color++ {
		tr := BuildTree(d, rc, root, color)
		for _, n := range rc.Ranks(d) {
			if n == root {
				continue
			}
			p := tr.Parent(n)
			if d.Hops(n, p) != 1 {
				t.Fatalf("color %d: tree edge %d-%d is not one hop", color, n, p)
			}
			if !rc.Contains(d.CoordOf(p)) {
				t.Fatalf("color %d: parent %d left the rectangle", color, p)
			}
		}
	}
}

func TestBuildTreeDepthBounded(t *testing.T) {
	d := Dims{4, 4, 2, 1, 1}
	rc := d.FullRectangle()
	maxDepth := 0
	for i := 0; i < NumDims; i++ {
		maxDepth += rc.Extent(i) - 1
	}
	tr := BuildTree(d, rc, 0, 0)
	if got := tr.Depth(); got > maxDepth || got < 1 {
		t.Fatalf("Depth = %d, want in [1,%d]", got, maxDepth)
	}
}

func TestBuildTreeColorsDiffer(t *testing.T) {
	// Different colors should use different first hops out of the root,
	// which is what gives the multi-color broadcast its bandwidth.
	d := Dims{3, 3, 3, 2, 2}
	rc := d.FullRectangle()
	root := d.RankOf(Coord{1, 1, 1, 0, 0})
	first := map[Rank]bool{}
	for color := 0; color < NumDims; color++ {
		tr := BuildTree(d, rc, root, color)
		for _, c := range tr.Children(root) {
			first[c] = true
		}
	}
	if len(first) < NumDims {
		t.Fatalf("rotated trees use only %d distinct root links", len(first))
	}
}

// Property: for random dims and rank pairs, route length equals hop count
// and every prefix shortens the remaining distance.
func TestRouteQuick(t *testing.T) {
	f := func(rawDims [NumDims]uint8, ra, rb uint16) bool {
		var d Dims
		for i := range d {
			d[i] = int(rawDims[i]%4) + 1
		}
		n := d.Nodes()
		a := Rank(int(ra) % n)
		b := Rank(int(rb) % n)
		path := d.Route(a, b)
		if len(path) != d.Hops(a, b) {
			return false
		}
		remain := d.Hops(a, b)
		cur := a
		for _, hop := range path {
			if d.Hops(cur, hop) != 1 {
				return false
			}
			cur = hop
			remain--
		}
		return cur == b || (a == b && len(path) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteStaysShortest(t *testing.T) {
	// Dimension-ordered routing on a torus is minimal: remaining hops
	// decrease by exactly one per step.
	d := Dims{5, 4, 3, 2, 2}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := Rank(rng.Intn(d.Nodes()))
		b := Rank(rng.Intn(d.Nodes()))
		path := d.Route(a, b)
		remain := d.Hops(a, b)
		for _, hop := range path {
			if d.Hops(hop, b) != remain-1 {
				t.Fatalf("route %d->%d not minimal at hop %d", a, b, hop)
			}
			remain--
		}
	}
}
