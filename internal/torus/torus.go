// Package torus models the Blue Gene/Q five-dimensional torus
// interconnect (paper §II.B and the BG/Q network paper it cites).
//
// The five dimensions are labeled A through E, each link runs in a "+" and
// a "-" direction, so every node has ten links. The package provides the
// geometry PAMI needs: rank/coordinate conversion, shortest signed
// per-dimension distances, hop counts, and — crucially for MPI message
// ordering — *deterministic dimension-ordered routing*: the route between a
// given source and destination is a pure function of the pair, so messages
// between two endpoints never overtake each other in the network.
//
// It also provides the contiguous rectangle machinery used by classroutes
// (collective trees cover "lines, planes or cubes" of nodes), the
// memory-efficient topology structures of paper §III.G, and the rotated
// dimension-order spanning trees used by the 10-color rectangle broadcast
// (paper §V, figure 10).
package torus

import (
	"fmt"
	"sort"
)

// NumDims is the number of torus dimensions.
const NumDims = 5

// Dimension indices.
const (
	DimA = iota
	DimB
	DimC
	DimD
	DimE
)

// NumLinks is the number of links out of a node (± each dimension).
const NumLinks = 2 * NumDims

// DimName returns the paper's letter for a dimension index.
func DimName(d int) string { return string(rune('A' + d)) }

// Dims holds the size of each torus dimension.
type Dims [NumDims]int

// Coord is a node coordinate; Coord[i] is the position along dimension i.
type Coord [NumDims]int

// Rank identifies a node: the row-major index of its coordinate.
type Rank int

// Link is one of the ten links out of a node.
type Link struct {
	Dim int // DimA..DimE
	Dir int // +1 or -1
}

// String formats a link as the paper writes them, e.g. "A+" or "E-".
func (l Link) String() string {
	s := "+"
	if l.Dir < 0 {
		s = "-"
	}
	return DimName(l.Dim) + s
}

// Links lists the ten links of a node in the canonical order
// A+, A-, B+, B-, ..., E+, E-.
func Links() []Link {
	ls := make([]Link, 0, NumLinks)
	for d := 0; d < NumDims; d++ {
		ls = append(ls, Link{d, +1}, Link{d, -1})
	}
	return ls
}

// Validate reports whether every dimension size is at least 1.
func (d Dims) Validate() error {
	for i, s := range d {
		if s < 1 {
			return fmt.Errorf("torus: dimension %s has size %d", DimName(i), s)
		}
	}
	return nil
}

// Nodes returns the total number of nodes.
func (d Dims) Nodes() int {
	n := 1
	for _, s := range d {
		n *= s
	}
	return n
}

// String formats the dimensions as e.g. "2x2x2x2x2".
func (d Dims) String() string {
	return fmt.Sprintf("%dx%dx%dx%dx%d", d[0], d[1], d[2], d[3], d[4])
}

// Wrap normalizes a coordinate into the torus, wrapping each dimension.
func (d Dims) Wrap(c Coord) Coord {
	for i := range c {
		c[i] = ((c[i] % d[i]) + d[i]) % d[i]
	}
	return c
}

// RankOf returns the row-major rank of a (wrapped) coordinate.
func (d Dims) RankOf(c Coord) Rank {
	c = d.Wrap(c)
	r := 0
	for i := 0; i < NumDims; i++ {
		r = r*d[i] + c[i]
	}
	return Rank(r)
}

// CoordOf returns the coordinate of a rank.
func (d Dims) CoordOf(r Rank) Coord {
	var c Coord
	v := int(r)
	for i := NumDims - 1; i >= 0; i-- {
		c[i] = v % d[i]
		v /= d[i]
	}
	return c
}

// Delta returns the signed shortest distance from 'from' to 'to' along
// dimension dim. Positive means travel in the "+" direction. When the two
// directions are equally short (even ring size, opposite points) the "+"
// direction is chosen: the tie-break must be deterministic because MPI
// ordering relies on route determinism.
func (d Dims) Delta(from, to Coord, dim int) int {
	size := d[dim]
	delta := ((to[dim]-from[dim])%size + size) % size
	if delta > size/2 {
		delta -= size
	} else if size%2 == 0 && delta == size/2 {
		// tie: keep + direction
	}
	return delta
}

// Hops returns the network hop count between two ranks.
func (d Dims) Hops(a, b Rank) int {
	ca, cb := d.CoordOf(a), d.CoordOf(b)
	h := 0
	for dim := 0; dim < NumDims; dim++ {
		dd := d.Delta(ca, cb, dim)
		if dd < 0 {
			dd = -dd
		}
		h += dd
	}
	return h
}

// Diameter returns the maximum hop count between any two nodes.
func (d Dims) Diameter() int {
	h := 0
	for _, s := range d {
		h += s / 2
	}
	return h
}

// Neighbor returns the node one hop away along the given link.
func (d Dims) Neighbor(r Rank, l Link) Rank {
	c := d.CoordOf(r)
	c[l.Dim] += l.Dir
	return d.RankOf(c)
}

// defaultOrder is the canonical dimension order A,B,C,D,E.
var defaultOrder = [NumDims]int{DimA, DimB, DimC, DimD, DimE}

// Route returns the deterministic dimension-ordered route from a to b:
// the sequence of intermediate nodes followed by b itself ('a' excluded).
// Routing corrects dimension A fully, then B, and so on, always taking the
// shortest direction with "+" on ties. Route(a,a) is empty.
func (d Dims) Route(a, b Rank) []Rank {
	return d.RouteOrdered(a, b, defaultOrder)
}

// RouteOrdered is Route with an explicit dimension correction order; the
// rotated orders generate the 10-color broadcast spanning trees.
func (d Dims) RouteOrdered(a, b Rank, order [NumDims]int) []Rank {
	ca, cb := d.CoordOf(a), d.CoordOf(b)
	var path []Rank
	cur := ca
	for _, dim := range order {
		delta := d.Delta(cur, cb, dim)
		step := +1
		if delta < 0 {
			step, delta = -1, -delta
		}
		for i := 0; i < delta; i++ {
			cur[dim] += step
			cur = d.Wrap(cur)
			path = append(path, d.RankOf(cur))
		}
	}
	return path
}

// LinkBetween returns the directed link taken from a toward a
// neighboring rank b; ok=false when the two are not neighbors.
func (d Dims) LinkBetween(a, b Rank) (Link, bool) {
	ca, cb := d.CoordOf(a), d.CoordOf(b)
	link, found := Link{}, false
	for dim := 0; dim < NumDims; dim++ {
		if ca[dim] == cb[dim] {
			continue
		}
		if found {
			return Link{}, false // differs in more than one dimension
		}
		switch d.Delta(ca, cb, dim) {
		case 1:
			link, found = Link{Dim: dim, Dir: +1}, true
		case -1:
			link, found = Link{Dim: dim, Dir: -1}, true
		default:
			return Link{}, false
		}
	}
	return link, found
}

// HopBlocked reports whether every cable from a to its neighbor b is
// down. In a size-2 dimension the + and - links out of a node reach the
// same neighbor over two distinct cables, so the hop survives until
// both have failed.
func (d Dims) HopBlocked(a, b Rank, down func(from Rank, l Link) bool) bool {
	l, ok := d.LinkBetween(a, b)
	if !ok {
		return true
	}
	if !down(a, l) {
		return false
	}
	if d[l.Dim] == 2 {
		return down(a, Link{Dim: l.Dim, Dir: -l.Dir})
	}
	return true
}

// RouteAround returns a route from a to b that avoids every link for
// which down reports true — the software analogue of the BG/Q control
// system programming static routes around failed links. When the
// deterministic dimension-ordered route is clean it is returned
// unchanged (so fault-free routing stays bit-identical); otherwise the
// route detours through neighboring coordinates, found by breadth-first
// search in canonical link order, which keeps the detour deterministic
// and as short as possible. ok=false means b is unreachable: the failed
// links partition the torus.
func (d Dims) RouteAround(a, b Rank, down func(from Rank, l Link) bool) ([]Rank, bool) {
	if a == b {
		return nil, true
	}
	path := d.Route(a, b)
	if down == nil {
		return path, true
	}
	clean := true
	cur := a
	for _, next := range path {
		if d.HopBlocked(cur, next, down) {
			clean = false
			break
		}
		cur = next
	}
	if clean {
		return path, true
	}
	// Detour: BFS over the torus graph minus the failed links. Canonical
	// neighbor order (A+, A-, ... E-) makes the result deterministic.
	parent := make(map[Rank]Rank, d.Nodes())
	parent[a] = a
	queue := []Rank{a}
	links := Links()
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range links {
			nb := d.Neighbor(n, l)
			if nb == n { // size-1 dimension: the link loops back
				continue
			}
			if _, seen := parent[nb]; seen || down(n, l) {
				continue
			}
			parent[nb] = n
			if nb == b {
				var rev []Rank
				for c := b; c != a; c = parent[c] {
					rev = append(rev, c)
				}
				out := make([]Rank, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out, true
			}
			queue = append(queue, nb)
		}
	}
	return nil, false
}

// BuildTreeExcluding builds a spanning tree over the rectangle's
// *surviving* nodes, breadth-first from the root and staying inside the
// box (classroutes never wrap): nodes for which excluded reports true are
// left out of the tree entirely, and links for which down reports true
// are never used. Classroute rebuilds use it after a link failure or a
// node death so collectives keep a connected combine tree over the
// remaining membership; a nil excluded spans the whole rectangle. The
// root must be a surviving node. It returns an error when the exclusions
// and failed links disconnect the surviving nodes.
func BuildTreeExcluding(d Dims, rc Rectangle, root Rank, excluded func(Rank) bool, down func(from Rank, l Link) bool) (*Tree, error) {
	if err := rc.Validate(d); err != nil {
		return nil, err
	}
	if !rc.Contains(d.CoordOf(root)) {
		return nil, fmt.Errorf("torus: root %d outside rectangle %v", root, rc)
	}
	if excluded != nil && excluded(root) {
		return nil, fmt.Errorf("torus: root %d is excluded", root)
	}
	survivors := 0
	for _, r := range rc.Ranks(d) {
		if excluded == nil || !excluded(r) {
			survivors++
		}
	}
	t := &Tree{
		Root:     root,
		parent:   make(map[Rank]Rank),
		children: make(map[Rank][]Rank),
	}
	visited := map[Rank]bool{root: true}
	queue := []Rank{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		nc := d.CoordOf(n)
		for dim := 0; dim < NumDims; dim++ {
			for _, dir := range [2]int{+1, -1} {
				cc := nc
				cc[dim] += dir
				if cc[dim] < rc.Lo[dim] || cc[dim] > rc.Hi[dim] {
					continue // would leave the box (or wrap)
				}
				nb := d.RankOf(cc)
				if visited[nb] ||
					(excluded != nil && excluded(nb)) ||
					(down != nil && down(n, Link{Dim: dim, Dir: dir})) {
					continue
				}
				visited[nb] = true
				t.parent[nb] = n
				t.children[n] = append(t.children[n], nb)
				queue = append(queue, nb)
			}
		}
	}
	if len(visited) != survivors {
		return nil, fmt.Errorf("torus: faults disconnect rectangle %v (%d of %d surviving nodes reachable from %d)",
			rc, len(visited), survivors, root)
	}
	for p := range t.children {
		cs := t.children[p]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	return t, nil
}

// Rectangle is a contiguous block of nodes: the closed coordinate box
// [Lo[i], Hi[i]] in each dimension. Classroutes cover exactly such blocks
// ("lines, planes or cubes", paper §III.D). Rectangles do not wrap.
type Rectangle struct {
	Lo, Hi Coord
}

// Validate reports whether the rectangle is well-formed within d.
func (rc Rectangle) Validate(d Dims) error {
	for i := 0; i < NumDims; i++ {
		if rc.Lo[i] < 0 || rc.Hi[i] >= d[i] || rc.Lo[i] > rc.Hi[i] {
			return fmt.Errorf("torus: rectangle %v invalid in %v at dim %s", rc, d, DimName(i))
		}
	}
	return nil
}

// Contains reports whether the coordinate lies inside the rectangle.
func (rc Rectangle) Contains(c Coord) bool {
	for i := 0; i < NumDims; i++ {
		if c[i] < rc.Lo[i] || c[i] > rc.Hi[i] {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the rectangle.
func (rc Rectangle) Size() int {
	n := 1
	for i := 0; i < NumDims; i++ {
		n *= rc.Hi[i] - rc.Lo[i] + 1
	}
	return n
}

// Extent returns the side length along dimension i.
func (rc Rectangle) Extent(i int) int { return rc.Hi[i] - rc.Lo[i] + 1 }

// String formats the rectangle as lo..hi per dimension.
func (rc Rectangle) String() string {
	return fmt.Sprintf("[%v..%v]", rc.Lo, rc.Hi)
}

// Ranks lists the ranks inside the rectangle in row-major order.
func (rc Rectangle) Ranks(d Dims) []Rank {
	out := make([]Rank, 0, rc.Size())
	var walk func(dim int, c Coord)
	walk = func(dim int, c Coord) {
		if dim == NumDims {
			out = append(out, d.RankOf(c))
			return
		}
		for v := rc.Lo[dim]; v <= rc.Hi[dim]; v++ {
			c[dim] = v
			walk(dim+1, c)
		}
	}
	var c Coord
	walk(0, c)
	return out
}

// FullRectangle returns the rectangle covering the whole machine.
func (d Dims) FullRectangle() Rectangle {
	var rc Rectangle
	for i := 0; i < NumDims; i++ {
		rc.Hi[i] = d[i] - 1
	}
	return rc
}

// BoundingRectangle computes the smallest rectangle containing the ranks
// and reports whether the ranks exactly fill it — the test MPI uses to
// decide whether a subcommunicator is classroute-eligible.
func BoundingRectangle(d Dims, ranks []Rank) (Rectangle, bool) {
	if len(ranks) == 0 {
		return Rectangle{}, false
	}
	var rc Rectangle
	first := d.CoordOf(ranks[0])
	rc.Lo, rc.Hi = first, first
	seen := make(map[Rank]bool, len(ranks))
	for _, r := range ranks {
		if seen[r] {
			return Rectangle{}, false // duplicates can never tile a box
		}
		seen[r] = true
		c := d.CoordOf(r)
		for i := 0; i < NumDims; i++ {
			if c[i] < rc.Lo[i] {
				rc.Lo[i] = c[i]
			}
			if c[i] > rc.Hi[i] {
				rc.Hi[i] = c[i]
			}
		}
	}
	return rc, rc.Size() == len(ranks)
}

// Tree is a spanning tree over a set of nodes, stored as parent/children
// adjacency. Collective broadcasts walk Children; reductions walk towards
// Parent.
type Tree struct {
	Root     Rank
	parent   map[Rank]Rank
	children map[Rank][]Rank
}

// Parent returns the parent of node n (the root returns itself).
func (t *Tree) Parent(n Rank) Rank {
	if n == t.Root {
		return n
	}
	return t.parent[n]
}

// Children returns the children of node n in deterministic order.
func (t *Tree) Children(n Rank) []Rank { return t.children[n] }

// Nodes returns the number of nodes in the tree.
func (t *Tree) Nodes() int { return len(t.parent) + 1 }

// Depth returns the maximum root-to-leaf hop count.
func (t *Tree) Depth() int {
	depth := map[Rank]int{t.Root: 0}
	max := 0
	// children map is acyclic by construction; BFS.
	queue := []Rank{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range t.children[n] {
			depth[c] = depth[n] + 1
			if depth[c] > max {
				max = depth[c]
			}
			queue = append(queue, c)
		}
	}
	return max
}

// routeInBox is dimension-ordered routing restricted to a rectangle: it
// never uses wrap links, so every hop stays inside the box — the property
// classroute trees need. It returns the path from 'from' to 'to'
// (excluding 'from'), correcting dimensions in the given order.
func routeInBox(d Dims, from, to Coord, order [NumDims]int) []Rank {
	var path []Rank
	cur := from
	for _, dim := range order {
		step := +1
		if to[dim] < cur[dim] {
			step = -1
		}
		for cur[dim] != to[dim] {
			cur[dim] += step
			path = append(path, d.RankOf(cur))
		}
	}
	return path
}

// BuildTree builds the spanning tree over the rectangle induced by
// deterministic routes from root using the dimension order rotated by
// color (color 0..4 rotates the start dimension; colors 5..9 use the same
// rotations with routes computed from the far side, yielding the ten
// roughly edge-disjoint trees of the multi-color rectangle broadcast).
// Routes from a single source under a fixed dimension order form a tree
// because every node's route is a prefix-extension of its parent's; the
// routes never wrap, so the tree stays inside the rectangle.
func BuildTree(d Dims, rc Rectangle, root Rank, color int) *Tree {
	if color < 0 || color >= NumLinks {
		panic(fmt.Sprintf("torus: color %d out of range", color))
	}
	var order [NumDims]int
	rot := color % NumDims
	for i := 0; i < NumDims; i++ {
		order[i] = (rot + i) % NumDims
	}
	reverse := color >= NumDims
	t := &Tree{
		Root:     root,
		parent:   make(map[Rank]Rank),
		children: make(map[Rank][]Rank),
	}
	rootC := d.CoordOf(root)
	for _, n := range rc.Ranks(d) {
		if n == root {
			continue
		}
		nc := d.CoordOf(n)
		if reverse {
			// Walk the route from the node to the root: the node's parent
			// is its first hop. Following parents strictly shortens the
			// remaining dimension-ordered route, so the edges form a tree,
			// with a different edge set than the forward tree.
			back := routeInBox(d, nc, rootC, order)
			t.parent[n] = back[0]
			continue
		}
		path := routeInBox(d, rootC, nc, order)
		parent := root
		if len(path) > 1 {
			parent = path[len(path)-2]
		}
		t.parent[n] = parent
	}
	for n, p := range t.parent {
		t.children[p] = append(t.children[p], n)
	}
	for p := range t.children {
		cs := t.children[p]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	return t
}
