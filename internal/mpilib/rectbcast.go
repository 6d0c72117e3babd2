package mpilib

import (
	"fmt"

	"pamigo/internal/core"
	"pamigo/internal/torus"
)

// RectBcastColors is the number of edge-disjoint spanning trees used by
// the multi-color rectangle broadcast: one per torus link out of a node.
const RectBcastColors = torus.NumLinks

// rectBcastTagBase keeps the algorithm's internal traffic away from user
// tags (one tag per color).
const rectBcastTagBase = 1 << 20

// RectBcast broadcasts root's buf with the multi-color rectangle
// algorithm of paper §V (figure 10): the payload is split into ten
// slices, and slice c travels down spanning tree c, where the ten trees
// are rotated-dimension-order trees leaving the root on different links.
// On the real machine the trees are edge disjoint, so the root drives all
// ten links at once for an aggregate peak of 10 × 1.8 GB/s = 18 GB/s;
// here the same tree construction routes the slices over the simulated
// torus.
//
// The communicator must have exactly one process per node and its node
// set must tile a rectangle (the algorithm's precondition).
func (c *Comm) RectBcast(buf []byte, root int) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpilib: rect broadcast root %d out of range", root)
	}
	if c.size == 1 {
		return nil
	}
	m := c.w.mach
	dims := m.Dims()
	// Map communicator ranks onto nodes; require one process per node.
	nodeOf := make([]torus.Rank, c.size)
	rankAt := make(map[torus.Rank]int, c.size)
	for r, world := range c.group {
		nr := m.NodeOf(world).Rank
		if _, dup := rankAt[nr]; dup {
			return fmt.Errorf("mpilib: rect broadcast requires one process per node (node %d has several)", nr)
		}
		nodeOf[r] = nr
		rankAt[nr] = r
	}
	nodes := make([]torus.Rank, 0, c.size)
	for _, nr := range nodeOf {
		nodes = append(nodes, nr)
	}
	rect, exact := torus.BoundingRectangle(dims, nodes)
	if !exact {
		return fmt.Errorf("mpilib: rect broadcast requires a rectangular node set")
	}

	// Slice the payload across the colors (word-aligned slices).
	slices := make([][2]int, RectBcastColors) // [offset, end)
	per := (len(buf)/RectBcastColors + 7) &^ 7
	for color := range slices {
		lo := color * per
		hi := lo + per
		if lo > len(buf) {
			lo = len(buf)
		}
		if hi > len(buf) || color == RectBcastColors-1 {
			hi = len(buf)
		}
		slices[color] = [2]int{lo, hi}
	}

	rootNode := nodeOf[root]
	myNode := nodeOf[c.rank]
	var reqs []*Request
	for color := 0; color < RectBcastColors; color++ {
		lo, hi := slices[color][0], slices[color][1]
		tree := torus.BuildTree(dims, rect, rootNode, color)
		tag := rectBcastTagBase + color
		if myNode != rootNode {
			parent := rankAt[tree.Parent(myNode)]
			if hi > lo {
				if _, err := c.Recv(buf[lo:hi], parent, tag); err != nil {
					return err
				}
			} else {
				// Zero-length slice: still synchronize the tree edge so
				// children below see a consistent wavefront.
				if _, err := c.Recv(nil, parent, tag); err != nil {
					return err
				}
			}
		}
		for _, child := range tree.Children(myNode) {
			r, err := c.IsendMode(buf[lo:hi], rankAt[child], tag, core.ModeRendezvous)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	}
	return c.w.waitFree(reqs)
}
