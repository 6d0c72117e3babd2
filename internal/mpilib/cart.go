package mpilib

import (
	"fmt"
)

// CartComm is a Cartesian communicator: an MPI_Cart_create-style process
// grid over a communicator, the decomposition every stencil code (the
// paper's motivating workload class) starts from. Rank order is row-major
// over the grid coordinates.
type CartComm struct {
	*Comm
	dims     []int
	periodic []bool
	coords   []int
}

// CartCreate builds a Cartesian grid over the communicator's processes.
// The product of dims must equal the communicator size. Collective.
func (c *Comm) CartCreate(dims []int, periodic []bool) (*CartComm, error) {
	if len(dims) == 0 || len(dims) != len(periodic) {
		return nil, fmt.Errorf("mpilib: cart dims/periodic length mismatch")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("mpilib: cart dimension %d", d)
		}
		n *= d
	}
	if n != c.size {
		return nil, fmt.Errorf("mpilib: cart grid %d != communicator size %d", n, c.size)
	}
	// Reuse the communicator ordering (a Dup isolates the traffic).
	base, err := c.Dup()
	if err != nil {
		return nil, err
	}
	cc := &CartComm{
		Comm:     base,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}
	cc.coords = cc.CoordsOf(base.Rank())
	return cc, nil
}

// Dims returns the grid shape.
func (cc *CartComm) Dims() []int { return append([]int(nil), cc.dims...) }

// Coords returns the caller's grid coordinates.
func (cc *CartComm) Coords() []int { return append([]int(nil), cc.coords...) }

// CoordsOf converts a rank to grid coordinates (row-major).
func (cc *CartComm) CoordsOf(rank int) []int {
	coords := make([]int, len(cc.dims))
	for i := len(cc.dims) - 1; i >= 0; i-- {
		coords[i] = rank % cc.dims[i]
		rank /= cc.dims[i]
	}
	return coords
}

// RankOf converts grid coordinates to a rank; periodic dimensions wrap,
// and out-of-range coordinates on non-periodic dimensions return -1
// (MPI_PROC_NULL).
func (cc *CartComm) RankOf(coords []int) int {
	if len(coords) != len(cc.dims) {
		return -1
	}
	rank := 0
	for i, v := range coords {
		d := cc.dims[i]
		if cc.periodic[i] {
			v = ((v % d) + d) % d
		} else if v < 0 || v >= d {
			return -1
		}
		rank = rank*d + v
	}
	return rank
}

// Shift returns the (source, dest) ranks for a displacement along a
// dimension, MPI_Cart_shift style: dest is the neighbor `disp` away in
// the positive direction, source the one the same distance the other
// way; -1 stands in for MPI_PROC_NULL at non-periodic edges.
func (cc *CartComm) Shift(dim, disp int) (src, dst int, err error) {
	if dim < 0 || dim >= len(cc.dims) {
		return -1, -1, fmt.Errorf("mpilib: cart shift dimension %d out of range", dim)
	}
	up := append([]int(nil), cc.coords...)
	up[dim] += disp
	down := append([]int(nil), cc.coords...)
	down[dim] -= disp
	return cc.RankOf(down), cc.RankOf(up), nil
}

// Sub builds the MPI_Cart_sub-style sub-grids: dimensions with keep[i] ==
// true stay; the others are dropped, and the processes sharing dropped
// coordinates form one sub-communicator each.
func (cc *CartComm) Sub(keep []bool) (*CartComm, error) {
	if len(keep) != len(cc.dims) {
		return nil, fmt.Errorf("mpilib: cart sub keep length mismatch")
	}
	// Color = coordinates of the dropped dimensions; key = row-major
	// index within the kept dimensions.
	color, key := 0, 0
	var subDims []int
	var subPeriodic []bool
	for i := range cc.dims {
		if keep[i] {
			key = key*cc.dims[i] + cc.coords[i]
			subDims = append(subDims, cc.dims[i])
			subPeriodic = append(subPeriodic, cc.periodic[i])
		} else {
			color = color*cc.dims[i] + cc.coords[i]
		}
	}
	if len(subDims) == 0 {
		return nil, fmt.Errorf("mpilib: cart sub keeps no dimensions")
	}
	sub, err := cc.Split(color, key)
	if err != nil {
		return nil, err
	}
	out := &CartComm{
		Comm:     sub,
		dims:     subDims,
		periodic: subPeriodic,
	}
	out.coords = out.CoordsOf(sub.Rank())
	return out, nil
}

// HaloExchange performs one nonblocking halo swap along every grid
// dimension at once: for each dimension d, sendUp[d] goes to the +1
// neighbor and sendDown[d] to the -1 neighbor; the matching halos land
// in recvDown[d] and recvUp[d]. Nil slices at non-periodic edges are
// skipped. This is the communication kernel of examples/halo3d, offered
// as a library call.
func (cc *CartComm) HaloExchange(sendUp, sendDown, recvUp, recvDown [][]byte) error {
	nd := len(cc.dims)
	if len(sendUp) != nd || len(sendDown) != nd || len(recvUp) != nd || len(recvDown) != nd {
		return fmt.Errorf("mpilib: halo exchange needs one buffer set per dimension")
	}
	var reqs []*Request
	for d := 0; d < nd; d++ {
		srcDown, dstUp, err := cc.Shift(d, 1)
		if err != nil {
			return err
		}
		tagUp := 2 * d
		tagDown := 2*d + 1
		if srcDown >= 0 && recvDown[d] != nil {
			r, err := cc.Irecv(recvDown[d], srcDown, tagUp)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		if dstUp >= 0 && recvUp[d] != nil {
			r, err := cc.Irecv(recvUp[d], dstUp, tagDown)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		if dstUp >= 0 && sendUp[d] != nil {
			r, err := cc.Isend(sendUp[d], dstUp, tagUp)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		if srcDown >= 0 && sendDown[d] != nil {
			r, err := cc.Isend(sendDown[d], srcDown, tagDown)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	}
	return cc.w.waitFree(reqs)
}
