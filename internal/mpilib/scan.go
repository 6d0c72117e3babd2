package mpilib

import (
	"fmt"

	"pamigo/internal/collnet"
)

// Scan computes the inclusive prefix reduction: rank r's recv holds the
// element-wise combination of ranks 0..r's send buffers. Implemented
// with the recursive-doubling prefix algorithm (log₂ rounds of
// point-to-point exchanges); buffers are little-endian 8-byte words.
func (c *Comm) Scan(send, recv []byte, op collnet.Op, dt collnet.DType) error {
	if len(send)%8 != 0 || len(recv) < len(send) {
		return fmt.Errorf("mpilib: scan buffer sizes (send %d, recv %d)", len(send), len(recv))
	}
	tag := collTagBase + c.collSeq()
	copy(recv[:len(send)], send)
	// acc carries the combination of the contiguous block of ranks ending
	// at us that we have folded so far; recv carries our prefix result.
	acc := append([]byte(nil), send...)
	in := make([]byte, len(send))
	for d := 1; d < c.size; d *= 2 {
		if err := c.shift(acc, in, d, tag+d); err != nil {
			return err
		}
		if c.rank-d >= 0 {
			// The incoming block covers ranks [rank-2d+1 .. rank-d] (or a
			// prefix of it); fold it into both the running block and the
			// prefix result.
			if err := collnet.Combine(op, dt, recv[:len(send)], in); err != nil {
				return err
			}
			if err := collnet.Combine(op, dt, acc, in); err != nil {
				return err
			}
		}
	}
	return nil
}

// Exscan computes the exclusive prefix reduction: rank r's recv holds
// the combination of ranks 0..r-1 (rank 0's recv is untouched, like
// MPI_Exscan's undefined result there).
func (c *Comm) Exscan(send, recv []byte, op collnet.Op, dt collnet.DType) error {
	if len(send)%8 != 0 || (c.rank != 0 && len(recv) < len(send)) {
		return fmt.Errorf("mpilib: exscan buffer sizes (send %d, recv %d)", len(send), len(recv))
	}
	tag := collTagBase + c.collSeq()
	// Shift the inclusive scan by one rank: compute the inclusive scan,
	// then pass each rank's result to rank+1. One extra hop keeps the
	// code honest rather than clever.
	incl := make([]byte, len(send))
	if err := c.Scan(send, incl, op, dt); err != nil {
		return err
	}
	if c.rank > 0 {
		recv = recv[:len(send)]
	}
	return c.shift(incl, recv, 1, tag)
}

// shift sends out to rank+d and receives in from rank-d, each where that
// rank exists, and waits for both.
func (c *Comm) shift(out, in []byte, d, tag int) error {
	var reqs []*Request
	if c.rank+d < c.size {
		r, err := c.Isend(out, c.rank+d, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	if c.rank-d >= 0 {
		r, err := c.Irecv(in, c.rank-d, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	return c.w.waitFree(reqs)
}

// ReduceScatterBlock reduces size() equal blocks element-wise across all
// ranks and scatters block i to rank i: recv (one block of n bytes)
// holds the reduction of every rank's i-th block. The reduction itself
// runs on the collective network when a classroute is programmed.
func (c *Comm) ReduceScatterBlock(send []byte, n int, recv []byte, op collnet.Op, dt collnet.DType) error {
	if n%8 != 0 {
		return fmt.Errorf("mpilib: reduce-scatter block %d not word aligned", n)
	}
	if n < 0 || len(send) < n*c.size || len(recv) < n {
		return fmt.Errorf("mpilib: reduce-scatter buffers too small")
	}
	full := make([]byte, n*c.size)
	if err := c.Allreduce(send[:n*c.size], full, op, dt); err != nil {
		return err
	}
	copy(recv[:n], full[c.rank*n:(c.rank+1)*n])
	return nil
}
