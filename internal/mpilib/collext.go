package mpilib

import (
	"fmt"
	"sync/atomic"
)

// The paper's future-work list (§VI) names all-to-all, scatter and
// gather as the next collectives to optimize. This file implements them
// over the point-to-point engine: scatter and gather as root-centric
// fan-out/fan-in, all-to-all as a phased pairwise exchange that keeps at
// most one outstanding exchange per phase — the standard algorithm for
// tori, where the phase structure spreads traffic across links.

// collTagBase keeps internal collective traffic away from user tags and
// from the rectangle broadcast's tag block.
const collTagBase = 1 << 22

// collSeq returns a per-communicator operation sequence number; members
// call collectives in the same order, so the values agree machine-wide.
func (c *Comm) collSeq() int {
	return int(atomic.AddUint64(&c.pt2ptCollSeq, 1))
}

// Scatter distributes root's send buffer — size() consecutive blocks of
// n bytes — so that rank i receives block i into recv (len(recv) >= n).
// send is ignored on non-roots.
func (c *Comm) Scatter(send []byte, n int, recv []byte, root int) error {
	counts, offsets := c.uniformBlocks(n)
	return c.Scatterv(send, counts, offsets, recv, root)
}

// Gather collects n-byte blocks from every rank into root's recv buffer,
// block i at offset i*n. recv is ignored on non-roots.
func (c *Comm) Gather(send []byte, n int, recv []byte, root int) error {
	counts, offsets := c.uniformBlocks(n)
	return c.Gatherv(send, recv, counts, offsets, root)
}

// uniformBlocks lays out size() consecutive n-byte blocks.
func (c *Comm) uniformBlocks(n int) (counts, offsets []int) {
	counts, offsets = make([]int, c.size), make([]int, c.size)
	for r := range counts {
		counts[r], offsets[r] = n, r*n
	}
	return counts, offsets
}

// checkBlocks validates a rooted v-collective before it draws a tag or
// posts anything, so a bad argument leaves no request behind: the root in
// range, one non-negative count and offset per rank, this rank's own
// block inside mine, and at the root every block inside rootBuf.
func (c *Comm) checkBlocks(op string, counts, offsets []int, mine, rootBuf []byte, root int) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpilib: %s root %d out of range", op, root)
	}
	if len(counts) != c.size || len(offsets) != c.size {
		return fmt.Errorf("mpilib: %s needs %d counts and offsets", op, c.size)
	}
	for r := range counts {
		if counts[r] < 0 || offsets[r] < 0 {
			return fmt.Errorf("mpilib: %s block %d has count %d at offset %d", op, r, counts[r], offsets[r])
		}
		if c.rank == root && offsets[r]+counts[r] > len(rootBuf) {
			return fmt.Errorf("mpilib: %s block %d overruns the root's buffer of %d", op, r, len(rootBuf))
		}
	}
	if len(mine) < counts[c.rank] {
		return fmt.Errorf("mpilib: %s buffer %d < block %d", op, len(mine), counts[c.rank])
	}
	return nil
}

// Alltoall exchanges n-byte blocks: block i of send goes to rank i, and
// block j of recv is filled by rank j's block for us. The exchange runs
// in size-1 phases; in phase k every rank trades with (rank ± k), which
// on the torus drives disjoint link sets per phase.
func (c *Comm) Alltoall(send []byte, n int, recv []byte) error {
	if n < 0 || len(send) < n*c.size || len(recv) < n*c.size {
		return fmt.Errorf("mpilib: alltoall buffers too small for %d blocks of %d", c.size, n)
	}
	tag := collTagBase + c.collSeq()
	copy(recv[c.rank*n:(c.rank+1)*n], send[c.rank*n:(c.rank+1)*n])
	for k := 1; k < c.size; k++ {
		to := (c.rank + k) % c.size
		from := (c.rank - k + c.size) % c.size
		rreq, err := c.Irecv(recv[from*n:(from+1)*n], from, tag+k)
		if err != nil {
			return err
		}
		sreq, err := c.Isend(send[to*n:(to+1)*n], to, tag+k)
		if err != nil {
			return err
		}
		if err := c.w.waitFree([]*Request{rreq, sreq}); err != nil {
			return err
		}
	}
	return nil
}

// Scatterv distributes variable-length blocks: root sends counts[i]
// bytes starting at offsets[i] of send to rank i's recv buffer.
func (c *Comm) Scatterv(send []byte, counts, offsets []int, recv []byte, root int) error {
	if err := c.checkBlocks("scatterv", counts, offsets, recv, send, root); err != nil {
		return err
	}
	tag := collTagBase + c.collSeq()
	if c.rank == root {
		var reqs []*Request
		for r := 0; r < c.size; r++ {
			blk := send[offsets[r] : offsets[r]+counts[r]]
			if r == root {
				copy(recv, blk)
				continue
			}
			if counts[r] == 0 {
				continue
			}
			q, err := c.Isend(blk, r, tag)
			if err != nil {
				return err
			}
			reqs = append(reqs, q)
		}
		return c.w.waitFree(reqs)
	}
	if counts[c.rank] == 0 {
		return nil
	}
	_, err := c.Recv(recv[:counts[c.rank]], root, tag)
	return err
}

// Gatherv collects variable-length blocks: counts[i] bytes from rank i
// land at offsets[i] of root's recv buffer.
func (c *Comm) Gatherv(send []byte, recv []byte, counts, offsets []int, root int) error {
	if err := c.checkBlocks("gatherv", counts, offsets, send, recv, root); err != nil {
		return err
	}
	tag := collTagBase + c.collSeq()
	if c.rank == root {
		var reqs []*Request
		for r := 0; r < c.size; r++ {
			dst := recv[offsets[r] : offsets[r]+counts[r]]
			if r == root {
				copy(dst, send)
				continue
			}
			if counts[r] == 0 {
				continue
			}
			q, err := c.Irecv(dst, r, tag)
			if err != nil {
				return err
			}
			reqs = append(reqs, q)
		}
		return c.w.waitFree(reqs)
	}
	if counts[c.rank] == 0 {
		return nil
	}
	return c.Send(send[:counts[c.rank]], root, tag)
}

// Allgatherv gathers variable-length contributions: counts[i] bytes from
// rank i land at offset offsets[i] of recv on every rank. Built as a
// gather to rank 0 followed by a broadcast, which keeps the network
// operations on the classroute when one is programmed.
func (c *Comm) Allgatherv(send []byte, counts []int, recv []byte) error {
	offsets := make([]int, len(counts))
	total := 0
	for i, n := range counts {
		offsets[i] = total
		total += n
	}
	if len(recv) < total {
		return fmt.Errorf("mpilib: allgatherv recv buffer %d < %d", len(recv), total)
	}
	if err := c.Gatherv(send, recv, counts, offsets, 0); err != nil {
		return err
	}
	return c.Bcast(recv[:total], 0)
}
