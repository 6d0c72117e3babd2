// Package integration holds cross-module system tests: whole jobs on
// multi-node machines exercising point-to-point, collectives,
// communicator churn, classroute pressure, and runtime coexistence at
// once — the closest thing to an application shakedown the suite has.
package integration

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pamigo/internal/armci"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/machine"
	"pamigo/internal/mpilib"
	"pamigo/internal/torus"
)

func runJob(t *testing.T, dims torus.Dims, ppn int, opts mpilib.Options, body func(w *mpilib.World)) {
	t.Helper()
	m, err := machine.New(machine.Config{Dims: dims, PPN: ppn})
	if err != nil {
		t.Fatal(err)
	}
	runWorld(t, m, opts, body)
}

// TestMixedWorkload interleaves deterministic pseudo-random pt2pt
// traffic (mixed eager/rendezvous sizes) with collectives on rotating
// subcommunicators across a 16-node, 32-process job.
func TestMixedWorkload(t *testing.T) {
	dims := torus.Dims{2, 2, 2, 2, 1}
	runJob(t, dims, 2, mpilib.Options{EagerLimit: 512}, func(w *mpilib.World) {
		cw := w.CommWorld()
		n := w.Size()
		rng := rand.New(rand.NewSource(int64(w.Rank()) + 42))
		for round := 0; round < 3; round++ {
			// Phase 1: each rank exchanges with 3 pseudo-random partners.
			// Both sides derive the same pairings from the round, so the
			// traffic matches up.
			var reqs []*mpilib.Request
			type key struct{ src, k int }
			inbox := map[key][]byte{}
			for k := 0; k < 3; k++ {
				partner := pairOf(w.Rank(), n, round, k)
				if partner == w.Rank() {
					continue
				}
				size := []int{16, 700, 3000}[k] // eager, mid, rendezvous
				in := make([]byte, size)
				r, err := cw.Irecv(in, partner, round*10+k)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
				inbox[key{partner, k}] = in
				out := make([]byte, size)
				fill(out, partner, round, k)
				s, err := cw.Isend(out, partner, round*10+k)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, s)
			}
			w.Waitall(reqs)
			for kk, in := range inbox {
				want := make([]byte, len(in))
				fill(want, w.Rank(), round, kk.k)
				if !bytes.Equal(in, want) {
					t.Errorf("rank %d round %d: payload from %d corrupt", w.Rank(), round, kk.src)
					return
				}
			}
			// Phase 2: a split communicator runs collectives, sometimes
			// optimized onto a classroute.
			color := (w.Rank() + round) % 2
			sub, err := cw.Split(color, w.Rank())
			if err != nil {
				panic(err)
			}
			if round%2 == 0 {
				// Node halves are rectangles at this shape; optimize when
				// possible and fall back silently when not.
				_ = sub.Optimize()
			}
			sum, err := sub.AllreduceInt64([]int64{1}, collnet.OpAdd)
			if err != nil {
				panic(err)
			}
			if sum[0] != int64(sub.Size()) {
				t.Errorf("rank %d round %d: sub allreduce = %d, want %d",
					w.Rank(), round, sum[0], sub.Size())
				return
			}
			buf := make([]byte, 256)
			if sub.Rank() == 0 {
				fill(buf, round, color, 9)
			}
			if err := sub.Bcast(buf, 0); err != nil {
				panic(err)
			}
			want := make([]byte, 256)
			fill(want, round, color, 9)
			if !bytes.Equal(buf, want) {
				t.Errorf("rank %d round %d: sub bcast corrupt", w.Rank(), round)
				return
			}
			sub.Free()
			cw.Barrier()
			_ = rng
		}
	})
}

// pairOf derives a symmetric pairing: ranks r and pairOf(r) choose each
// other for a given (round, k).
func pairOf(rank, n, round, k int) int {
	shift := (round*3 + k + 1) % n
	if shift == 0 {
		shift = 1
	}
	// pair r <-> r^shift only when the XOR stays in range; otherwise
	// self (skipped by the caller).
	p := rank ^ shift
	if p >= n {
		return rank
	}
	return p
}

func fill(buf []byte, a, b, c int) {
	for i := range buf {
		buf[i] = byte(a*31 + b*7 + c*3 + i)
	}
}

// TestUnexpectedFlood floods a receiver with thousands of eager messages
// before it posts anything, driving the reception FIFO through its
// overflow path and the unexpected queue deep, then drains in a hostile
// order.
func TestUnexpectedFlood(t *testing.T) {
	const msgs = 2000
	runJob(t, torus.Dims{2, 1, 1, 1, 1}, 1, mpilib.Options{}, func(w *mpilib.World) {
		cw := w.CommWorld()
		if w.Rank() == 0 {
			var reqs []*mpilib.Request
			for i := 0; i < msgs; i++ {
				r, err := cw.Isend([]byte{byte(i), byte(i >> 8)}, 1, i)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
			}
			w.Waitall(reqs)
			cw.Barrier()
		} else {
			cw.Barrier() // all messages are now unexpected on our side
			// Drain highest-tag-first: every receive digs through the
			// whole unexpected queue.
			for i := msgs - 1; i >= 0; i-- {
				buf := make([]byte, 2)
				st, err := cw.Recv(buf, 0, i)
				if err != nil {
					panic(err)
				}
				if buf[0] != byte(i) || buf[1] != byte(i>>8) || st.Tag != i {
					t.Errorf("flooded message %d corrupt", i)
					return
				}
			}
		}
		cw.Barrier()
	})
}

// TestClassroutePressure churns communicators against the 14 user
// classroute slots: create, optimize, verify, deoptimize, free — more
// times than there are slots.
func TestClassroutePressure(t *testing.T) {
	runJob(t, torus.Dims{2, 2, 1, 1, 1}, 1, mpilib.Options{}, func(w *mpilib.World) {
		cw := w.CommWorld()
		for i := 0; i < collnet.UserSlots+3; i++ {
			dup, err := cw.Dup()
			if err != nil {
				panic(err)
			}
			if err := dup.Optimize(); err != nil {
				// The world route occupies one slot; late rounds may race
				// the frees. Exhaustion must be the only error.
				if err != collnet.ErrNoClassRoute {
					t.Errorf("round %d: optimize: %v", i, err)
					return
				}
			}
			sum, err := dup.AllreduceInt64([]int64{int64(i)}, collnet.OpAdd)
			if err != nil {
				panic(err)
			}
			if sum[0] != int64(i*w.Size()) {
				t.Errorf("round %d: allreduce = %d", i, sum[0])
				return
			}
			dup.Free() // deoptimizes and releases the slot
		}
		cw.Barrier()
	})
}

// TestMPIPlusARMCIUnderLoad runs MPI collectives and ARMCI one-sided
// updates concurrently on the same processes.
func TestMPIPlusARMCIUnderLoad(t *testing.T) {
	m, err := machine.New(machine.Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fail sync.Once
	m.Run(func(p *cnk.Process) {
		defer func() {
			if r := recover(); r != nil {
				fail.Do(func() { t.Errorf("rank %d: %v", p.TaskRank(), r) })
			}
		}()
		w, err := mpilib.Init(m, p, mpilib.Options{})
		if err != nil {
			panic(err)
		}
		rt, err := armci.Attach(m, p)
		if err != nil {
			panic(err)
		}
		reg, err := rt.Malloc(8 * m.Tasks())
		if err != nil {
			panic(err)
		}
		cw := w.CommWorld()
		for round := 0; round < 5; round++ {
			// ARMCI: scatter our rank stamp into everyone's slab.
			stamp := []byte{byte(round), byte(p.TaskRank()), 0, 0, 0, 0, 0, 0}
			for r := 0; r < m.Tasks(); r++ {
				if err := reg.Put(r, 8*p.TaskRank(), stamp); err != nil {
					panic(err)
				}
			}
			// MPI: a collective in the middle of the one-sided traffic.
			if _, err := cw.AllreduceInt64([]int64{1}, collnet.OpAdd); err != nil {
				panic(err)
			}
			rt.Barrier()
			for r := 0; r < m.Tasks(); r++ {
				if reg.Local[8*r] != byte(round) || reg.Local[8*r+1] != byte(r) {
					t.Errorf("rank %d round %d: slab slot %d = %v",
						p.TaskRank(), round, r, reg.Local[8*r:8*r+2])
					return
				}
			}
			rt.Barrier()
		}
		rt.Detach()
		w.Finalize()
	})
}

// TestBigMachineSmoke boots the largest machine the suite runs — 64
// nodes, 128 processes — and pushes a barrier, an allreduce, and a
// neighbor exchange through it.
func TestBigMachineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large machine")
	}
	dims := torus.Dims{4, 2, 2, 2, 2}
	runJob(t, dims, 2, mpilib.Options{}, func(w *mpilib.World) {
		cw := w.CommWorld()
		cw.Barrier()
		sum, err := cw.AllreduceInt64([]int64{1}, collnet.OpAdd)
		if err != nil {
			panic(err)
		}
		if sum[0] != int64(w.Size()) {
			t.Errorf("allreduce on 128 ranks = %d", sum[0])
			return
		}
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		out := []byte(fmt.Sprintf("%04d", w.Rank()))
		in := make([]byte, 4)
		if _, err := cw.SendRecv(out, next, 0, in, prev, 0); err != nil {
			panic(err)
		}
		if string(in) != fmt.Sprintf("%04d", prev) {
			t.Errorf("rank %d: ring got %q", w.Rank(), in)
		}
		cw.Barrier()
	})
}
