package mpilib

import (
	"bytes"
	"testing"

	"pamigo/internal/collnet"
	"pamigo/internal/torus"
)

func TestScatter(t *testing.T) {
	const root = 1
	const n = 16
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		var send []byte
		if w.Rank() == root {
			send = make([]byte, n*w.Size())
			for r := 0; r < w.Size(); r++ {
				for i := 0; i < n; i++ {
					send[r*n+i] = byte(r*100 + i)
				}
			}
		}
		recv := make([]byte, n)
		if err := cw.Scatter(send, n, recv, root); err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			if recv[i] != byte(w.Rank()*100+i) {
				t.Errorf("rank %d: scatter byte %d = %d", w.Rank(), i, recv[i])
				return
			}
		}
	})
}

func TestGather(t *testing.T) {
	const root = 2
	const n = 8
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		send := make([]byte, n)
		for i := range send {
			send[i] = byte(w.Rank()*10 + i)
		}
		var recv []byte
		if w.Rank() == root {
			recv = make([]byte, n*w.Size())
		}
		if err := cw.Gather(send, n, recv, root); err != nil {
			panic(err)
		}
		if w.Rank() == root {
			for r := 0; r < w.Size(); r++ {
				for i := 0; i < n; i++ {
					if recv[r*n+i] != byte(r*10+i) {
						t.Errorf("gather block %d byte %d = %d", r, i, recv[r*n+i])
						return
					}
				}
			}
		}
	})
}

func TestScatterGatherRoundTrip(t *testing.T) {
	const n = 32
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		var original, back []byte
		if w.Rank() == 0 {
			original = make([]byte, n*w.Size())
			for i := range original {
				original[i] = byte(i * 3)
			}
			back = make([]byte, n*w.Size())
		}
		mine := make([]byte, n)
		if err := cw.Scatter(original, n, mine, 0); err != nil {
			panic(err)
		}
		if err := cw.Gather(mine, n, back, 0); err != nil {
			panic(err)
		}
		if w.Rank() == 0 && !bytes.Equal(original, back) {
			t.Error("scatter/gather round trip corrupted data")
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 12
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		send := make([]byte, n*w.Size())
		for r := 0; r < w.Size(); r++ {
			for i := 0; i < n; i++ {
				send[r*n+i] = byte(w.Rank()*31 + r*7 + i)
			}
		}
		recv := make([]byte, n*w.Size())
		if err := cw.Alltoall(send, n, recv); err != nil {
			panic(err)
		}
		for r := 0; r < w.Size(); r++ {
			for i := 0; i < n; i++ {
				want := byte(r*31 + w.Rank()*7 + i)
				if recv[r*n+i] != want {
					t.Errorf("rank %d: alltoall block %d byte %d = %d, want %d",
						w.Rank(), r, i, recv[r*n+i], want)
					return
				}
			}
		}
	})
}

func TestAlltoallOnSubcommunicator(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		sub, err := cw.Split(w.Rank()%2, w.Rank())
		if err != nil {
			panic(err)
		}
		const n = 4
		send := make([]byte, n*sub.Size())
		for i := range send {
			send[i] = byte(sub.Rank() + i)
		}
		recv := make([]byte, n*sub.Size())
		if err := sub.Alltoall(send, n, recv); err != nil {
			panic(err)
		}
		for r := 0; r < sub.Size(); r++ {
			if recv[r*n] != byte(r+sub.Rank()*n) {
				t.Errorf("sub alltoall block %d wrong", r)
				return
			}
		}
		sub.Free()
	})
}

func TestAllgatherv(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		counts := make([]int, w.Size())
		total := 0
		for r := range counts {
			counts[r] = 4 * (r + 1) // variable-length blocks
			total += counts[r]
		}
		send := make([]byte, counts[w.Rank()])
		for i := range send {
			send[i] = byte(w.Rank()*50 + i)
		}
		recv := make([]byte, total)
		if err := cw.Allgatherv(send, counts, recv); err != nil {
			panic(err)
		}
		off := 0
		for r := 0; r < w.Size(); r++ {
			for i := 0; i < counts[r]; i++ {
				if recv[off+i] != byte(r*50+i) {
					t.Errorf("rank %d: allgatherv block %d byte %d wrong", w.Rank(), r, i)
					return
				}
			}
			off += counts[r]
		}
	})
}

func TestCollExtValidation(t *testing.T) {
	runMPI(t, torus.Dims{1, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		if err := cw.Scatter(nil, 8, make([]byte, 8), 99); err == nil {
			t.Error("scatter with bad root accepted")
		}
		if err := cw.Scatter(nil, 8, make([]byte, 4), 0); err == nil && w.Rank() == 0 {
			t.Error("scatter with short recv accepted")
		}
		if err := cw.Gather(make([]byte, 4), 8, nil, 0); err == nil {
			t.Error("gather with short send accepted")
		}
		if err := cw.Alltoall(make([]byte, 4), 8, make([]byte, 64)); err == nil {
			t.Error("alltoall with short send accepted")
		}
		if err := cw.Allgatherv(nil, []int{1}, nil); err == nil {
			t.Error("allgatherv with wrong counts length accepted")
		}
		// A negative block size is an error on every rank, before any
		// communication; none of these may panic.
		buf := make([]byte, 64)
		for name, call := range map[string]func() error{
			"scatter":        func() error { return cw.Scatter(buf, -8, buf, 0) },
			"gather":         func() error { return cw.Gather(buf, -8, buf, 0) },
			"alltoall":       func() error { return cw.Alltoall(buf, -8, buf) },
			"reduce-scatter": func() error { return cw.ReduceScatterBlock(buf, -8, buf, collnet.OpAdd, collnet.Int64) },
		} {
			if err := call(); err == nil {
				t.Errorf("%s with a negative block size accepted", name)
			}
		}
		cw.Barrier()
	})
}

func TestCollectivesBackToBack(t *testing.T) {
	// Sequenced tags must keep consecutive collectives from bleeding into
	// each other even without intervening barriers.
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		const n = 8
		for round := 0; round < 10; round++ {
			send := make([]byte, n*w.Size())
			for i := range send {
				send[i] = byte(round*w.Rank() + i)
			}
			recv := make([]byte, n*w.Size())
			if err := cw.Alltoall(send, n, recv); err != nil {
				panic(err)
			}
			mine := make([]byte, n)
			if err := cw.Scatter(send, n, mine, 0); err != nil {
				panic(err)
			}
		}
		cw.Barrier()
	})
}
