package mpilib

import (
	"testing"

	"pamigo/internal/torus"
)

func TestScattervGathervRoundTrip(t *testing.T) {
	const root = 1
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		counts := make([]int, w.Size())
		offsets := make([]int, w.Size())
		total := 0
		for r := range counts {
			counts[r] = 3 * (r + 1)
			offsets[r] = total
			total += counts[r]
		}
		var send []byte
		if w.Rank() == root {
			send = make([]byte, total)
			for i := range send {
				send[i] = byte(i * 5)
			}
		}
		mine := make([]byte, counts[w.Rank()])
		if err := cw.Scatterv(send, counts, offsets, mine, root); err != nil {
			panic(err)
		}
		for i := range mine {
			if mine[i] != byte((offsets[w.Rank()]+i)*5) {
				t.Errorf("rank %d: scatterv byte %d wrong", w.Rank(), i)
				return
			}
		}
		var back []byte
		if w.Rank() == root {
			back = make([]byte, total)
		}
		if err := cw.Gatherv(mine, back, counts, offsets, root); err != nil {
			panic(err)
		}
		if w.Rank() == root {
			for i := range back {
				if back[i] != send[i] {
					t.Errorf("gatherv byte %d: %d != %d", i, back[i], send[i])
					return
				}
			}
		}
	})
}

func TestScattervZeroCounts(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		counts := []int{4, 0} // rank 1 gets nothing
		offsets := []int{0, 4}
		var send []byte
		if w.Rank() == 0 {
			send = []byte{1, 2, 3, 4}
		}
		mine := make([]byte, counts[w.Rank()])
		if err := cw.Scatterv(send, counts, offsets, mine, 0); err != nil {
			panic(err)
		}
		if w.Rank() == 0 && mine[3] != 4 {
			t.Error("root block wrong")
		}
		cw.Barrier()
	})
}

func TestScattervGathervValidation(t *testing.T) {
	runMPI(t, torus.Dims{1, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		if err := cw.Scatterv(nil, []int{1}, []int{0}, nil, 0); err == nil {
			t.Error("short counts accepted")
		}
		if err := cw.Gatherv(nil, nil, []int{1, 1}, []int{0}, 0); err == nil {
			t.Error("short offsets accepted")
		}
		if err := cw.Scatterv(nil, []int{1, 1}, []int{0, 1}, make([]byte, 1), 9); err == nil {
			t.Error("bad root accepted")
		}
		if w.Rank() == 0 {
			// Overrunning block on root.
			err := cw.Scatterv(make([]byte, 1), []int{4, 0}, []int{0, 0}, make([]byte, 4), 0)
			if err == nil {
				t.Error("overrunning scatterv accepted")
			}
		}
		// Negative counts and offsets are errors on every rank, before
		// any communication.
		buf := make([]byte, 8)
		if err := cw.Scatterv(buf, []int{-1, -1}, []int{0, 0}, buf, 0); err == nil {
			t.Error("scatterv with negative counts accepted")
		}
		if err := cw.Gatherv(buf, buf, []int{-1, -1}, []int{0, 0}, 0); err == nil {
			t.Error("gatherv with negative counts accepted")
		}
		if err := cw.Scatterv(buf, []int{1, 1}, []int{-4, 0}, buf, 0); err == nil {
			t.Error("scatterv with a negative offset accepted")
		}
		if err := cw.Gatherv(buf, buf, []int{1, 1}, []int{0, -4}, 0); err == nil {
			t.Error("gatherv with a negative offset accepted")
		}
		cw.Barrier()
	})
}

// A Gatherv whose root finds block 2 overrunning its buffer must fail
// before posting the receive for block 1: ranks 1 and 2 fail their own
// send-length check, so a receive the root posted would never complete.
func TestGathervErrorPostsNothing(t *testing.T) {
	runMPI(t, torus.Dims{1, 1, 1, 1, 1}, 4, Options{}, func(w *World) {
		cw := w.CommWorld()
		var send []byte
		if w.Rank() == 0 {
			send = []byte{7}
		}
		err := cw.Gatherv(send, make([]byte, 4), []int{1, 1, 8, 0}, []int{0, 1, 2, 3}, 0)
		if (err == nil) != (w.Rank() == 3) {
			t.Errorf("rank %d: gatherv = %v", w.Rank(), err)
		}
		if posted, _ := w.QueueDepths(); w.Rank() == 0 && posted != 0 {
			t.Errorf("the failed gatherv left %d receives posted on the root", posted)
		}
		cw.Barrier()
	})
}
