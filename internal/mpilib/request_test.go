package mpilib

import (
	"bytes"
	"runtime"
	"testing"

	"pamigo/internal/bufpool"
	"pamigo/internal/torus"
)

// TestFreeActiveRequestOrphans frees a receive before its message has
// arrived and posts a second one. The matcher still holds the first, so
// the pool must not hand it out again: each message completes its own
// request, into its own buffer. A second Free is a no-op, so a freed
// request is never in the pool twice.
func TestFreeActiveRequestOrphans(t *testing.T) {
	const rounds = 8
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{Library: ThreadOptimized}, func(w *World) {
		cw := w.CommWorld()
		for i := 0; i < rounds; i++ {
			if w.Rank() == 0 {
				cw.Barrier() // rank 1 has posted both receives
				for _, tag := range []int{5, 6} {
					if err := cw.Send([]byte{byte(i), byte(tag)}, 1, tag); err != nil {
						panic(err)
					}
				}
				continue
			}
			first, second := make([]byte, 2), make([]byte, 2)
			r1, err := cw.Irecv(first, 0, 5)
			if err != nil {
				panic(err)
			}
			r1.Free()
			r2, err := cw.Irecv(second, 0, 6)
			if err != nil {
				panic(err)
			}
			if r2 == r1 {
				t.Errorf("round %d: Irecv handed out the freed request the matcher still holds", i)
			}
			cw.Barrier()
			w.Wait(r2)
			if st := r2.Status(); st.Tag != 6 || st.Count != 2 || !bytes.Equal(second, []byte{byte(i), 6}) {
				t.Errorf("round %d: second receive got %+v %v, want tag 6 and [%d 6]", i, st, second, i)
			}
			// Same sender, so the tag 5 message matched first: the orphaned
			// receive completed into its own buffer.
			if !bytes.Equal(first, []byte{byte(i), 5}) {
				t.Errorf("round %d: first buffer %v, want [%d 5]", i, first, i)
			}
			r2.Free()
			r2.Free()
			if a, b := w.newRequest(), w.newRequest(); a == b {
				t.Errorf("round %d: a request freed twice came out of the pool twice", i)
			}
		}
		cw.Barrier()
	})
}

// TestPointToPointZeroAlloc: blocking Send and Recv of the thread-optimized
// build make no allocation per message, on either rank, at 0 B and at 8 B.
func TestPointToPointZeroAlloc(t *testing.T) {
	if raceBuild || bufpool.DebugEnabled {
		t.Skip("the race detector and the bufpooldebug quarantine allocate")
	}
	const trips = 1000
	for _, size := range []int{0, 8} {
		var before, after runtime.MemStats
		opts := Options{ThreadMode: ThreadSingle, Library: ThreadOptimized}
		runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
			cw := w.CommWorld()
			peer := 1 - w.Rank()
			buf := make([]byte, size)
			pingpong := func(n int) {
				for i := 0; i < n; i++ {
					if w.Rank() == 0 {
						if err := cw.Send(buf, peer, 0); err != nil {
							panic(err)
						}
					}
					if _, err := cw.Recv(buf, peer, 0); err != nil {
						panic(err)
					}
					if w.Rank() == 1 {
						if err := cw.Send(buf, peer, 0); err != nil {
							panic(err)
						}
					}
				}
			}
			pingpong(100)
			cw.Barrier()
			if w.Rank() == 0 {
				runtime.ReadMemStats(&before) // rank 1 waits in its first Recv
			}
			pingpong(trips)
			if w.Rank() == 0 {
				runtime.ReadMemStats(&after) // rank 1 has sent its last echo
			}
			cw.Barrier()
		})
		// A GC empties the request pool, and a goroutine that changes P
		// misses the pool's per-P slot: each refill is one request and its
		// completion func. One allocation per message is thousands.
		if n := after.Mallocs - before.Mallocs; n > trips/100 {
			t.Errorf("%d B: %d allocations in %d round trips, want none", size, n, trips)
		}
	}
}

// TestUnexpectedEagerSlabReleased: an eager message that arrives before
// its receive waits in a pool slab, and the slab goes back when the
// receive matches it — bufpool's live count returns to its base.
func TestUnexpectedEagerSlabReleased(t *testing.T) {
	const size = 200 // past mu.InlineMax, so the packet carries a slab too
	payload := bytes.Repeat([]byte{0xA5}, size)
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{Library: ThreadOptimized}, func(w *World) {
		cw := w.CommWorld()
		var base int64
		cw.Barrier()
		if w.Rank() == 1 {
			base, _ = bufpool.Live()
		}
		cw.Barrier()
		if w.Rank() == 0 {
			if err := cw.Send(payload, 1, 9); err != nil {
				panic(err)
			}
			cw.Barrier()
			cw.Barrier()
			return
		}
		cw.Barrier() // the message is on its way
		for _, un := w.QueueDepths(); un == 0; _, un = w.QueueDepths() {
			if w.progress() == 0 {
				runtime.Gosched()
			}
		}
		if held, _ := bufpool.Live(); held != base+1 {
			t.Errorf("live count %d while the message waits unexpected, want base %d + its slab", held, base)
		}
		buf := make([]byte, size)
		st, err := cw.Recv(buf, 0, 9)
		if err != nil {
			panic(err)
		}
		if st.Count != size || !bytes.Equal(buf, payload) {
			t.Errorf("unexpected message received as %+v, payload intact %v", st, bytes.Equal(buf, payload))
		}
		if now, _ := bufpool.Live(); now != base {
			t.Errorf("live count %d after the receive matched, want base %d", now, base)
		}
		cw.Barrier()
	})
}
