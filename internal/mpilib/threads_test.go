package mpilib

import (
	"fmt"
	"sync"
	"testing"

	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// TestThreadMultipleConcurrentSenders drives MPI_THREAD_MULTIPLE the way
// a hybrid MPI+OpenMP code would: several application goroutines per
// process issue sends and receives concurrently on the same World.
func TestThreadMultipleConcurrentSenders(t *testing.T) {
	const threads = 4
	const perThread = 50
	opts := Options{Library: ThreadOptimized, ThreadMode: ThreadMultiple}
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
		cw := w.CommWorld()
		peer := 1 - w.Rank()
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each thread owns a tag range so matching is unambiguous.
				base := 1000 * th
				for i := 0; i < perThread; i++ {
					buf := []byte(fmt.Sprintf("t%02d i%03d", th, i))
					if err := cw.Send(buf, peer, base+i); err != nil {
						t.Error(err)
						return
					}
					in := make([]byte, len(buf))
					st, err := cw.Recv(in, peer, base+i)
					if err != nil {
						t.Error(err)
						return
					}
					want := fmt.Sprintf("t%02d i%03d", th, i)
					if string(in) != want || st.Tag != base+i {
						t.Errorf("thread %d msg %d: got %q tag %d", th, i, in, st.Tag)
						return
					}
				}
			}()
		}
		wg.Wait()
		cw.Barrier()
	})
}

// TestThreadMultipleClassicGlobalLock runs the same pattern on the
// classic build: the global lock serializes but must stay correct.
func TestThreadMultipleClassicGlobalLock(t *testing.T) {
	const threads = 3
	const perThread = 30
	opts := Options{Library: Classic, ThreadMode: ThreadMultiple, DisableCommThreads: true}
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
		cw := w.CommWorld()
		peer := 1 - w.Rank()
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perThread; i++ {
					tag := 100*th + i
					if err := cw.Send([]byte{byte(th), byte(i)}, peer, tag); err != nil {
						t.Error(err)
						return
					}
					in := make([]byte, 2)
					if _, err := cw.Recv(in, peer, tag); err != nil {
						t.Error(err)
						return
					}
					if in[0] != byte(th) || in[1] != byte(i) {
						t.Errorf("classic thread %d msg %d corrupted", th, i)
						return
					}
				}
			}()
		}
		wg.Wait()
		cw.Barrier()
	})
}

// TestWildcardWithConcurrentThreads checks wildcard matching under
// thread-multiple concurrency: one receiver thread drains AnySource/
// AnyTag while multiple remote threads send.
func TestWildcardWithConcurrentThreads(t *testing.T) {
	const threads = 3
	const perThread = 40
	opts := Options{Library: ThreadOptimized, ThreadMode: ThreadMultiple}
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
		cw := w.CommWorld()
		if w.Rank() == 0 {
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				th := th
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						if err := cw.Send([]byte{byte(th)}, 1, th*1000+i); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		} else {
			got := 0
			for got < threads*perThread {
				buf := make([]byte, 1)
				st, err := cw.Recv(buf, AnySource, AnyTag)
				if err != nil {
					t.Error(err)
					return
				}
				if st.Source != 0 {
					t.Errorf("wildcard matched source %d", st.Source)
					return
				}
				got++
			}
		}
		cw.Barrier()
	})
}

// --- Ablation: context count (the §IV.A hashing scheme) ---

// benchContexts reports benchBurst's message rate with `contexts` PAMI
// contexts per process, over which the (dest, comm) hash spreads the
// burst's three destinations.
func benchContexts(b *testing.B, contexts int) {
	b.Helper()
	rate, err := benchBurst(contexts, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rate, "MMPS")
}

// benchBurst boots a 4-node machine once and runs reps bursts in which
// rank 0 exchanges a fixed window of messages round-robin with the three
// other ranks; with several contexts the (destination, communicator)
// hash spreads the traffic, with one context everything serializes on a
// single reception FIFO and lock. One burst per b.N keeps the work per
// benchmark iteration constant, so the controller's ramping behaves.
func benchBurst(contexts, reps int) (float64, error) {
	const window = 100 // messages per destination per burst
	m, err := machine.New(machine.Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 1})
	if err != nil {
		return 0, err
	}
	var rate float64
	var runErr error
	m.Run(func(p *cnk.Process) {
		w, err := Init(m, p, Options{Library: ThreadOptimized, Contexts: contexts, DisableCommThreads: true})
		if err != nil {
			runErr = err
			return
		}
		defer w.Finalize()
		cw := w.CommWorld()
		cw.Barrier()
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			var reqs []*Request
			if w.Rank() != 0 {
				for i := 0; i < window; i++ {
					r, err := cw.Irecv(make([]byte, 8), 0, i)
					if err != nil {
						runErr = err
						return
					}
					reqs = append(reqs, r)
				}
			} else {
				for i := 0; i < window; i++ {
					for dst := 1; dst < 4; dst++ {
						r, err := cw.Isend(make([]byte, 8), dst, i)
						if err != nil {
							runErr = err
							return
						}
						reqs = append(reqs, r)
					}
				}
			}
			w.Waitall(reqs)
			cw.Barrier()
		}
		if w.Rank() == 0 {
			rate = float64(3*window*reps) / time.Since(start).Seconds() / 1e6
		}
	})
	return rate, runErr
}

func BenchmarkAblationOneContext(b *testing.B)   { benchContexts(b, 1) }
func BenchmarkAblationFourContexts(b *testing.B) { benchContexts(b, 4) }
