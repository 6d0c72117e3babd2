package mpilib

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/cnk"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// runBounded boots a 2-node machine at PPN 1 and runs body on both ranks
// with an initialized World (no Finalize), failing the test instead of
// hanging if the ranks are not back within limit.
func runBounded(t *testing.T, cfg machine.Config, opts Options, limit time.Duration, body func(w *World)) {
	t.Helper()
	cfg.Dims, cfg.PPN = torus.Dims{2, 1, 1, 1, 1}, 1
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	done := make(chan struct{})
	var fail sync.Once
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			defer func() {
				if r := recover(); r != nil {
					fail.Do(func() { t.Errorf("rank %d panicked: %v", p.TaskRank(), r) })
				}
			}()
			w, err := Init(m, p, opts)
			if err != nil {
				panic(err)
			}
			body(w)
		})
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("ranks not back after %v: a wait hung", limit)
	}
}

// TestWaitStallAborts: a Recv that no peer will satisfy — rank 1 is alive
// but asleep — is cut loose by the armed stall sentinel at mpilib.wait
// with a deadline cause, and the World's next wait fails at once with the
// same cause. Both receives are withdrawn from matching: when rank 1
// wakes and sends, its messages are filed as unexpected and the buffer
// rank 0 got back stays untouched. Both builds: classic at
// MPI_THREAD_SINGLE (the waiter drives progress) and thread-optimized at
// MPI_THREAD_MULTIPLE (commthreads do).
func TestWaitStallAborts(t *testing.T) {
	const stallDeadline = 100 * time.Millisecond
	for _, opts := range []Options{
		{ThreadMode: ThreadSingle, Library: Classic},
		{ThreadMode: ThreadMultiple, Library: ThreadOptimized},
	} {
		t.Run(opts.Library.String(), func(t *testing.T) {
			var first, again error
			var took, tookAgain time.Duration
			var late []byte
			commthreads, filed := false, false
			runBounded(t, machine.Config{StallDeadline: stallDeadline}, opts, 10*time.Second, func(w *World) {
				cw := w.CommWorld()
				if w.Rank() == 1 {
					time.Sleep(1500 * time.Millisecond)
					for i := 0; i < 2; i++ {
						if err := cw.Send([]byte("late msg"), 0, 0); err != nil {
							panic(err)
						}
					}
					return
				}
				commthreads = w.CommThreadsEnabled()
				buf := make([]byte, 8)
				start := time.Now()
				_, first = cw.Recv(buf, 1, 0)
				took = time.Since(start)
				start = time.Now()
				_, again = cw.Recv(buf, 1, 0)
				tookAgain = time.Since(start)
				// Probe drives progress without waiting; it sees the late
				// messages once they are filed as unexpected.
				for deadline := time.Now().Add(5 * time.Second); !filed && time.Now().Before(deadline); {
					if _, filed = cw.Probe(1, 0); !filed {
						time.Sleep(time.Millisecond)
					}
				}
				late = buf
			})
			if want := opts.ThreadMode == ThreadMultiple; commthreads != want {
				t.Fatalf("commthreads enabled = %v, want %v", commthreads, want)
			}
			var c *abort.Cause
			if !errors.As(first, &c) || c.Kind != abort.KindDeadline || c.Site != "mpilib.wait" {
				t.Fatalf("stalled Recv returned %v, want a deadline cause at mpilib.wait", first)
			}
			if took >= time.Second {
				t.Fatalf("stalled Recv took %v to abort, want < 1s", took)
			}
			if again != first {
				t.Fatalf("next Recv returned %v, want the latched cause %v", again, first)
			}
			if tookAgain > 50*time.Millisecond {
				t.Fatalf("next Recv took %v, want it to fail at once", tookAgain)
			}
			if !filed {
				t.Fatalf("rank 1's late messages never showed as unexpected")
			}
			if string(late) != "\x00\x00\x00\x00\x00\x00\x00\x00" {
				t.Fatalf("a late message landed in the aborted Recv's buffer: %q", late)
			}
			t.Logf("aborted after %v; next Recv failed in %v", took, tookAgain)
		})
	}
}

// TestSlowProgressNotAborted: with the stall sentinel armed, a Waitall
// whose receives complete one by one, each gap a quarter of the deadline,
// over more than twice the deadline, keeps moving and so completes
// without a cause: a wait's park measures one idle stretch, not the sum
// of them.
func TestSlowProgressNotAborted(t *testing.T) {
	const stallDeadline = 100 * time.Millisecond
	const n = 10 // n gaps of stallDeadline/4: 2.5 deadlines
	for _, opts := range []Options{
		{ThreadMode: ThreadSingle, Library: Classic},
		{ThreadMode: ThreadMultiple, Library: ThreadOptimized},
	} {
		t.Run(opts.Library.String(), func(t *testing.T) {
			var got any
			var took time.Duration
			runBounded(t, machine.Config{StallDeadline: stallDeadline}, opts, 10*time.Second, func(w *World) {
				cw := w.CommWorld()
				if w.Rank() == 1 {
					for i := 0; i < n; i++ {
						time.Sleep(stallDeadline / 4)
						if err := cw.Send([]byte{byte(i)}, 0, i); err != nil {
							panic(err)
						}
					}
					return
				}
				reqs := make([]*Request, n)
				for i := range reqs {
					var err error
					if reqs[i], err = cw.Irecv(make([]byte, 1), 1, i); err != nil {
						panic(err)
					}
				}
				start := time.Now()
				func() {
					defer func() { got = recover() }()
					w.Waitall(reqs)
				}()
				took = time.Since(start)
			})
			if got != nil {
				t.Fatalf("Waitall of receives arriving every %v aborted after %v: %v", stallDeadline/4, took, got)
			}
			if took < 2*stallDeadline {
				t.Fatalf("Waitall took %v, want the receives spread over more than %v", took, 2*stallDeadline)
			}
		})
	}
}

// TestConcurrentSlowWaits: under MPI_THREAD_MULTIPLE several threads
// wait at once long enough to register at mpilib.wait, each with a park
// of its own, and all complete normally and leave the site with no
// waiter.
func TestConcurrentSlowWaits(t *testing.T) {
	const threads = 4
	opts := Options{ThreadMode: ThreadMultiple, Library: ThreadOptimized}
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
		cw := w.CommWorld()
		if w.Rank() == 1 {
			time.Sleep(50 * time.Millisecond) // every receiver's wait goes idle
			for tag := 0; tag < threads; tag++ {
				if err := cw.Send([]byte{byte(tag)}, 0, tag); err != nil {
					panic(err)
				}
			}
			return
		}
		var wg sync.WaitGroup
		for tag := 0; tag < threads; tag++ {
			wg.Add(1)
			go func(tag int) {
				defer wg.Done()
				buf := make([]byte, 1)
				if _, err := cw.Recv(buf, 1, tag); err != nil || buf[0] != byte(tag) {
					t.Errorf("Recv tag %d: %v, payload %d", tag, err, buf[0])
				}
			}(tag)
		}
		wg.Wait()
		for _, st := range w.mach.Sentinel().Table() {
			if st.Name == "mpilib.wait" && st.Waiters != 0 {
				t.Errorf("mpilib.wait has %d waiters after every wait returned", st.Waiters)
			}
		}
	})
}

// TestWaitallPanicsOnAbortedWorld: Waitall's signature is void, so on a
// World whose abort is latched it panics with the cause.
func TestWaitallPanicsOnAbortedWorld(t *testing.T) {
	cause := abort.Causef(abort.KindUser, "test.mpilib", "stop")
	var got any
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		if w.Rank() != 0 {
			return
		}
		r, err := w.CommWorld().Irecv(make([]byte, 1), 1, 0)
		if err != nil {
			panic(err)
		}
		w.latch(cause)
		func() {
			defer func() { got = recover() }()
			w.Waitall([]*Request{r})
		}()
		r.Free()
	})
	if got != cause {
		t.Fatalf("Waitall on an aborted World panicked with %v, want the cause %v", got, cause)
	}
}

// TestSendCancelledByDeath: a rendezvous send whose receiver's node is
// confirmed dead before it pulls the payload fails with mu.ErrPeerDead
// instead of reporting success.
func TestSendCancelledByDeath(t *testing.T) {
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=1") // never fires: arms the monitor
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	var took time.Duration
	cfg := machine.Config{Faults: &plan, FaultSeed: 7}
	runBounded(t, cfg, Options{}, 10*time.Second, func(w *World) {
		if w.Rank() != 0 {
			return // never receives
		}
		go func() {
			time.Sleep(50 * time.Millisecond)
			w.mach.Health().DeclareDead(1)
		}()
		start := time.Now()
		sendErr = w.CommWorld().Send(make([]byte, 64<<10), 1, 0)
		took = time.Since(start)
	})
	if !errors.Is(sendErr, mu.ErrPeerDead) {
		t.Fatalf("Send to a rank declared dead returned %v, want an error wrapping mu.ErrPeerDead", sendErr)
	}
	if took >= time.Second {
		t.Fatalf("Send took %v to fail, want < 1s", took)
	}
}
