package mpilib

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// runMPI boots a machine and runs body on every process with an
// initialized World; panics inside body fail the test.
func runMPI(t *testing.T, dims torus.Dims, ppn int, opts Options, body func(w *World)) {
	t.Helper()
	m, err := machine.New(machine.Config{Dims: dims, PPN: ppn})
	if err != nil {
		t.Fatal(err)
	}
	var fail sync.Once
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
		w.Finalize()
	})
}

func TestInitBasics(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		if w.Size() != 4 {
			t.Errorf("size = %d", w.Size())
		}
		if w.Rank() < 0 || w.Rank() >= 4 {
			t.Errorf("rank = %d", w.Rank())
		}
		cw := w.CommWorld()
		if cw.Rank() != w.Rank() || cw.Size() != 4 {
			t.Error("world communicator identity wrong")
		}
		if !cw.Optimized() {
			t.Error("COMM_WORLD should hold the machine classroute")
		}
	})
}

func TestPingPongBlocking(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		msg := []byte("ping pong payload")
		if w.Rank() == 0 {
			if err := cw.Send(msg, 1, 7); err != nil {
				panic(err)
			}
			buf := make([]byte, len(msg))
			st, err := cw.Recv(buf, 1, 8)
			if err != nil {
				panic(err)
			}
			if !bytes.Equal(buf, msg) || st.Source != 1 || st.Tag != 8 || st.Count != len(msg) {
				t.Errorf("pong wrong: %q %+v", buf, st)
			}
		} else {
			buf := make([]byte, len(msg))
			if _, err := cw.Recv(buf, 0, 7); err != nil {
				panic(err)
			}
			if err := cw.Send(buf, 0, 8); err != nil {
				panic(err)
			}
		}
	})
}

// TestPAMIFasterThanMPI checks the relative claim behind Tables 1-2: a
// 0 B PAMI SendImmediate half round trip beats MPI's Send/Recv, which pays
// request and matching overheads on top. The two ping-pongs alternate in
// blocks on one machine and one context, so a slow spell of the host slows
// both sides together; the medians of the blocks are compared.
func TestPAMIFasterThanMPI(t *testing.T) {
	const blocks, trips = 11, 300
	const dispatchPAMI = 2
	var pami, mpi []time.Duration
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		ctx := w.ctxs[0]
		peer := 1 - w.Rank()
		var got, want int64 // the handler runs on this rank's advancing thread
		arrived := func() bool { return got >= want }
		if err := ctx.RegisterDispatch(dispatchPAMI, func(*core.Context, *core.Delivery) { got++ }); err != nil {
			panic(err)
		}
		pamiSend := func() {
			if err := ctx.SendImmediate(core.Endpoint{Task: peer}, dispatchPAMI, nil, nil); err != nil {
				panic(err)
			}
		}
		pamiRecv := func() {
			want = got + 1
			ctx.AdvanceUntil(arrived)
		}
		mpiSend := func() {
			if err := cw.Send(nil, peer, 0); err != nil {
				panic(err)
			}
		}
		mpiRecv := func() {
			if _, err := cw.Recv(nil, peer, 0); err != nil {
				panic(err)
			}
		}
		// halfRoundTrip times one block of trips from rank 0.
		halfRoundTrip := func(send, recv func()) time.Duration {
			cw.Barrier()
			start := time.Now()
			for i := 0; i < trips; i++ {
				if w.Rank() == 0 {
					send()
					recv()
				} else {
					recv()
					send()
				}
			}
			return time.Since(start) / (2 * trips)
		}
		for b := 0; b < blocks; b++ {
			var p, m time.Duration
			if b%2 == 0 {
				p = halfRoundTrip(pamiSend, pamiRecv)
				m = halfRoundTrip(mpiSend, mpiRecv)
			} else {
				m = halfRoundTrip(mpiSend, mpiRecv)
				p = halfRoundTrip(pamiSend, pamiRecv)
			}
			if w.Rank() == 0 {
				pami, mpi = append(pami, p), append(mpi, m)
			}
		}
	})
	slices.Sort(pami)
	slices.Sort(mpi)
	p, m := pami[blocks/2], mpi[blocks/2]
	t.Logf("median half round trip: PAMI %v, MPI %v", p, m)
	if p >= m {
		t.Errorf("PAMI median half round trip %v should be below MPI's %v\nPAMI blocks %v\nMPI blocks  %v", p, m, pami, mpi)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		n := w.Size()
		const msgs = 8
		var reqs []*Request
		recvBufs := make([][]byte, 0, (n-1)*msgs)
		for src := 0; src < n; src++ {
			if src == w.Rank() {
				continue
			}
			for k := 0; k < msgs; k++ {
				buf := make([]byte, 16)
				r, err := cw.Irecv(buf, src, k)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
				recvBufs = append(recvBufs, buf)
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == w.Rank() {
				continue
			}
			for k := 0; k < msgs; k++ {
				payload := []byte(fmt.Sprintf("r%02dk%02d........", w.Rank(), k))
				r, err := cw.Isend(payload[:16], dst, k)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
			}
		}
		w.Waitall(reqs)
		for _, b := range recvBufs {
			if b[0] != 'r' {
				t.Errorf("rank %d: unfilled receive buffer %q", w.Rank(), b)
				return
			}
		}
	})
}

func TestMPIOrderingSameTag(t *testing.T) {
	// Messages between a pair with equal envelopes must arrive in send
	// order (the paper's deterministic-routing + context-pinning claim).
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		const n = 50
		if w.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := cw.Send([]byte{byte(i)}, 1, 3); err != nil {
					panic(err)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				if _, err := cw.Recv(buf, 0, 3); err != nil {
					panic(err)
				}
				if buf[0] != byte(i) {
					t.Errorf("message %d arrived out of order (got %d)", i, buf[0])
					return
				}
			}
		}
	})
}

func TestWildcardSourceAndTag(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		if w.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < w.Size()-1; i++ {
				buf := make([]byte, 8)
				st, err := cw.Recv(buf, AnySource, AnyTag)
				if err != nil {
					panic(err)
				}
				if seen[st.Source] {
					t.Errorf("source %d seen twice", st.Source)
				}
				seen[st.Source] = true
				if st.Tag != 100+st.Source {
					t.Errorf("tag %d from %d", st.Tag, st.Source)
				}
			}
			if hits, _ := w.mach.Telemetry().Snapshot().Counter("mpi.rank0.match_hits"); hits != int64(w.Size()-1) {
				t.Errorf("%d wildcard receives counted %d match hits", w.Size()-1, hits)
			}
		} else {
			if err := cw.Send([]byte("hello000"), 0, 100+w.Rank()); err != nil {
				panic(err)
			}
		}
	})
}

func TestUnexpectedEagerMessages(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		if w.Rank() == 0 {
			// Send before the receiver posts: must land unexpected.
			for i := 0; i < 5; i++ {
				if err := cw.Send([]byte{byte(10 + i)}, 1, i); err != nil {
					panic(err)
				}
			}
			cw.Barrier()
		} else {
			cw.Barrier() // all sends are in flight / unexpected now
			// Drain progress so the unexpected queue fills.
			for posted, un := w.QueueDepths(); un < 5; _, un = w.QueueDepths() {
				_ = posted
				w.progress()
			}
			// Receive in reverse tag order: matching is by tag, not arrival.
			for i := 4; i >= 0; i-- {
				buf := make([]byte, 1)
				st, err := cw.Recv(buf, 0, i)
				if err != nil {
					panic(err)
				}
				if buf[0] != byte(10+i) || st.Count != 1 {
					t.Errorf("tag %d: got %d", i, buf[0])
				}
			}
		}
	})
}

func TestUnexpectedRendezvous(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{EagerLimit: 64}, func(w *World) {
		cw := w.CommWorld()
		payload := make([]byte, 4096) // rendezvous at EagerLimit=64
		for i := range payload {
			payload[i] = byte(i * 11)
		}
		if w.Rank() == 0 {
			req, err := cw.Isend(payload, 1, 9)
			if err != nil {
				panic(err)
			}
			cw.Barrier() // receiver has not posted: RTS parks unexpected
			w.Wait(req)
			req.Free()
		} else {
			cw.Barrier()
			buf := make([]byte, len(payload))
			st, err := cw.Recv(buf, 0, 9)
			if err != nil {
				panic(err)
			}
			if !bytes.Equal(buf, payload) || st.Count != len(payload) {
				t.Error("unexpected rendezvous payload corrupted")
			}
		}
	})
}

func TestRecvTruncation(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		if w.Rank() == 0 {
			cw.Send([]byte("0123456789"), 1, 0)
		} else {
			buf := make([]byte, 4)
			st, _ := cw.Recv(buf, 0, 0)
			if st.Count != 4 || string(buf) != "0123" {
				t.Errorf("truncation wrong: %q count=%d", buf, st.Count)
			}
		}
	})
}

func TestSendRecvExchange(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		peer := w.Rank() ^ 1
		out := []byte(fmt.Sprintf("from%02d", w.Rank()))
		in := make([]byte, len(out))
		st, err := cw.SendRecv(out, peer, 5, in, peer, 5)
		if err != nil {
			panic(err)
		}
		want := fmt.Sprintf("from%02d", peer)
		if string(in) != want || st.Source != peer {
			t.Errorf("rank %d: got %q from %d", w.Rank(), in, st.Source)
		}
	})
}

func TestProbe(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		if w.Rank() == 0 {
			cw.Send([]byte("probe me"), 1, 42)
			cw.Barrier()
		} else {
			for {
				if st, ok := cw.Probe(AnySource, AnyTag); ok {
					if st.Tag != 42 || st.Count != 8 {
						t.Errorf("probe status %+v", st)
					}
					break
				}
			}
			buf := make([]byte, 8)
			cw.Recv(buf, 0, 42)
			cw.Barrier()
		}
	})
}

func TestValidationErrors(t *testing.T) {
	runMPI(t, torus.Dims{1, 1, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		if _, err := cw.Isend(nil, 99, 0); err == nil {
			t.Error("send to invalid rank accepted")
		}
		if _, err := cw.Isend(nil, 0, -3); err == nil {
			t.Error("negative tag accepted")
		}
		if _, err := cw.Irecv(nil, 99, 0); err == nil {
			t.Error("recv from invalid rank accepted")
		}
	})
}

func TestThreadModesAllWork(t *testing.T) {
	for _, lib := range []Library{Classic, ThreadOptimized} {
		for _, mode := range []ThreadMode{ThreadSingle, ThreadMultiple} {
			name := fmt.Sprintf("%v-%v", lib, mode)
			opts := Options{Library: lib, ThreadMode: mode, DisableCommThreads: true}
			t.Run(name, func(t *testing.T) {
				runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
					cw := w.CommWorld()
					if w.Rank() == 0 {
						cw.Send([]byte("x"), 1, 0)
					} else {
						buf := make([]byte, 1)
						cw.Recv(buf, 0, 0)
					}
					cw.Barrier()
				})
			})
		}
	}
}

func TestCommThreadsDriveMPI(t *testing.T) {
	opts := Options{Library: ThreadOptimized, ThreadMode: ThreadMultiple}
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
		if !w.CommThreadsEnabled() {
			t.Error("THREAD_MULTIPLE did not enable commthreads")
			return
		}
		cw := w.CommWorld()
		const msgs = 64
		if w.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < msgs; i++ {
				r, err := cw.Isend([]byte{byte(i)}, 1, i)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
			}
			w.Waitall(reqs)
		} else {
			var reqs []*Request
			bufs := make([][]byte, msgs)
			for i := 0; i < msgs; i++ {
				bufs[i] = make([]byte, 1)
				r, err := cw.Irecv(bufs[i], 0, i)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
			}
			w.Waitall(reqs)
			for i, b := range bufs {
				if b[0] != byte(i) {
					t.Errorf("msg %d corrupted", i)
					return
				}
			}
		}
		cw.Barrier()
	})
}

func TestCollectivesWorld(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 2, Options{}, func(w *World) {
		cw := w.CommWorld()
		// Allreduce double sum — the paper's headline collective.
		sum, err := cw.AllreduceFloat64([]float64{float64(w.Rank())}, collnet.OpAdd)
		if err != nil {
			panic(err)
		}
		n := float64(w.Size())
		if sum[0] != n*(n-1)/2 {
			t.Errorf("allreduce sum = %v", sum[0])
		}
		// Reduce max to root 2.
		recv := make([]byte, 8)
		if err := cw.Reduce(collnet.EncodeInt64s([]int64{int64(w.Rank())}), recv, collnet.OpMax, collnet.Int64, 2); err != nil {
			panic(err)
		}
		if w.Rank() == 2 {
			if got := collnet.DecodeInt64s(recv)[0]; got != int64(w.Size()-1) {
				t.Errorf("reduce max = %d", got)
			}
		}
		// Bcast from 3.
		buf := make([]byte, 32)
		if w.Rank() == 3 {
			copy(buf, "bcast from rank three 0123456789")
		}
		if err := cw.Bcast(buf, 3); err != nil {
			panic(err)
		}
		if string(buf[:5]) != "bcast" {
			t.Errorf("bcast corrupt: %q", buf)
		}
	})
}

func TestAllgather(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		mine := []byte{byte('A' + w.Rank()), byte(w.Rank())}
		all := make([]byte, 2*w.Size())
		if err := cw.Allgather(mine, all); err != nil {
			panic(err)
		}
		for r := 0; r < w.Size(); r++ {
			if all[2*r] != byte('A'+r) || all[2*r+1] != byte(r) {
				t.Errorf("allgather slot %d = %v", r, all[2*r:2*r+2])
				return
			}
		}
	})
}

func TestCommSplitAndCollectives(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		color := w.Rank() % 2
		sub, err := cw.Split(color, w.Rank())
		if err != nil {
			panic(err)
		}
		if sub.Size() != w.Size()/2 {
			t.Errorf("split size %d", sub.Size())
		}
		sum, err := sub.AllreduceInt64([]int64{int64(w.Rank())}, collnet.OpAdd)
		if err != nil {
			panic(err)
		}
		want := int64(0)
		for r := color; r < w.Size(); r += 2 {
			want += int64(r)
		}
		if sum[0] != want {
			t.Errorf("sub allreduce = %d, want %d", sum[0], want)
		}
		// Point-to-point inside the subcommunicator.
		if sub.Size() >= 2 {
			if sub.Rank() == 0 {
				sub.Send([]byte{0xAB}, 1, 0)
			} else if sub.Rank() == 1 {
				buf := make([]byte, 1)
				st, _ := sub.Recv(buf, 0, 0)
				if buf[0] != 0xAB || st.Source != 0 {
					t.Error("sub-communicator pt2pt broken")
				}
			}
		}
		sub.Free()
	})
}

func TestCommSplitUndefined(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		color := -1
		if w.Rank() == 0 {
			color = 0
		}
		sub, err := cw.Split(color, 0)
		if err != nil {
			panic(err)
		}
		if w.Rank() == 0 {
			if sub == nil || sub.Size() != 1 {
				t.Error("rank 0 should get a singleton communicator")
			}
		} else if sub != nil {
			t.Error("MPI_UNDEFINED rank got a communicator")
		}
	})
}

func TestCommDup(t *testing.T) {
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		dup, err := cw.Dup()
		if err != nil {
			panic(err)
		}
		if dup.Rank() != cw.Rank() || dup.Size() != cw.Size() {
			t.Error("dup group differs")
		}
		// Traffic on dup must not interfere with world.
		if w.Rank() == 0 {
			dup.Send([]byte{1}, 1, 0)
			cw.Send([]byte{2}, 1, 0)
		} else {
			b1, b2 := make([]byte, 1), make([]byte, 1)
			cw.Recv(b2, 0, 0)
			dup.Recv(b1, 0, 0)
			if b1[0] != 1 || b2[0] != 2 {
				t.Error("communicator isolation broken")
			}
		}
		dup.Free()
	})
}

func TestMPIXOptimizeDeoptimize(t *testing.T) {
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 1, Options{}, func(w *World) {
		cw := w.CommWorld()
		// Split into two rectangular halves (A=0 and A=1 planes).
		color := w.Rank() / 2
		sub, err := cw.Split(color, w.Rank())
		if err != nil {
			panic(err)
		}
		if err := sub.Optimize(); err != nil {
			t.Errorf("rectangular half failed to optimize: %v", err)
		}
		if !sub.Optimized() {
			t.Error("not optimized")
		}
		sum, err := sub.AllreduceInt64([]int64{1}, collnet.OpAdd)
		if err != nil {
			panic(err)
		}
		if sum[0] != int64(sub.Size()) {
			t.Errorf("optimized sub allreduce = %d", sum[0])
		}
		sub.Deoptimize()
		if sub.Optimized() {
			t.Error("still optimized")
		}
		sum, err = sub.AllreduceInt64([]int64{1}, collnet.OpAdd)
		if err != nil {
			panic(err)
		}
		if sum[0] != int64(sub.Size()) {
			t.Errorf("deoptimized sub allreduce = %d", sum[0])
		}
		sub.Free()
	})
}

func TestMultiContextHashingPreservesOrdering(t *testing.T) {
	// With several contexts, messages to one destination must still be
	// ordered (pinned by the (dest, comm) hash).
	opts := Options{Library: ThreadOptimized, Contexts: 4}
	runMPI(t, torus.Dims{2, 1, 1, 1, 1}, 1, opts, func(w *World) {
		cw := w.CommWorld()
		const n = 100
		if w.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := cw.Send([]byte{byte(i)}, 1, 0); err != nil {
					panic(err)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				cw.Recv(buf, 0, 0)
				if buf[0] != byte(i) {
					t.Errorf("multi-context ordering broken at %d (got %d)", i, buf[0])
					return
				}
			}
		}
	})
}

func TestRandomStormAllToAll(t *testing.T) {
	// Integration stress: every rank sends a deterministic pattern to
	// every other rank with mixed sizes crossing the eager/rendezvous
	// boundary; everything must arrive intact.
	opts := Options{EagerLimit: 256}
	runMPI(t, torus.Dims{2, 2, 1, 1, 1}, 2, opts, func(w *World) {
		cw := w.CommWorld()
		n := w.Size()
		sizes := []int{1, 64, 256, 257, 1024, 5000}
		var reqs []*Request
		type rk struct{ src, k int }
		recvs := map[rk][]byte{}
		for src := 0; src < n; src++ {
			if src == w.Rank() {
				continue
			}
			for k, sz := range sizes {
				buf := make([]byte, sz)
				r, err := cw.Irecv(buf, src, k)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
				recvs[rk{src, k}] = buf
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == w.Rank() {
				continue
			}
			for k, sz := range sizes {
				buf := make([]byte, sz)
				for i := range buf {
					buf[i] = byte(w.Rank()*31 + k*7 + i)
				}
				r, err := cw.Isend(buf, dst, k)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, r)
			}
		}
		w.Waitall(reqs)
		for key, buf := range recvs {
			for i := range buf {
				if buf[i] != byte(key.src*31+key.k*7+i) {
					t.Errorf("rank %d: payload from %d tag %d corrupt at byte %d", w.Rank(), key.src, key.k, i)
					return
				}
			}
		}
		cw.Barrier()
	})
}
