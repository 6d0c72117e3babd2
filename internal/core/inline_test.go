package core

import (
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pamigo/internal/bufpool"
	"pamigo/internal/torus"
)

// fanInStream sends messages [from, to) from sctx to dst as 8 B
// SendImmediateBuf carrying their sequence number, staying at most window
// ahead of seen, the count of them the consumer has dispatched.
func fanInStream(t *testing.T, sctx *Context, dst Endpoint, seen *atomic.Int64, window, from, to int64) {
	var payload [8]byte
	for seq := from; seq < to; seq++ {
		for seq-seen.Load() >= window {
			runtime.Gosched()
		}
		binary.LittleEndian.PutUint64(payload[:], uint64(seq))
		if err := sctx.SendImmediateBuf(dst, 1, nil, bufpool.GetCopy(payload[:])); err != nil {
			t.Errorf("task %d, message %d: %v", sctx.Endpoint().Task, seq, err)
			return
		}
	}
}

// TestFanInNoPoolTraffic closes ROADMAP 5(e): in steady state a
// many-to-one stream of small ownership-transfer sends moves no slab
// between cores and allocates nothing. Four producers on four nodes
// stream 8 B SendImmediateBuf into one consumer on two Ps; each message
// is copied into its reception-FIFO element by the sender, which gets
// its slab back on the spot, so every producer keeps reusing the slab
// its own P holds and no queued message holds one. Before, the slab
// travelled with the message and was released into the consumer's P's
// pool — as many slabs out as messages queued, and at the benchmark's
// queue depths 7-9 pool misses per thousand messages, each refilled by
// allocating.
func TestFanInNoPoolTraffic(t *testing.T) {
	if raceBuild || bufpool.DebugEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts and the detector allocates; bufpooldebug never repools")
	}
	const (
		window = 64 // a producer's lead over the consumer: far below the throttle, which allocates its error
		warm   = 5_000
		msgs   = 25_000 // per producer, after the warm-up
	)
	// Tasks 1, 6, 11 and 16 hash onto the four shards of task 0's
	// reception FIFO (mu.RecFIFO.shardFor).
	origins := []int{1, 6, 11, 16}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// A collection empties the pools; its misses would be the
	// collector's, not the message path's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	m := newTestMachine(t, torus.Dims{3, 3, 2, 1, 1}, 1)
	defer m.Shutdown()
	_, rctx := newClientCtx(t, m, 0)
	seen := make([]atomic.Int64, m.Tasks()) // by origin: dispatched so far
	var bad int
	rctx.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		c := &seen[d.Origin.Task]
		if len(d.Data) != 8 || int64(binary.LittleEndian.Uint64(d.Data)) != c.Load() {
			bad++
		}
		c.Add(1)
	})
	dst := rctx.Endpoint()

	// Three phases, the producers parked between them: a window's worth
	// queued with nobody consuming, the warm-up, the measured stream.
	var phase [3]sync.WaitGroup
	var start [3]chan struct{}
	live0, _ := bufpool.Live()
	for i := range phase {
		phase[i].Add(len(origins))
		start[i] = make(chan struct{})
	}
	for _, o := range origins {
		_, sctx := newClientCtx(t, m, o)
		go func(o int) {
			// Stock this P's pool shard past anything preemption between a
			// Get and its Release can drain.
			var stock [8]*bufpool.Buf
			for i := range stock {
				stock[i] = bufpool.Get(8)
			}
			for _, b := range stock {
				b.Release()
			}
			from := int64(0)
			for i, upTo := range []int64{window, warm, warm + msgs} {
				<-start[i]
				fanInStream(t, sctx, dst, &seen[o], window, from, upTo)
				from = upTo
				phase[i].Done()
			}
		}(o)
	}
	consume := func(upTo int64) {
		for more := true; more; {
			if rctx.Advance(64) == 0 {
				runtime.Gosched()
			}
			more = false
			for _, o := range origins {
				more = more || seen[o].Load() < upTo
			}
		}
	}

	close(start[0])
	phase[0].Wait()
	queued, _ := rctx.muRes.Rec.Occupancy()
	if live, _ := bufpool.Live(); queued != int64(len(origins)*window) || live != live0 {
		t.Errorf("%d messages queued hold %d slabs, want %d holding none", queued, live-live0, len(origins)*window)
	}
	close(start[1])
	consume(warm)
	phase[1].Wait()

	var before, after runtime.MemStats
	misses0 := bufpool.Misses()
	runtime.ReadMemStats(&before)
	close(start[2])
	consume(warm + msgs)
	phase[2].Wait()
	runtime.ReadMemStats(&after)

	total := int64(len(origins) * msgs)
	if misses := bufpool.Misses() - misses0; misses != 0 {
		t.Errorf("%d pool misses over %d messages (%.2f per thousand), want 0", misses, total, float64(misses)*1e3/float64(total))
	}
	// AllocsPerRun's integer average would hide a slab allocated every few
	// messages; allow one allocation per ten thousand for the runtime's own.
	if allocs := int64(after.Mallocs - before.Mallocs); allocs*10_000 > total {
		t.Errorf("%d allocations over %d messages (%.4f per message), want 0", allocs, total, float64(allocs)/float64(total))
	}
	if live, _ := bufpool.Live(); live != live0 {
		t.Errorf("%d pooled buffers live, %d before", live, live0)
	}
	if bad != 0 {
		t.Errorf("%d messages mangled or out of sequence", bad)
	}
}

// TestFanInStragglersDoNotSpin: a fixed-count fan-in ends with the
// receiver ahead of its last senders, polling a FIFO whose head ticket is
// claimed but not yet published — its producer lost the P between the
// two, queued on the shard's overflow lock behind another producer of the
// same shard. AdvanceUntil sleeps on the generation its last short pass
// recorded, and the producer's touch after its publish wakes it; a
// receiver that instead polled the stuck FIFO without handing the
// producer the P stalled for seconds with the rest of the machine
// waiting in the closing barrier, and counted tens of millions of
// advances for 120 k messages. A healthy run counts a fiftieth of an
// advance per message. Tasks 1, 2 and 3 hash onto one shard and task 6
// onto another (mu.RecFIFO.shardFor): TestFanInNoPoolTraffic's origins,
// one per shard, never queue on each other's lock and never stall.
func TestFanInStragglersDoNotSpin(t *testing.T) {
	const window, runs = 1024, 12
	msgs := int64(30_000)
	if bufpool.DebugEnabled {
		// Every released slab keeps its stack for the life of the process,
		// kilobytes a message. This run checks the fan-in's buffer
		// ownership; it is too short for the advance bound, which one
		// ~10 ms preemption stall of an otherwise healthy run exceeds.
		msgs = 500
	}
	origins := []int{1, 2, 3, 6}
	total := int64(len(origins)) * msgs
	var advances atomic.Int64
	for r := 0; r < runs; r++ {
		seen := make([]atomic.Int64, 18)
		runJob(t, torus.Dims{3, 3, 2, 1, 1}, 1, func(g *Geometry, ctx *Context) {
			var got int64 // the handler runs on the receiver's own thread
			ctx.RegisterDispatch(1, func(_ *Context, d *Delivery) {
				seen[d.Origin.Task].Add(1)
				got++
			})
			g.Barrier()
			switch me := ctx.Endpoint().Task; {
			case me == 0:
				ctx.AdvanceUntil(func() bool { return got >= total || t.Failed() })
				a, _, _ := ctx.Stats()
				advances.Add(a)
			case slices.Contains(origins, me):
				fanInStream(t, ctx, Endpoint{Task: 0}, &seen[me], window, 0, msgs)
			}
			g.Barrier()
		}).Shutdown()
	}
	t.Logf("%d advances for %d messages", advances.Load(), int64(runs)*total)
	if msgs := int64(runs) * total; advances.Load() > 2*msgs && !bufpool.DebugEnabled {
		t.Errorf("%d advances for %d messages: the receiver spun on an unpublished FIFO head", advances.Load(), msgs)
	}
}

// TestRetainedInlineViewIsPoisoned: the DispatchFn contract forbids
// keeping d.Data or d.Meta past the call, and for an inline message the
// bytes behind them are the context's drain scratch, overwritten by the
// next packet drained into the same element — a violator reads someone
// else's message. Under -tags bufpooldebug the element is filled with
// 0xDB as soon as the handler returns, so the violation reads poison
// from the first message on; without the tag the test pins what the
// violator would see instead.
func TestRetainedInlineViewIsPoisoned(t *testing.T) {
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	defer m.Shutdown()
	_, sctx := newClientCtx(t, m, 0)
	_, rctx := newClientCtx(t, m, 1)
	var keptData, keptMeta []byte
	calls := 0
	rctx.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		if calls++; calls == 1 {
			keptData, keptMeta = d.Data, d.Meta // the violation
			if string(keptData) != "payload1" || string(keptMeta) != "envelope" {
				t.Errorf("inside the call the views read %q / %q", keptMeta, keptData)
			}
		}
	})
	send := func(meta, data string) {
		t.Helper()
		if err := sctx.SendImmediate(rctx.Endpoint(), 1, []byte(meta), []byte(data)); err != nil {
			t.Fatal(err)
		}
		for want := calls + 1; calls < want; {
			rctx.Advance(1)
		}
	}
	send("envelope", "payload1")
	if bufpool.DebugEnabled {
		for _, b := range append(append([]byte(nil), keptMeta...), keptData...) {
			if b != 0xDB {
				t.Fatalf("kept views read %q / %q after the handler returned, want 0xDB poison", keptMeta, keptData)
			}
		}
		return
	}
	send("ENVELOPE", "PAYLOAD2")
	if string(keptData) != "PAYLOAD2" || string(keptMeta) != "ENVELOPE" {
		t.Fatalf("kept views read %q / %q: not the drain scratch the next message overwrote", keptMeta, keptData)
	}
}

// TestShmemFanInNoPoolTraffic is TestFanInNoPoolTraffic on the
// shared-memory device: one node at PPN 4, three producers streaming 8 B
// SendImmediateBuf into the fourth task. The node's queue carries the
// reception-FIFO element, so the sender copies each message into it and
// gets its slab back on the spot: queued messages hold no slab, and the
// steady state never misses the pool. When the queue carried its own
// element, every queued message held its slab until the consumer
// released it, on the consumer's P.
func TestShmemFanInNoPoolTraffic(t *testing.T) {
	if raceBuild || bufpool.DebugEnabled {
		t.Skip("under -race sync.Pool drops a quarter of its Puts; bufpooldebug never repools")
	}
	const window, warm, msgs = 64, 5_000, 25_000
	origins := []int{0, 1, 2}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 4)
	defer m.Shutdown()
	_, rctx := newClientCtx(t, m, 3)
	seen := make([]atomic.Int64, m.Tasks())
	var bad int
	rctx.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		c := &seen[d.Origin.Task]
		if len(d.Data) != 8 || int64(binary.LittleEndian.Uint64(d.Data)) != c.Load() {
			bad++
		}
		c.Add(1)
	})
	var phase [3]sync.WaitGroup
	var start [3]chan struct{}
	for i := range phase {
		phase[i].Add(len(origins))
		start[i] = make(chan struct{})
	}
	live0, _ := bufpool.Live()
	for _, o := range origins {
		_, sctx := newClientCtx(t, m, o)
		go func(o int) {
			from := int64(0)
			for i, upTo := range []int64{window, warm, warm + msgs} {
				<-start[i]
				fanInStream(t, sctx, rctx.Endpoint(), &seen[o], window, from, upTo)
				from = upTo
				phase[i].Done()
			}
		}(o)
	}
	consume := func(upTo int64) {
		for more := true; more; {
			if rctx.Advance(64) == 0 {
				runtime.Gosched()
			}
			more = false
			for _, o := range origins {
				more = more || seen[o].Load() < upTo
			}
		}
	}

	close(start[0])
	phase[0].Wait()
	if queued, live := rctx.shmDev.Pressure(), liveBufs(); queued != int64(len(origins)*window) || live != live0 {
		t.Errorf("%d messages queued hold %d slabs, want %d holding none", queued, live-live0, len(origins)*window)
	}
	close(start[1])
	consume(warm)
	phase[1].Wait()

	misses0 := bufpool.Misses()
	close(start[2])
	consume(warm + msgs)
	phase[2].Wait()
	if misses := bufpool.Misses() - misses0; misses != 0 {
		t.Errorf("%d pool misses over %d messages, want 0", misses, len(origins)*msgs)
	}
	if live := liveBufs(); live != live0 {
		t.Errorf("%d pooled buffers live, %d before", live, live0)
	}
	if bad != 0 {
		t.Errorf("%d messages mangled or out of sequence", bad)
	}
}

func liveBufs() int64 { n, _ := bufpool.Live(); return n }

// An intra-node eager DataBuf travels as one shared-memory element that
// views the sender's slab: the handler's d.Data is that slab, with no
// reassembly and no copy, at a size the MU would cut into eight packets.
func TestShmemEagerDataBufAliasesSlab(t *testing.T) {
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 2)
	defer m.Shutdown()
	_, sctx := newClientCtx(t, m, 0)
	_, rctx := newClientCtx(t, m, 1)
	b := bufpool.Get(4096)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	slab := &b.Bytes()[0]
	var got *byte
	rctx.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		if len(d.Data) == 4096 && d.Data[4095] == byte(4095%256) {
			got = &d.Data[0]
		}
	})
	if err := sctx.Send(SendParams{Dest: rctx.Endpoint(), Dispatch: 1, Meta: []byte("env"), DataBuf: b, Mode: ModeEager}); err != nil {
		t.Fatal(err)
	}
	if n := rctx.shmDev.Received(); n != 1 {
		t.Fatalf("%d shared-memory elements for one 4 KiB message, want 1", n)
	}
	rctx.Advance(64)
	if got == nil {
		t.Fatal("the message was not dispatched whole and intact")
	}
	if got != slab {
		t.Fatal("d.Data does not alias the sender's slab: the payload was copied")
	}
	if len(rctx.reasm) != 0 {
		t.Fatalf("%d reassemblies open for a whole message", len(rctx.reasm))
	}
}
