package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/l2atomic"
	"pamigo/internal/lockless"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/recovery"
	"pamigo/internal/shmem"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
	"pamigo/internal/wire"
)

// The ladder times each layer's public functions from outside, one probe
// per rung. A probe function runs its operation n times; measure calls it
// for about two hundred samples and reports the median time of one
// operation, in ns. None of these numbers is gated: they explain the
// end-to-end ones.

// rung is one probe: it returns its metrics, which may be several when one
// set-up serves them.
type rung struct {
	layer  string
	probes int // measure calls the rung makes; its share of the ladder's time
	run    func(budget time.Duration) (map[string]float64, error)
}

// probeSamples is the number of samples a probe aims for.
const probeSamples = 200

// measure returns the median ns per operation of fn, spending about budget.
func measure(budget time.Duration, fn func(n int)) float64 {
	target := budget / probeSamples
	n := 1
	for n < 1<<24 {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= target {
			break
		}
		if d < target/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	samples := make([]float64, 0, probeSamples)
	deadline := time.Now().Add(budget)
	for len(samples) < probeSamples && (len(samples) < 5 || time.Now().Before(deadline)) {
		t0 := time.Now()
		fn(n)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// probeSink keeps the compiler from removing a probe's result.
var probeSink atomic.Int64

// ladder lists the rungs bottom-up. The host rungs are the calibration
// kernel: not a layer of the program, they tell a change of machine from a
// change of code.
func ladder() []rung {
	return []rung{
		{"host", 1, hostMemcpy},
		{"host", 1, hostAtomicAdd},
		{"host", 1, hostHandoff},
		{"telemetry", 2, telemetryProbes},
		{"bufpool", 3, bufpoolProbes},
		{"l2atomic", 3, l2atomicProbes},
		{"l2atomic", 1, l2atomicBarrier},
		{"lockless", 2, locklessProbes},
		{"lockless", 1, locklessContended},
		{"wakeup", 2, wakeupProbes},
		{"shmem", 1, shmemProbe},
		{"mu", 2, func(b time.Duration) (map[string]float64, error) { return muProbes(b, false) }},
		{"mu", 2, func(b time.Duration) (map[string]float64, error) { return muProbes(b, true) }},
		{"mu", 1, muRemoteGet},
		{"collnet", 2, collnetProbes},
		{"core", 3, coreProbes},
		{"wire", 2, wireProbes},
		{"recovery", 2, recoveryProbes},
		{"machine", 1, func(b time.Duration) (map[string]float64, error) {
			return machineBoot(b, "machine.boot_ms_2n", twoNodes)
		}},
		{"machine", 1, func(b time.Duration) (map[string]float64, error) {
			return machineBoot(b, "machine.boot_ms_9n", torus.Dims{3, 3, 1, 1, 1})
		}},
	}
}

// runLadder runs every rung, giving each probe an equal share of budget, and
// merges their values.
func runLadder(budget time.Duration, acct *account, vals map[string]float64) {
	rungs := ladder()
	probes := 0
	for _, r := range rungs {
		probes += r.probes
	}
	for _, r := range rungs {
		got, err := r.run(budget / time.Duration(probes))
		if err != nil {
			acct.fail(1, "ladder %s: %v", r.layer, err)
			continue
		}
		for k, v := range got {
			vals[k] = v
		}
	}
}

func hostMemcpy(budget time.Duration) (map[string]float64, error) {
	// 64 KiB, the rdv_64k message: cache-resident on purpose, because that
	// is the copy the runtime makes.
	src, dst := make([]byte, rdvBytes), make([]byte, rdvBytes)
	v := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			copy(dst, src)
		}
	})
	return map[string]float64{"host.memcpy_gb_s": rdvBytes / v}, nil
}

// pair runs fn(n) on a second goroutine while the caller runs it too, and
// returns when both have finished.
func pair(n int, fn func(side, n int)) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn(1, n)
	}()
	fn(0, n)
	wg.Wait()
}

func hostAtomicAdd(budget time.Duration) (map[string]float64, error) {
	var word atomic.Int64
	v := measure(budget, func(n int) {
		pair(n, func(_, n int) {
			for i := 0; i < n; i++ {
				word.Add(1)
			}
		})
	})
	return map[string]float64{"host.atomic_add_ns": v / 2}, nil
}

func hostHandoff(budget time.Duration) (map[string]float64, error) {
	ping, pong := make(chan struct{}), make(chan struct{})
	v := measure(budget, func(n int) {
		pair(n, func(side, n int) {
			for i := 0; i < n; i++ {
				if side == 0 {
					ping <- struct{}{}
					<-pong
				} else {
					<-ping
					pong <- struct{}{}
				}
			}
		})
	})
	return map[string]float64{"host.handoff_ns": v / 2}, nil
}

func telemetryProbes(budget time.Duration) (map[string]float64, error) {
	reg := telemetry.NewRegistry("probe")
	c := reg.Counter("c")
	inc := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	m, err := machine.New(machine.Config{Dims: twoNodes, PPN: 1})
	if err != nil {
		return nil, err
	}
	defer m.Shutdown()
	for task := 0; task < 2; task++ {
		if _, err := probeContext(m, task); err != nil {
			return nil, err
		}
	}
	snap := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			probeSink.Add(int64(len(m.Telemetry().Snapshot().Groups)))
		}
	})
	return map[string]float64{
		"telemetry.counter_inc_ns": inc,
		"telemetry.snapshot_us":    snap / 1e3,
	}, nil
}

func bufpoolProbes(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, c := range []struct {
		name string
		size int
	}{{"bufpool.get_release_ns_8b", 8}, {"bufpool.get_release_ns_512b", 512}, {"bufpool.get_release_ns_4k", 4096}} {
		size := c.size
		out[c.name] = measure(budget, func(n int) {
			for i := 0; i < n; i++ {
				bufpool.Get(size).Release()
			}
		})
	}
	return out, nil
}

func l2atomicProbes(budget time.Duration) (map[string]float64, error) {
	var c l2atomic.Counter
	var m l2atomic.Mutex
	return map[string]float64{
		"l2atomic.load_increment_ns": measure(budget, func(n int) {
			for i := 0; i < n; i++ {
				c.LoadIncrement()
			}
		}),
		"l2atomic.bounded_increment_ns": measure(budget, func(n int) {
			c.Store(0)
			for i := 0; i < n; i++ {
				c.LoadIncrementBounded(1 << 62)
			}
		}),
		"l2atomic.mutex_ns": measure(budget, func(n int) {
			for i := 0; i < n; i++ {
				m.Lock()
				m.Unlock()
			}
		}),
	}, nil
}

func l2atomicBarrier(budget time.Duration) (map[string]float64, error) {
	b := l2atomic.NewBarrier(2)
	var failed atomic.Bool
	v := measure(budget, func(n int) {
		pair(n, func(_, n int) {
			for i := 0; i < n; i++ {
				if b.Await() != nil {
					failed.Store(true)
				}
			}
		})
	})
	if failed.Load() {
		return nil, fmt.Errorf("Barrier.Await failed")
	}
	return map[string]float64{"l2atomic.barrier_ns_2p": v}, nil
}

func locklessProbes(budget time.Duration) (map[string]float64, error) {
	q := lockless.NewQueue[int](256)
	batch, dst := make([]int, 64), make([]int, 64)
	var failed bool
	out := map[string]float64{
		"lockless.enq_deq_ns": measure(budget, func(n int) {
			for i := 0; i < n; i++ {
				if q.Enqueue(i) != nil {
					failed = true
				}
				q.Dequeue()
			}
		}),
		"lockless.enqn_drain_ns_per_item": measure(budget, func(n int) {
			for i := 0; i < n; i++ {
				if q.EnqueueN(batch) != nil || q.DrainInto(dst) != len(batch) {
					failed = true
				}
			}
		}) / float64(len(batch)),
	}
	if failed {
		return nil, fmt.Errorf("queue refused or lost an item")
	}
	return out, nil
}

// locklessContended: two producers race for tickets on one queue while the
// caller drains it, the shape of a reception FIFO shard under fan-in.
func locklessContended(budget time.Duration) (map[string]float64, error) {
	q := lockless.NewQueue[int](256)
	dst := make([]int, 64)
	var failed atomic.Bool
	v := measure(budget, func(n int) {
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if q.Enqueue(i) != nil {
						failed.Store(true)
					}
				}
			}()
		}
		for got := 0; got < 2*n && !failed.Load(); {
			k := q.DrainInto(dst)
			if k == 0 {
				runtime.Gosched()
			}
			got += k
		}
		wg.Wait()
	})
	if failed.Load() {
		return nil, fmt.Errorf("queue refused an item")
	}
	return map[string]float64{"lockless.contended_enq_ns": v / 2}, nil
}

func wakeupProbes(budget time.Duration) (map[string]float64, error) {
	idle := wakeup.NewRegion()
	touch := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			idle.Touch()
		}
	})
	// Handoff: each side publishes its turn, touches the other's region and
	// parks on its own until the turn comes back, as the two contexts of
	// the ping-pong do.
	regions := [2]*wakeup.Region{wakeup.NewRegion(), wakeup.NewRegion()}
	var turn atomic.Int64
	handoff := measure(budget, func(n int) {
		base := turn.Load()
		pair(n, func(side, n int) {
			mine, theirs := regions[side], regions[1-side]
			for i := 0; i < n; i++ {
				want := base + int64(2*i+side)
				for {
					gen := mine.Gen()
					if turn.Load() >= want {
						break
					}
					mine.Wait(gen)
				}
				turn.Add(1)
				theirs.Touch()
			}
		})
	})
	return map[string]float64{
		"wakeup.touch_ns":   touch,
		"wakeup.handoff_ns": handoff / 2,
	}, nil
}

func shmemProbe(budget time.Duration) (map[string]float64, error) {
	node := shmem.NewNode(0)
	dev, err := node.Register(mu.TaskAddr{Task: 0}, 256, nil)
	if err != nil {
		return nil, err
	}
	var payload [8]byte
	dst := make([]shmem.Message, 1)
	failed := false
	v := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			if node.SendBufTo(dev, mu.Header{Dispatch: 1}, bufpool.GetCopy(payload[:])) != nil || dev.PollBatch(dst) != 1 {
				failed = true
				return
			}
			dst[0].Release()
		}
	})
	if failed {
		return nil, fmt.Errorf("message lost")
	}
	return map[string]float64{"shmem.send_poll_ns": v}, nil
}

// muPair is a bare fabric with one context on each of two nodes.
func muPair() (*mu.Fabric, *mu.ContextResources, *mu.ContextResources, error) {
	f, err := mu.NewFabric(twoNodes, 256)
	if err != nil {
		return nil, nil, nil, err
	}
	var res [2]*mu.ContextResources
	for task := 0; task < 2; task++ {
		f.MapTask(task, torus.Rank(task))
		if res[task], err = f.Node(torus.Rank(task)).AllocContext(1, nil); err != nil {
			return nil, nil, nil, err
		}
		f.RegisterContext(mu.TaskAddr{Task: task}, res[task].Rec)
	}
	return f, res[0], res[1], nil
}

// muProbes: InjectMemFIFOBuf on node 0, PollBatch on node 1, with the
// reliable layer off or on under the zero fault plan. On minus off is the
// reliable layer's fault-free tax.
func muProbes(budget time.Duration, reliable bool) (map[string]float64, error) {
	f, a, b, err := muPair()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prefix := "mu.inject_poll_ns_"
	if reliable {
		inj, err := fault.NewInjector(twoNodes, fault.Plan{}, 1)
		if err != nil {
			return nil, err
		}
		f.InstallFaults(inj)
		prefix = "mu.reliable_inject_poll_ns_"
	}
	dst := mu.TaskAddr{Task: 1}
	pkts := make([]mu.Packet, 16)
	out := map[string]float64{}
	for _, c := range []struct {
		suffix string
		size   int
	}{{"8b", 8}, {"4k", 4096}} {
		payload := make([]byte, c.size)
		want := (c.size + mu.MaxPayload - 1) / mu.MaxPayload
		var perr error
		out[prefix+c.suffix] = measure(budget, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				hdr := mu.Header{Dispatch: 1, Origin: mu.TaskAddr{Task: 0}, Seq: uint64(i)}
				if perr = f.InjectMemFIFOBuf(a.Inj[0], dst, hdr, bufpool.GetCopy(payload)); perr != nil {
					return
				}
				for got := 0; got < want; {
					k := b.Rec.PollBatch(pkts)
					for j := 0; j < k; j++ {
						pkts[j].Release()
					}
					got += k
				}
			}
		})
		if perr != nil {
			return nil, perr
		}
	}
	return out, nil
}

func muRemoteGet(budget time.Duration) (map[string]float64, error) {
	f, _, b, err := muPair()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, dst := make([]byte, rdvBytes), make([]byte, rdvBytes)
	f.RegisterMemregion(0, 1, src)
	var done l2atomic.Counter
	var perr error
	v := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			done.Store(0)
			perr = f.InjectRemoteGet(b.Inj[0], mu.TaskAddr{Task: 1}, 0, 1, 0, dst, &done)
			for perr == nil && done.Load() < rdvBytes {
				runtime.Gosched()
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	return map[string]float64{"mu.remote_get_ns_64k": v}, nil
}

func collnetProbes(budget time.Duration) (map[string]float64, error) {
	net := collnet.New(torus.Dims{2, 2, 1, 1, 1})
	cr, err := net.AllocateWorld()
	if err != nil {
		return nil, err
	}
	defer net.Free(cr)
	word := collnet.EncodeInt64s([]int64{1})
	var seq uint64
	var perr error
	session := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			seq++
			var s *collnet.Session
			for _, r := range cr.Ranks() {
				if s, perr = cr.Join(seq, collnet.KindReduce, collnet.OpAdd, collnet.Int64, 8); perr != nil {
					return
				}
				s.Contribute(r, word)
			}
			for range cr.Ranks() {
				if _, perr = s.WaitErr(); perr != nil {
					return
				}
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	acc, src := make([]byte, rdvBytes), make([]byte, rdvBytes)
	combine := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			perr = collnet.Combine(collnet.OpAdd, collnet.Int64, acc, src)
		}
	})
	if perr != nil {
		return nil, perr
	}
	return map[string]float64{
		"collnet.session_ns_4n":    session,
		"collnet.combine_mb_s_64k": rdvBytes / combine * 1e3,
	}, nil
}

// probeContext creates a client and one context for a task, from the
// calling goroutine.
func probeContext(m *machine.Machine, task int) (*core.Context, error) {
	client, err := core.NewClient(m, m.Task(task), "probe")
	if err != nil {
		return nil, err
	}
	ctxs, err := client.CreateContexts(1)
	if err != nil {
		return nil, err
	}
	return ctxs[0], nil
}

// coreProbes: one goroutine owns both contexts of a two-node machine. It
// sends on A and advances B until the handler has run: no park and no
// scheduler, so this is the software o_send + o_recv of Table 1.
func coreProbes(budget time.Duration) (map[string]float64, error) {
	m, err := machine.New(machine.Config{Dims: twoNodes, PPN: 1})
	if err != nil {
		return nil, err
	}
	defer m.Shutdown()
	a, err := probeContext(m, 0)
	if err != nil {
		return nil, err
	}
	b, err := probeContext(m, 1)
	if err != nil {
		return nil, err
	}
	var perr error
	fired := 0
	sink := make([]byte, rdvBytes)
	recvDone := func() { fired++ }
	if err := b.RegisterDispatch(dispData, func(_ *core.Context, d *core.Delivery) {
		if d.IsRendezvous() {
			perr = d.Receive(sink, recvDone)
			return
		}
		fired++
	}); err != nil {
		return nil, err
	}
	dst := b.Endpoint()
	out := map[string]float64{}
	out["core.send_dispatch_ns_0b"] = measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			perr = a.SendImmediate(dst, dispData, nil, nil)
			for want := fired + 1; perr == nil && fired < want; {
				b.Advance(1)
			}
		}
	})
	payload := make([]byte, rdvBytes)
	out["core.send_dispatch_ns_4k"] = measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			perr = a.Send(core.SendParams{Dest: dst, Dispatch: dispData, Data: payload[:4096], Mode: core.ModeEager})
			for want := fired + 1; perr == nil && fired < want; {
				b.Advance(8)
			}
		}
	})
	sent := 0
	sendDone := func() { sent++ }
	out["core.rdv_ns_64k"] = measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			wantFired, wantSent := fired+1, sent+1
			perr = a.Send(core.SendParams{Dest: dst, Dispatch: dispData, Data: payload, Mode: core.ModeRendezvous, OnDone: sendDone})
			for perr == nil && (fired < wantFired || sent < wantSent) {
				b.Advance(8)
				a.Advance(8)
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	return out, nil
}

// wirePair is a bare transport pair over loopback TCP; delivered counts
// what arrives at task 1.
func wirePair(delivered *atomic.Int64) (a, b *wire.Transport, err error) {
	cfg := wire.Config{
		Options: wire.Options{Partition: 1, Listen: "127.0.0.1:0"},
		Dims:    twoNodes, PPN: 1, HostedLo: 0, HostedHi: 1,
		Deliver: func(mu.TaskAddr, mu.Header, []byte) (int, error) { return 0, nil },
	}
	if a, err = wire.New(cfg); err != nil {
		return nil, nil, err
	}
	cfg.Listen, cfg.Join = "", []string{a.Addr()}
	cfg.HostedLo, cfg.HostedHi = 1, 2
	cfg.Deliver = func(_ mu.TaskAddr, _ mu.Header, payload []byte) (int, error) {
		delivered.Add(1)
		return len(payload), nil
	}
	if b, err = wire.New(cfg); err != nil {
		a.Close()
		return nil, nil, err
	}
	for _, t := range []*wire.Transport{a, b} {
		if err = t.WaitComplete(10 * time.Second); err != nil {
			a.Close()
			b.Close()
			return nil, nil, err
		}
	}
	return a, b, nil
}

// wireProbes: the handshake, then the wire_window_8b stream on the bare
// transport. The gap from wire.stream_kmsgs_s to the workload's rate is
// mu.DeliverRemote, core and health.
func wireProbes(budget time.Duration) (map[string]float64, error) {
	var delivered atomic.Int64
	var perr error
	handshake := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			var a, b *wire.Transport
			if a, b, perr = wirePair(&delivered); perr == nil {
				a.Close()
				b.Close()
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	a, b, err := wirePair(&delivered)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	var payload [8]byte
	dst := mu.TaskAddr{Task: 1}
	var inSend time.Duration
	var sends int64
	window := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			want := delivered.Load() + wireWindow
			t0 := time.Now()
			for k := 0; k < wireWindow && perr == nil; k++ {
				perr = a.Send(dst, mu.Header{Dispatch: 1, Seq: uint64(k), Total: len(payload)}, payload[:])
			}
			inSend += time.Since(t0)
			sends += wireWindow
			for perr == nil && delivered.Load() < want {
				if time.Since(t0) > 5*time.Second {
					perr = fmt.Errorf("window of %d not delivered in 5 s", wireWindow)
				}
				runtime.Gosched()
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	return map[string]float64{
		"wire.handshake_ms":   handshake / 1e6,
		"wire.send_ns":        float64(inSend.Nanoseconds()) / float64(sends),
		"wire.stream_kmsgs_s": wireWindow / window * 1e6,
	}, nil
}

func recoveryProbes(budget time.Duration) (map[string]float64, error) {
	snap := &recovery.Snapshot{Node: 1, Version: 1, Data: make([]byte, rdvBytes)}
	var perr error
	codec := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			_, perr = recovery.DecodeSnapshot(snap.Encode())
		}
	})
	if perr != nil {
		return nil, perr
	}
	st := recovery.NewStore()
	put := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			snap.Version++
			st.PutReplica(snap)
		}
	})
	return map[string]float64{
		"recovery.snapshot_codec_us_64k": codec / 1e3,
		"recovery.store_put_ns":          put,
	}, nil
}

func machineBoot(budget time.Duration, name string, dims torus.Dims) (map[string]float64, error) {
	var perr error
	v := measure(budget, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			var m *machine.Machine
			if m, perr = machine.New(machine.Config{Dims: dims, PPN: 1}); perr == nil {
				m.Shutdown()
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	return map[string]float64{name: v / 1e6}, nil
}
