package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// TestAdvanceUntilOneAdvancePerHop: a ping-pong waited in AdvanceUntil
// costs one Advance per message. The pass that drains a message ends on
// the region's generation instead of scanning the sources a second time,
// and the next wait sleeps at once on the generation that pass recorded
// (drainedGen) instead of running a dry pass first. A progress loop that
// polls before it parks reads two.
func TestAdvanceUntilOneAdvancePerHop(t *testing.T) {
	const hops = 1000
	a, b := pair(t)
	var gotA, gotB int // each written by its own context's handler, on its own goroutine
	a.RegisterDispatch(1, func(*Context, *Delivery) { gotA++ })
	b.RegisterDispatch(1, func(*Context, *Delivery) { gotB++ })
	echoed := make(chan error, 1)
	go func() {
		for i := 1; i <= hops; i++ {
			b.AdvanceUntil(func() bool { return gotB >= i })
			if err := b.SendImmediate(a.Endpoint(), 1, nil, nil); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	for i := 1; i <= hops; i++ {
		if err := a.SendImmediate(b.Endpoint(), 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		a.AdvanceUntil(func() bool { return gotA >= i })
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	advA, _, delA := a.Stats()
	advB, _, delB := b.Stats()
	if delA+delB != 2*hops {
		t.Fatalf("%d messages delivered, want %d", delA+delB, 2*hops)
	}
	if per := float64(advA+advB) / float64(delA+delB); per > 1.1 {
		t.Errorf("%.2f advances per delivered message (%d + %d for %d), want <= 1.1: the wait polls before it parks",
			per, advA, advB, delA+delB)
	}
}

// TestAdvanceUntilNoLostPublish is the property AdvanceUntil's park
// without a pass rests on: every publish into a context's sources is
// followed by a touch of its region. One consumer waits in AdvanceUntil
// for messages that arrive concurrently on every publishing path —
// two remote nodes' torus traffic (a touch per packet, or with faults
// armed the reliable layer's quiet burst publish, touched once after
// its rmu hold), a node-mate's shared-memory queue, and closures a
// foreign goroutine Posts — with seeded sizes and pauses, so the
// consumer keeps parking while publishes are under way. Each producer
// stays at most a seeded window of messages ahead of what the consumer
// has taken from it, so once the others are done its publishes have no
// other touch to ride on. Every message must arrive exactly once,
// before the deadline.
func TestAdvanceUntilNoLostPublish(t *testing.T) {
	const perProducer = 300
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"direct", nil},
		{"reliable", &fault.Plan{Drop: 0.01}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, p := range plans {
			t.Run(fmt.Sprintf("%s/seed%d", p.name, seed), func(t *testing.T) {
				noLostPublish(t, p.plan, seed, perProducer)
			})
		}
	}
}

func noLostPublish(t *testing.T, plan *fault.Plan, seed int64, perProducer int) {
	m, err := machine.New(machine.Config{Dims: torus.Dims{2, 1, 1, 1, 1}, PPN: 2, Faults: plan, FaultSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	// Task 0 consumes; task 1 is its node-mate (shared memory), tasks 2
	// and 3 sit on the other node (torus), and producer 0 is a goroutine
	// that owns no context and Posts.
	_, cons := newClientCtx(t, m, 0)
	senders := []int{1, 2, 3}
	producers := 1 + len(senders)
	total := producers * perProducer
	seen := make([][]bool, producers)
	for i := range seen {
		seen[i] = make([]bool, perProducer)
	}
	got := 0
	var bad error // first violation; written on the consumer's thread only
	taken := make([]atomic.Int64, producers)
	record := func(prod, seq int) {
		switch {
		case prod >= producers || seq >= perProducer:
			bad = fmt.Errorf("message %d.%d out of range", prod, seq)
		case seen[prod][seq]:
			bad = fmt.Errorf("message %d.%d delivered twice", prod, seq)
		default:
			seen[prod][seq] = true
			got++
			taken[prod].Add(1)
		}
	}
	cons.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		prod := int(binary.LittleEndian.Uint32(d.Meta))
		seq := int(binary.LittleEndian.Uint32(d.Meta[4:]))
		for _, c := range d.Data {
			if c != byte(seq) {
				bad = fmt.Errorf("message %d.%d payload corrupted", prod, seq)
			}
		}
		record(prod, seq)
	})
	ctxs := make([]*Context, len(senders))
	for i, task := range senders {
		_, ctxs[i] = newClientCtx(t, m, task)
	}

	// pace keeps producer prod at most window messages ahead of the
	// consumer, then lets the consumer catch up and park. It stops
	// holding producers back once the consumer has stopped.
	var stopped, failed atomic.Bool
	defer stopped.Store(true)
	window := int64(1 + seed%4)
	pace := func(rng *rand.Rand, prod, seq int) {
		for int64(seq)-taken[prod].Load() >= window && !stopped.Load() {
			runtime.Gosched()
		}
		for n := rng.Intn(4); n > 0; n-- {
			runtime.Gosched()
		}
	}
	sizes := []int{0, 8, 200, 1500} // 1500 B is a three-packet burst
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	wg.Add(producers)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed * 31))
		for seq := 0; seq < perProducer; seq++ {
			pace(rng, 0, seq)
			cons.Post(func() { record(0, seq) })
		}
	}()
	for i, sctx := range ctxs {
		go func(prod int, sctx *Context) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(prod)))
			for seq := 0; seq < perProducer; seq++ {
				pace(rng, prod, seq)
				meta := make([]byte, 8)
				binary.LittleEndian.PutUint32(meta, uint32(prod))
				binary.LittleEndian.PutUint32(meta[4:], uint32(seq))
				data := make([]byte, sizes[rng.Intn(len(sizes))])
				for j := range data {
					data[j] = byte(seq)
				}
				err := sctx.Send(SendParams{Dest: cons.Endpoint(), Dispatch: 1, Meta: meta, Data: data, Mode: ModeEager})
				if err != nil {
					errs <- fmt.Errorf("producer %d, message %d: %w", prod, seq, err)
					failed.Store(true)
					cons.Region().Touch()
					return
				}
			}
		}(1+i, sctx)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		cons.AdvanceUntil(func() bool { return got == total || bad != nil || failed.Load() })
		stopped.Store(true)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer still waiting after 30 s: a publish was not followed by a touch")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if got != total {
		t.Fatalf("%d of %d messages delivered", got, total)
	}
	// Nothing may trail the last message: a second copy of any of them
	// would land here.
	if n := cons.Advance(advanceBatch); n != 0 || bad != nil {
		t.Fatalf("%d items after the last message arrived (%v)", n, bad)
	}
}
