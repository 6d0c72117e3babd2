package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// TestCommThreadSendsDeferred: a rendezvous send that its commthread
// defers, because the destination sits at the hard budget, goes out once
// the destination drains. Nothing touches the sender's region when a
// remote queue drains, so a commthread that slept with a deferred send
// queued would keep it forever.
func TestCommThreadSendsDeferred(t *testing.T) {
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	defer m.Shutdown()
	sc, a := newClientCtx(t, m, 0)
	_, b := newClientCtx(t, m, 1)
	sc.UnexpectedBudget = 4
	var eager, rts atomic.Int64
	b.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		if d.IsRendezvous() {
			rts.Add(1)
			d.Discard()
			return
		}
		eager.Add(1)
	})
	for i := 0; i < 4; i++ {
		if err := a.SendImmediate(b.Endpoint(), 1, nil, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	sc.EnableCommThreads()
	defer sc.DisableCommThreads()
	sent := make(chan error, 1)
	a.Post(func() {
		sent <- a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 1, Data: make([]byte, 64), Mode: ModeRendezvous})
	})
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	a.Post(func() {
		var err error
		if a.deferredLen != 1 {
			err = errors.New("the send to a destination at the budget was not deferred")
		}
		sent <- err
	})
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for rts.Load() == 0 {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("RTS not delivered 2 s after the destination drained %d messages: the commthread kept the deferred send", eager.Load())
		}
		b.Advance(advanceBatch)
		time.Sleep(time.Millisecond)
	}
}

// TestCommThreadOneAdvancePerHop: a ping-pong between two contexts that
// only their commthreads advance costs one Advance per message, as it
// does in AdvanceUntil: the commthread waits through the same loop, so it
// sleeps on the generation its productive pass recorded instead of
// running a dry pass first.
func TestCommThreadOneAdvancePerHop(t *testing.T) {
	const hops = 1000
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	defer m.Shutdown()
	ca, a := newClientCtx(t, m, 0)
	cb, b := newClientCtx(t, m, 1)
	done := make(chan error, 1)
	var got atomic.Int64
	echo := func(ctx *Context, to Endpoint) DispatchFn {
		return func(*Context, *Delivery) {
			if got.Add(1) == hops {
				done <- nil
				return
			}
			if err := ctx.SendImmediate(to, 1, nil, nil); err != nil {
				done <- err
			}
		}
	}
	a.RegisterDispatch(1, echo(a, b.Endpoint()))
	b.RegisterDispatch(1, echo(b, a.Endpoint()))
	ca.EnableCommThreads()
	defer ca.DisableCommThreads()
	cb.EnableCommThreads()
	defer cb.DisableCommThreads()
	a.Post(func() {
		if err := a.SendImmediate(b.Endpoint(), 1, nil, nil); err != nil {
			done <- err
		}
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d hops after 30 s", got.Load(), hops)
	}
	ca.DisableCommThreads()
	cb.DisableCommThreads()
	advA, _, delA := a.Stats()
	advB, _, delB := b.Stats()
	if delA+delB != hops {
		t.Fatalf("%d messages delivered, want %d", delA+delB, hops)
	}
	if per := float64(advA+advB) / float64(delA+delB); per > 1.1 {
		t.Errorf("%.2f advances per delivered message (%d + %d for %d), want <= 1.1: the commthread polls before it parks",
			per, advA, advB, delA+delB)
	}
}

// TestDeferredStallAbortsUnderTraffic: a deferred send whose destination
// never drains escalates at core.deferred.send even while other traffic
// keeps the waiting context busy. The park belongs to the deferred queue
// and restarts only when a deferred send goes out, so a message every
// millisecond from a third task does not keep it young.
func TestDeferredStallAbortsUnderTraffic(t *testing.T) {
	const deadline, bound = 100 * time.Millisecond, time.Second
	m, err := machine.New(machine.Config{Dims: torus.Dims{3, 1, 1, 1, 1}, PPN: 1, StallDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	sc, a := newClientCtx(t, m, 0)
	_, b := newClientCtx(t, m, 1)
	_, c := newClientCtx(t, m, 2)
	sc.UnexpectedBudget = 4
	var chatter int // written by a's handler, on the waiting goroutine
	a.RegisterDispatch(1, func(*Context, *Delivery) { chatter++ })
	for i := 0; i < 4; i++ {
		if err := a.SendImmediate(b.Endpoint(), 1, nil, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var failed error
	err = a.Send(SendParams{
		Dest: b.Endpoint(), Dispatch: 1, Data: make([]byte, 64), Mode: ModeRendezvous,
		OnFail: func(err error) { failed = err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.deferredLen != 1 {
		t.Fatal("the send to a destination at the budget was not deferred")
	}

	var stop atomic.Bool
	quiet := make(chan struct{})
	go func() {
		defer close(quiet)
		for !stop.Load() {
			if err := c.SendImmediate(a.Endpoint(), 1, nil, nil); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var gaveUp atomic.Bool
	giveUp := time.AfterFunc(3*time.Second, func() {
		gaveUp.Store(true)
		a.Region().Touch()
	})
	start := time.Now()
	a.AdvanceUntil(func() bool { return failed != nil || gaveUp.Load() })
	took := time.Since(start)
	giveUp.Stop()
	stop.Store(true)
	<-quiet
	var cause *abort.Cause
	if !errors.As(failed, &cause) || cause.Kind != abort.KindDeadline {
		t.Fatalf("deferred send ended with %v after %v (%d messages meanwhile), want a KindDeadline abort", failed, took, chatter)
	}
	if took > bound {
		t.Fatalf("deferred send aborted after %v, want under %v", took, bound)
	}
	if chatter == 0 {
		t.Fatal("no traffic reached the waiting context: the test did not exercise productive passes")
	}
}
