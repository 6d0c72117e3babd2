package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"pamigo/internal/abort"
	"pamigo/internal/fault"
	"pamigo/internal/lockless"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// TestBackpressureWrappedAcrossLayers drives a send from the core layer
// into a saturated reception FIFO and checks that the queue-level
// sentinel survives every wrap on the way up: errors.Is must see
// lockless.ErrBackpressure from a core call site, and the message must
// name the refusing endpoint so the operator knows which flow died.
func TestBackpressureWrappedAcrossLayers(t *testing.T) {
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	sc, sctx := newClientCtx(t, m, 0)
	_, rctx := newClientCtx(t, m, 1)
	rctx.RegisterDispatch(1, func(_ *Context, _ *Delivery) {})
	sctx.RegisterDispatch(1, func(_ *Context, _ *Delivery) {})
	sc.UnexpectedBudget = 0 // disable the budget gate: we want the raw queue refusal
	dst := rctx.Endpoint()
	fifo, ok := m.Fabric().RecFIFOOf(mu.TaskAddr{Task: dst.Task, Ctx: dst.Ctx})
	if !ok {
		t.Fatal("receiver FIFO not registered")
	}
	fifo.SetOverflowCap(4)
	var refusal error
	for i := 0; i < 10000; i++ {
		if err := sctx.SendImmediate(dst, 1, nil, []byte{1}); err != nil {
			refusal = err
			break
		}
	}
	if refusal == nil {
		t.Fatal("saturated FIFO never refused a send")
	}
	if !errors.Is(refusal, lockless.ErrBackpressure) {
		t.Fatalf("refusal does not wrap lockless.ErrBackpressure: %v", refusal)
	}
	if !strings.Contains(refusal.Error(), "1.0") {
		t.Fatalf("refusal %q does not name endpoint %v", refusal, dst)
	}
}

// TestSendImmediateThrottledTyped floods past a tiny budget with nobody
// draining and checks the typed refusal: errors.Is(err, ErrThrottled).
func TestSendImmediateThrottledTyped(t *testing.T) {
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	sc, sctx := newClientCtx(t, m, 0)
	_, rctx := newClientCtx(t, m, 1)
	rctx.RegisterDispatch(1, func(_ *Context, _ *Delivery) {})
	sc.UnexpectedBudget = 4
	dst := rctx.Endpoint()
	var throttled error
	for i := 0; i < 100; i++ {
		if err := sctx.SendImmediate(dst, 1, nil, []byte{1}); err != nil {
			throttled = err
			break
		}
	}
	if !errors.Is(throttled, ErrThrottled) {
		t.Fatalf("over-budget immediate send = %v, want ErrThrottled", throttled)
	}
	// Draining the receiver clears the pressure; the same send succeeds.
	rctx.Advance(64)
	if err := sctx.SendImmediate(dst, 1, nil, []byte{1}); err != nil {
		t.Fatalf("send after drain still refused: %v", err)
	}
}

// TestDeferredSendsPreserveOrder pushes a burst of Sends far past the
// hard budget so the tail parks in the deferred queue, then drains both
// sides and checks every message arrived exactly once, in send order —
// the point-to-point guarantee must survive the deferral detour.
func TestDeferredSendsPreserveOrder(t *testing.T) {
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	sc, sctx := newClientCtx(t, m, 0)
	_, rctx := newClientCtx(t, m, 1)
	sc.UnexpectedBudget = 8
	var order []uint32
	rctx.RegisterDispatch(1, func(_ *Context, d *Delivery) {
		seq := binary.LittleEndian.Uint32(d.Meta)
		if d.IsRendezvous() {
			buf := make([]byte, d.Size)
			if err := d.Receive(buf, func() { order = append(order, seq) }); err != nil {
				t.Errorf("Receive: %v", err)
			}
			return
		}
		order = append(order, seq)
	})
	sctx.RegisterDispatch(1, func(_ *Context, _ *Delivery) {})

	const msgs = 100
	completions := 0
	for i := 0; i < msgs; i++ {
		meta := make([]byte, 4)
		binary.LittleEndian.PutUint32(meta, uint32(i))
		err := sctx.Send(SendParams{
			Dest:     rctx.Endpoint(),
			Dispatch: 1,
			Meta:     meta,
			Data:     []byte{byte(i)},
			OnDone:   func() { completions++ },
		})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if sctx.stats.deferredSends.HighWater() == 0 {
		t.Fatal("burst past the hard budget deferred nothing")
	}
	for len(order) < msgs || completions < msgs {
		rctx.Advance(64)
		sctx.Advance(64)
	}
	for i, seq := range order {
		if seq != uint32(i) {
			t.Fatalf("arrival %d has seq %d: deferral reordered the flow (%v...)", i, seq, order[:i+1])
		}
	}
}

// TestCongestionStaysPerDestination throttles immediate sends toward one
// destination and then sends an eager-size message to another, idle one:
// the protocol toward the idle destination is decided from its own queue
// alone, so the send goes eager.
func TestCongestionStaysPerDestination(t *testing.T) {
	m := newTestMachine(t, torus.Dims{3, 1, 1, 1, 1}, 1)
	sc, sctx := newClientCtx(t, m, 0)
	_, busy := newClientCtx(t, m, 1)
	_, idle := newClientCtx(t, m, 2)
	busy.RegisterDispatch(1, func(_ *Context, _ *Delivery) {})
	idle.RegisterDispatch(1, func(_ *Context, _ *Delivery) {})
	sc.UnexpectedBudget = 4
	var throttled error
	for i := 0; i < 100 && throttled == nil; i++ {
		throttled = sctx.SendImmediate(busy.Endpoint(), 1, nil, []byte{1})
	}
	if !errors.Is(throttled, ErrThrottled) {
		t.Fatalf("over-budget immediate send = %v, want ErrThrottled", throttled)
	}
	const size = 1500
	if size > sc.EagerThreshold {
		t.Fatalf("test size %d is past the eager threshold %d", size, sc.EagerThreshold)
	}
	eager, rdv := sctx.stats.sendsEager.Load(), sctx.stats.sendsRdv.Load()
	if err := sctx.Send(SendParams{Dest: idle.Endpoint(), Dispatch: 1, Data: make([]byte, size)}); err != nil {
		t.Fatal(err)
	}
	if de, dr := sctx.stats.sendsEager.Load()-eager, sctx.stats.sendsRdv.Load()-rdv; de != 1 || dr != 0 {
		t.Fatalf("%d B send to an idle destination: sends_eager +%d, sends_rendezvous +%d, want +1 and +0", size, de, dr)
	}
}

// TestDeferredSendsFailOnDeathAndAbort parks sends to two destinations
// that never drain, then confirms one destination's node dead: only its
// deferred sends fail, with mu.ErrPeerDead, and the other destination's
// stay parked. An Abort then fails those with the abort cause. (The
// rendezvous RTSs already sent to the dead node fail too, as pending
// sends, not deferred ones.)
func TestDeferredSendsFailOnDeathAndAbort(t *testing.T) {
	dims := torus.Dims{3, 1, 1, 1, 1}
	// A node fault that never fires arms the health monitor, so the
	// test picks the death instant.
	plan, err := fault.ParsePlan("crash@pkt=100000000,node=2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{Dims: dims, PPN: 1, Faults: &plan, FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	sc, sctx := newClientCtx(t, m, 0)
	_, live := newClientCtx(t, m, 1)
	_, dead := newClientCtx(t, m, 2)
	sc.UnexpectedBudget = 4
	var peerDead, aborted, pending int
	var other []error
	for i := 0; i < 40; i++ {
		for _, dst := range []Endpoint{live.Endpoint(), dead.Endpoint()} {
			err := sctx.Send(SendParams{
				Dest:     dst,
				Dispatch: 1,
				Data:     []byte{byte(i)},
				OnFail: func(err error) {
					switch {
					case errors.Is(err, mu.ErrPeerDead) && strings.Contains(err.Error(), "deferred send") &&
						strings.Contains(err.Error(), "cancelled"):
						peerDead++
					case errors.Is(err, abort.ErrAborted) && strings.Contains(err.Error(), "deferred send") &&
						strings.Contains(err.Error(), "aborted"):
						aborted++
					case errors.Is(err, mu.ErrPeerDead) && strings.Contains(err.Error(), "rendezvous send"):
						pending++
					default:
						other = append(other, err)
					}
				},
			})
			if err != nil {
				t.Fatalf("send %d to %v: %v", i, dst, err)
			}
		}
	}
	toLive, toDead := len(sctx.deferred[live.Endpoint()]), len(sctx.deferred[dead.Endpoint()])
	if toLive == 0 || toDead == 0 {
		t.Fatalf("deferred %d to the live and %d to the dead destination; the test needs both", toLive, toDead)
	}

	m.Health().DeclareDead(2)
	for m.Epoch() == 0 {
		runtime.Gosched()
	}
	sctx.Advance(advanceBatch)
	if peerDead != toDead {
		t.Fatalf("%d deferred sends failed with ErrPeerDead, want the %d to the dead node", peerDead, toDead)
	}
	if _, ok := sctx.deferred[dead.Endpoint()]; ok {
		t.Fatal("the dead destination still has a deferred queue")
	}
	if got := len(sctx.deferred[live.Endpoint()]); got != toLive || aborted != 0 {
		t.Fatalf("live destination: %d deferred (want %d), %d aborted (want 0)", got, toLive, aborted)
	}

	sctx.Abort(abort.Causef(abort.KindUser, "test.deferred", "stop"))
	sctx.Advance(advanceBatch)
	if aborted != toLive || sctx.deferredLen != 0 || len(sctx.deferred) != 0 {
		t.Fatalf("after Abort: %d aborted (want %d), %d still deferred", aborted, toLive, sctx.deferredLen)
	}
	if len(other) != 0 {
		t.Fatalf("sends failed with unexpected errors: %v", other)
	}
	if peerDead+pending > 40 {
		t.Fatalf("%d deferred and %d pending sends to the dead node failed, more than the 40 sent", peerDead, pending)
	}
}
