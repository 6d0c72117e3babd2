package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"unsafe"

	"pamigo/internal/bufpool"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// pair builds a 2-node machine with one task per node and a context each.
func pair(t *testing.T) (*Context, *Context) {
	t.Helper()
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	_, a := newClientCtx(t, m, 0)
	_, b := newClientCtx(t, m, 1)
	return a, b
}

// nodePair builds a 1-node machine with two tasks (intra-node paths).
func nodePair(t *testing.T) (*Context, *Context) {
	t.Helper()
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 2)
	_, a := newClientCtx(t, m, 0)
	_, b := newClientCtx(t, m, 1)
	return a, b
}

type capture struct {
	mu       sync.Mutex
	origin   Endpoint
	meta     []byte
	data     []byte
	size     int
	rendez   bool
	delivery *Delivery
	count    int
}

func (c *capture) handler(auto bool) DispatchFn {
	return func(ctx *Context, d *Delivery) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.count++
		c.origin = d.Origin
		c.meta = append([]byte(nil), d.Meta...)
		c.size = d.Size
		c.rendez = d.IsRendezvous()
		if d.IsRendezvous() {
			if auto {
				buf := make([]byte, d.Size)
				if err := d.Receive(buf, nil); err != nil {
					panic(err)
				}
				c.data = buf
			} else {
				c.delivery = d
			}
			return
		}
		c.data = append([]byte(nil), d.Data...)
	}
}

func TestSendImmediateInterNode(t *testing.T) {
	a, b := pair(t)
	var got capture
	if err := b.RegisterDispatch(1, got.handler(true)); err != nil {
		t.Fatal(err)
	}
	if err := a.SendImmediate(b.Endpoint(), 1, []byte("meta"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if b.Advance(16) == 0 {
		t.Fatal("no progress on receiver")
	}
	if got.count != 1 || string(got.meta) != "meta" || string(got.data) != "data" {
		t.Fatalf("delivery wrong: count=%d meta=%q data=%q", got.count, got.meta, got.data)
	}
	if got.origin != a.Endpoint() {
		t.Fatalf("origin = %v", got.origin)
	}
	if got.rendez {
		t.Fatal("immediate send arrived as rendezvous")
	}
}

func TestSendImmediateIntraNode(t *testing.T) {
	a, b := nodePair(t)
	var got capture
	b.RegisterDispatch(1, got.handler(true))
	if err := a.SendImmediate(b.Endpoint(), 1, nil, []byte("shm")); err != nil {
		t.Fatal(err)
	}
	b.Advance(16)
	if got.count != 1 || string(got.data) != "shm" {
		t.Fatalf("intra-node delivery wrong: count=%d data=%q", got.count, got.data)
	}
	// No torus traffic for an intra-node send.
	if s := a.Client().Machine().Fabric().Snapshot(); s.Packets != 0 {
		t.Fatalf("intra-node send put %d packets on the torus", s.Packets)
	}
}

func TestSendImmediateTooLarge(t *testing.T) {
	a, b := pair(t)
	big := make([]byte, 600)
	if err := a.SendImmediate(b.Endpoint(), 1, nil, big); err == nil {
		t.Fatal("oversized SendImmediate accepted")
	}
}

func TestSendImmediateReservedDispatch(t *testing.T) {
	a, b := pair(t)
	if err := a.SendImmediate(b.Endpoint(), dispatchRTS, nil, nil); err == nil {
		t.Fatal("reserved dispatch accepted")
	}
}

func TestSendEagerMultiPacket(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(2, got.handler(true))
	payload := make([]byte, 1800) // > 3 packets
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	doneFired := false
	err := a.Send(SendParams{
		Dest: b.Endpoint(), Dispatch: 2, Meta: []byte("m"),
		Data: payload, Mode: ModeEager,
		OnDone: func() { doneFired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !doneFired {
		t.Fatal("eager OnDone did not fire at injection")
	}
	for b.Advance(16) > 0 {
	}
	if got.count != 1 || !bytes.Equal(got.data, payload) {
		t.Fatalf("multi-packet eager corrupted (count=%d len=%d)", got.count, len(got.data))
	}
}

func TestSendRendezvousInterNode(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(3, got.handler(true))
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var doneFired bool
	err := a.Send(SendParams{
		Dest: b.Endpoint(), Dispatch: 3, Meta: []byte("envelope"),
		Data: payload, Mode: ModeRendezvous,
		OnDone: func() { doneFired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if doneFired {
		t.Fatal("rendezvous OnDone fired before the ack")
	}
	for b.Advance(16) > 0 {
	}
	if !got.rendez {
		t.Fatal("message did not arrive as rendezvous")
	}
	if string(got.meta) != "envelope" || got.size != len(payload) {
		t.Fatalf("RTS metadata wrong: %q size=%d", got.meta, got.size)
	}
	if !bytes.Equal(got.data, payload) {
		t.Fatal("rendezvous payload corrupted")
	}
	// Ack must complete the sender.
	for a.Advance(16) > 0 {
	}
	if !doneFired {
		t.Fatal("rendezvous OnDone never fired")
	}
	if len(a.pending) != 0 {
		t.Fatal("pending send leaked")
	}
}

// soloPending returns the one rendezvous send a context has in flight.
func soloPending(t *testing.T, ctx *Context) *pendingSend {
	t.Helper()
	if len(ctx.pending) != 1 {
		t.Fatalf("%d sends pending, want 1", len(ctx.pending))
	}
	for _, ps := range ctx.pending {
		return ps
	}
	return nil
}

// bothLegs names the two rendezvous pulls: a remote get across nodes, a
// read of the sender's registered buffer on one.
var bothLegs = []struct {
	name string
	mk   func(*testing.T) (*Context, *Context)
}{{"internode", pair}, {"intranode", nodePair}}

// An intra-node rendezvous publishes in the sender's memregion table like
// any other — a DataBuf send its caller's slab — and the node peer copies
// straight out of it: while the send is pending the publication aliases
// the payload, the ack retires it and returns every slab to the pool, and
// nothing crosses the torus.
func TestSendRendezvousIntraNode(t *testing.T) {
	for _, name := range []string{"data", "databuf"} {
		t.Run(name, func(t *testing.T) {
			owned := name == "databuf"
			a, b := nodePair(t)
			var got capture
			b.RegisterDispatch(3, got.handler(true))
			live0 := liveBufs()
			p := SendParams{Dest: b.Endpoint(), Dispatch: 3, Mode: ModeRendezvous}
			var payload []byte
			if owned {
				p.DataBuf = bufpool.Get(8192)
				payload = p.DataBuf.Bytes()
			} else {
				payload = make([]byte, 8192)
				p.Data = payload
			}
			for i := range payload {
				payload[i] = byte(i * 3)
			}
			want := append([]byte(nil), payload...)
			var doneFired bool
			p.OnDone = func() { doneFired = true }
			if err := a.Send(p); err != nil {
				t.Fatal(err)
			}
			fab := a.Client().Machine().Fabric()
			id := soloPending(t, a).mrID
			if pub, ok := fab.Memregion(a.Endpoint().Task, id); !ok || unsafe.SliceData(pub) != unsafe.SliceData(payload) {
				t.Fatalf("publication %#x does not alias the payload (found %v)", id, ok)
			}
			for b.Advance(16) > 0 {
			}
			if !bytes.Equal(got.data, want) {
				t.Fatal("intra-node rendezvous payload corrupted")
			}
			for a.Advance(16) > 0 {
			}
			if !doneFired {
				t.Fatal("intra-node rendezvous completion lost")
			}
			if _, ok := fab.Memregion(a.Endpoint().Task, id); ok {
				t.Fatal("rendezvous publication outlived the ack")
			}
			if live := liveBufs(); live != live0 {
				t.Fatalf("%d pooled buffers live after the ack, %d before", live, live0)
			}
			if s := fab.Snapshot(); s.RemoteGets != 0 || s.Packets != 0 {
				t.Fatalf("intra-node rendezvous used %d remote gets and %d packets", s.RemoteGets, s.Packets)
			}
		})
	}
}

// A Receive whose publication the sender has retired fails with the typed
// memregion miss on either leg.
func TestRendezvousReceiveRetiredPublication(t *testing.T) {
	for _, leg := range bothLegs {
		t.Run(leg.name, func(t *testing.T) {
			a, b := leg.mk(t)
			var got capture
			b.RegisterDispatch(5, got.handler(false))
			if err := a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 5, Data: make([]byte, 4096), Mode: ModeRendezvous}); err != nil {
				t.Fatal(err)
			}
			for b.Advance(16) > 0 {
			}
			d := got.delivery
			if d == nil {
				t.Fatal("RTS not dispatched")
			}
			a.Client().Machine().Fabric().DeregisterMemregion(a.Endpoint().Task, d.rts.mrID)
			if err := d.Receive(make([]byte, d.Size), nil); !errors.Is(err, mu.ErrNoSuchMemregion) {
				t.Fatalf("Receive of a retired publication = %v, want ErrNoSuchMemregion", err)
			}
		})
	}
}

func TestSendAutoModeThreshold(t *testing.T) {
	a, b := pair(t)
	a.Client().EagerThreshold = 100
	var got capture
	b.RegisterDispatch(4, got.handler(true))
	if err := a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 4, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	if got.rendez {
		t.Fatal("message at the threshold should be eager")
	}
	if err := a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 4, Data: make([]byte, 101)}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	if !got.rendez {
		t.Fatal("message above the threshold should be rendezvous")
	}
	for a.Advance(16) > 0 {
	}
}

func TestDeferredRendezvousReceive(t *testing.T) {
	// MPI's unexpected-message path: stash the RTS, Receive much later.
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(5, got.handler(false))
	payload := []byte("deferred pull: the receiver matches this later")
	if err := a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 5, Data: payload, Mode: ModeRendezvous}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	if got.delivery == nil {
		t.Fatal("RTS not dispatched")
	}
	// ... time passes; now the receive is posted:
	buf := make([]byte, got.delivery.Size)
	var recvDone bool
	if err := got.delivery.Receive(buf, func() { recvDone = true }); err != nil {
		t.Fatal(err)
	}
	if !recvDone || !bytes.Equal(buf, payload) {
		t.Fatalf("deferred receive failed: done=%v", recvDone)
	}
}

func TestRendezvousTruncation(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(5, got.handler(false))
	if err := a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 5, Data: []byte("0123456789"), Mode: ModeRendezvous}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	buf := make([]byte, 4)
	if err := got.delivery.Receive(buf, nil); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "0123" {
		t.Fatalf("truncated receive got %q", buf)
	}
}

func TestRendezvousDiscard(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(5, got.handler(false))
	var doneFired bool
	if err := a.Send(SendParams{
		Dest: b.Endpoint(), Dispatch: 5, Data: []byte("dropme"),
		Mode: ModeRendezvous, OnDone: func() { doneFired = true },
	}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	if err := got.delivery.Discard(); err != nil {
		t.Fatal(err)
	}
	for a.Advance(16) > 0 {
	}
	if !doneFired {
		t.Fatal("discard must still complete the sender")
	}
}

func TestReceiveOnEagerFails(t *testing.T) {
	d := &Delivery{}
	if err := d.Receive(nil, nil); err == nil {
		t.Fatal("Receive on eager delivery succeeded")
	}
	if err := d.Discard(); err != nil {
		t.Fatalf("Discard on eager delivery should be a no-op: %v", err)
	}
}

func TestMessageOrderingAcrossProtocols(t *testing.T) {
	// Envelope order between two endpoints must hold even when eager and
	// rendezvous messages interleave — the deterministic-routing property
	// MPI matching depends on (paper §III.E).
	a, b := pair(t)
	var order []int
	b.RegisterDispatch(6, func(ctx *Context, d *Delivery) {
		order = append(order, int(d.Meta[0]))
		if d.IsRendezvous() {
			d.Discard()
		}
	})
	for i := 0; i < 20; i++ {
		mode := ModeEager
		if i%3 == 0 {
			mode = ModeRendezvous
		}
		if err := a.Send(SendParams{
			Dest: b.Endpoint(), Dispatch: 6, Meta: []byte{byte(i)},
			Data: make([]byte, 700), Mode: mode,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for b.Advance(16) > 0 {
	}
	if len(order) != 20 {
		t.Fatalf("delivered %d of 20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order violated: %v", order)
		}
	}
}

func TestPostAndAdvance(t *testing.T) {
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 1)
	_, ctx := newClientCtx(t, m, 0)
	ran := 0
	for i := 0; i < 5; i++ {
		ctx.Post(func() { ran++ })
	}
	if got := ctx.Advance(100); got != 5 {
		t.Fatalf("Advance processed %d items, want 5", got)
	}
	if ran != 5 {
		t.Fatalf("ran = %d", ran)
	}
}

func TestAdvanceRespectsBudget(t *testing.T) {
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 1)
	_, ctx := newClientCtx(t, m, 0)
	for i := 0; i < 10; i++ {
		ctx.Post(func() {})
	}
	if got := ctx.Advance(3); got != 3 {
		t.Fatalf("Advance(3) processed %d", got)
	}
	if got := ctx.Advance(100); got != 7 {
		t.Fatalf("second Advance processed %d", got)
	}
}

func TestAdvanceUntil(t *testing.T) {
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 1)
	_, ctx := newClientCtx(t, m, 0)
	fired := false
	go ctx.Post(func() { fired = true })
	ctx.AdvanceUntil(func() bool { return fired })
	if !fired {
		t.Fatal("AdvanceUntil returned early")
	}
}

func TestUnregisteredDispatchPanics(t *testing.T) {
	a, b := pair(t)
	if err := a.SendImmediate(b.Endpoint(), 9, nil, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered dispatch did not panic")
		}
	}()
	b.Advance(16)
}

func TestContextStats(t *testing.T) {
	a, b := pair(t)
	b.RegisterDispatch(1, func(*Context, *Delivery) {})
	a.SendImmediate(b.Endpoint(), 1, nil, nil)
	for b.Advance(16) > 0 {
	}
	advances, work, delivered := b.Stats()
	if advances == 0 || work != 1 || delivered != 1 {
		t.Fatalf("stats = (%d,%d,%d)", advances, work, delivered)
	}
}
