package core

import (
	"errors"
	"sync"
	"testing"

	"pamigo/internal/bufpool"
)

// TestRendezvousDeliveryConsumedOnce: the first Receive of a rendezvous
// Delivery pulls the payload and acks the sender; a second Receive or a
// Discard must neither pull again nor send a second ack (which would hit
// the sender as an ack for a send it already retired), but report
// ErrDeliveryConsumed.
func TestRendezvousDeliveryConsumedOnce(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(5, got.handler(false))
	payload := []byte("pull me once")
	done := 0
	if err := a.Send(SendParams{
		Dest: b.Endpoint(), Dispatch: 5, Data: payload,
		Mode: ModeRendezvous, OnDone: func() { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	d := got.delivery
	buf := make([]byte, d.Size)
	if err := d.Receive(buf, nil); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(payload) {
		t.Fatalf("received %q, want %q", buf, payload)
	}
	fab := a.Client().Machine().Fabric()
	before := fab.Snapshot()
	if err := d.Receive(buf, nil); !errors.Is(err, ErrDeliveryConsumed) {
		t.Fatalf("second Receive = %v, want ErrDeliveryConsumed", err)
	}
	if err := d.Discard(); !errors.Is(err, ErrDeliveryConsumed) {
		t.Fatalf("Discard after Receive = %v, want ErrDeliveryConsumed", err)
	}
	if after := fab.Snapshot(); after != before {
		t.Fatalf("a consumed Delivery moved traffic: %+v, then %+v", before, after)
	}
	for a.Advance(16) > 0 {
	}
	if done != 1 || len(a.pending) != 0 {
		t.Fatalf("OnDone fired %d times, %d sends pending; want 1 and 0", done, len(a.pending))
	}
}

// TestRendezvousDeliveryConcurrentReceive: Receive is callable from any
// thread, so two racing calls must still pull and ack exactly once.
func TestRendezvousDeliveryConcurrentReceive(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(5, got.handler(false))
	done := 0
	if err := a.Send(SendParams{
		Dest: b.Endpoint(), Dispatch: 5, Data: make([]byte, 4096),
		Mode: ModeRendezvous, OnDone: func() { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	d := got.delivery
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.Receive(make([]byte, d.Size), nil)
		}()
	}
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("racing Receives returned %v and %v, want one nil and one ErrDeliveryConsumed", errs[0], errs[1])
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrDeliveryConsumed) {
			t.Fatalf("losing Receive = %v, want ErrDeliveryConsumed", err)
		}
	}
	for a.Advance(16) > 0 {
	}
	if done != 1 {
		t.Fatalf("OnDone fired %d times, want 1", done)
	}
}

// TestRendezvousRoundTripAllocs: one 64 KiB rendezvous on either leg —
// RTS, the memregion publication, the receiver's pull, the ack and the
// sender's retirement — allocates only the Delivery the receiver may
// retain. The publication reuses a free slot of the sender's memregion
// table, and the RTS and ack metadata come from the pool.
func TestRendezvousRoundTripAllocs(t *testing.T) {
	if raceBuild || bufpool.DebugEnabled {
		t.Skip("the race detector and the pool's debug build allocate")
	}
	for _, leg := range bothLegs {
		t.Run(leg.name, func(t *testing.T) { rendezvousRoundTripAllocs(t, leg.mk) })
	}
}

func rendezvousRoundTripAllocs(t *testing.T, mk func(*testing.T) (*Context, *Context)) {
	a, b := mk(t)
	sink := make([]byte, 64<<10)
	if err := b.RegisterDispatch(5, func(_ *Context, d *Delivery) {
		if err := d.Receive(sink, nil); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := 0
	onDone := func() { done++ }
	p := SendParams{Dest: b.Endpoint(), Dispatch: 5, Data: payload, Mode: ModeRendezvous, OnDone: onDone}
	allocs := testing.AllocsPerRun(200, func() {
		want := done + 1
		if err := a.Send(p); err != nil {
			t.Fatal(err)
		}
		for b.Advance(16) > 0 {
		}
		for done < want {
			a.Advance(16)
		}
	})
	if sink[len(sink)-1] != payload[len(payload)-1] {
		t.Fatal("payload never arrived")
	}
	if allocs > 1 {
		t.Fatalf("%.1f allocations per rendezvous round trip, want at most 1 (the Delivery)", allocs)
	}
}
