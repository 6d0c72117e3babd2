package mu

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/lockless"
)

// TestRemoteBurstWakesOncePerDestination: DeliverRemoteBurst queues
// packets exactly like a local injection but leaves the consumer's wakeup
// region alone; EndRemoteBurst touches each named endpoint once, however
// many packets it was sent, and ignores an endpoint nobody registered.
func TestRemoteBurstWakesOncePerDestination(t *testing.T) {
	f := newTestFabric(t)
	a := setupEndpoint(t, f, 0, 0, 0)
	b := setupEndpoint(t, f, 1, 1, 0)
	dstA, dstB := TaskAddr{0, 0}, TaskAddr{1, 0}
	hdr := Header{Dispatch: 1, Origin: TaskAddr{Task: 2}, Total: 3 * MaxPayload, Meta: []byte("meta")}
	touches := func(r *ContextResources) uint64 { n, _ := r.Rec.Region().Stats(); return n }

	// A parked consumer must sleep through the quiet deliveries.
	gen := a.Rec.Region().Gen()
	woke := make(chan struct{})
	go func() { a.Rec.Region().Wait(gen); close(woke) }()

	payload := make([]byte, 3*MaxPayload) // three packets a call
	for i := 0; i < 4; i++ {
		if n, err := f.DeliverRemoteBurst(dstA, hdr, payload); err != nil || n != len(payload) {
			t.Fatalf("burst deliver to a: n=%d err=%v", n, err)
		}
	}
	if n, err := f.DeliverRemoteBurst(dstB, Header{Origin: TaskAddr{Task: 2}}, nil); err != nil || n != 0 {
		t.Fatalf("burst deliver of an empty message to b: n=%d err=%v", n, err)
	}
	if got := a.Rec.Received(); got != 12 {
		t.Fatalf("a received %d packets, want 12", got)
	}
	if touches(a) != 0 || touches(b) != 0 {
		t.Fatalf("quiet deliveries touched the regions: a %d, b %d", touches(a), touches(b))
	}
	select {
	case <-woke:
		t.Fatal("a quiet delivery woke the parked consumer")
	case <-time.After(10 * time.Millisecond):
	}

	f.EndRemoteBurst([]TaskAddr{dstA, dstB, {Task: 3}})
	if touches(a) != 1 || touches(b) != 1 {
		t.Fatalf("burst end touched a %d and b %d times, want once each", touches(a), touches(b))
	}
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("the burst end did not wake the parked consumer")
	}

	// The packets are the ones a local injection builds: meta on the first only.
	first, ok := a.Rec.Poll()
	if !ok || string(first.Header().Meta) != "meta" || first.Header().Offset != 0 || len(first.Payload()) != MaxPayload {
		t.Fatalf("first packet: %+v ok=%v", first.Header(), ok)
	}
	first.Release()
	second, _ := a.Rec.Poll()
	if second.Header().Meta != nil || second.Header().Offset != MaxPayload {
		t.Fatalf("second packet: %+v", second.Header())
	}
	second.Release()
}

// TestRemoteBurstRefusalIsResumable: a quiet delivery refused by a full
// FIFO reports how far it got, so the transport
// resumes with the remainder and no packet is queued twice.
func TestRemoteBurstRefusalIsResumable(t *testing.T) {
	f := newTestFabric(t)
	a := setupEndpoint(t, f, 0, 0, 0)
	a.Rec.SetOverflowCap(1)
	live0, _ := bufpool.Live()
	dst := TaskAddr{0, 0}
	hdr := Header{Origin: TaskAddr{Task: 2}, Total: 1 << 20}
	payload := make([]byte, 4*MaxPayload)
	var done, refusals int
	for done < hdr.Total {
		h := hdr
		h.Offset = done
		n, err := f.DeliverRemoteBurst(dst, h, payload[:min(len(payload), hdr.Total-done)])
		done += n
		if err == nil {
			continue
		}
		if !errors.Is(err, lockless.ErrBackpressure) {
			t.Fatal(err)
		}
		refusals++
		for { // the consumer drains
			pkt, ok := a.Rec.Poll()
			if !ok {
				break
			}
			pkt.Release()
		}
	}
	if refusals == 0 {
		t.Fatal("the FIFO never refused: the test proved nothing")
	}
	for {
		pkt, ok := a.Rec.Poll()
		if !ok {
			break
		}
		pkt.Release()
	}
	if got, want := a.Rec.Received(), int64(hdr.Total/MaxPayload); got != want {
		t.Fatalf("%d packets queued for a %d-packet message", got, want)
	}
	if live, _ := bufpool.Live(); live != live0 {
		t.Fatalf("%d pooled buffers live, %d before: a refused segment kept its slab", live, live0)
	}
}

// The wire reader retries every Deliver error as backpressure, so a frame
// its decoder accepts must never be refused for good: the packet's narrow
// origin has the frame's widths (task uint32, context uint16), and a
// forged origin at their top is delivered intact, as it was when the
// element stored a whole Header.
func TestDeliverRemoteForgedOrigin(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a 32-bit int cannot hold the frame's largest task")
	}
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	forged := TaskAddr{Task: math.MaxUint32, Ctx: math.MaxUint16}
	hdr := Header{Dispatch: 1, Origin: forged, Total: 8, Meta: []byte("m")}
	if n, err := f.DeliverRemoteBurst(TaskAddr{0, 0}, hdr, []byte("12345678")); err != nil || n != 8 {
		t.Fatalf("forged origin %v: n=%d err=%v, want delivery", forged, n, err)
	}
	pkt, ok := dst.Rec.Poll()
	if !ok || pkt.Header().Origin != forged || string(pkt.Payload()) != "12345678" {
		t.Fatalf("polled ok=%v origin=%v payload=%q", ok, pkt.Header().Origin, pkt.Payload())
	}
	pkt.Release()
}
