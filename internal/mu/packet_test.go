package mu

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"unsafe"

	"pamigo/internal/bufpool"
	"pamigo/internal/fault"
)

// The element budget (DESIGN §7): the reception-FIFO element stays two
// cache lines, and the inline area it makes room for holds the MPI
// envelope + 8 B, the 47 B rendezvous RTS and the ack.
func TestPacketFitsBudget(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 128 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, budget is 128", n)
	}
	if InlineMax < 48 {
		t.Fatalf("InlineMax = %d, want at least 48", InlineMax)
	}
}

func liveBufs() int64 { n, _ := bufpool.Live(); return n }

// checkMessage polls one message's packets off fifo and checks them
// against what was injected: the tiling in packets of at most size bytes
// (Offset, Total, one packet for an empty message), metadata on the
// first packet only, the bytes exact.
func checkMessage(t *testing.T, where string, fifo *RecFIFO, meta, payload []byte, size int) {
	t.Helper()
	got := make([]byte, 0, len(payload))
	for i := 0; i < packetsFor(len(payload), size); i++ {
		p, ok := fifo.Poll()
		if !ok {
			t.Fatalf("%s: packet %d of %d missing", where, i, packetsFor(len(payload), size))
		}
		h, chunk := p.Header(), p.Payload()
		if h.Total != len(payload) || h.Offset != i*size || len(chunk) != min(size, len(payload)-h.Offset) {
			t.Fatalf("%s: packet %d: offset %d, total %d, %d bytes", where, i, h.Offset, h.Total, len(chunk))
		}
		if want := meta[:len(meta)*(1-min(i, 1))]; !bytes.Equal(h.Meta, want) || !bytes.Equal(p.Meta(), want) {
			t.Fatalf("%s: packet %d carries %d metadata bytes, want %d", where, i, len(h.Meta), len(want))
		}
		if inline := p.pbuf == nil && p.mbuf == nil; inline != (len(h.Meta)+len(chunk) <= InlineMax) {
			t.Fatalf("%s: packet %d (%d+%d bytes): inline = %v", where, i, len(h.Meta), len(chunk), inline)
		}
		got = append(got, chunk...)
		p.Release()
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("%s: payload differs", where)
	}
	if p, ok := fifo.Poll(); ok {
		t.Fatalf("%s: extra packet %+v", where, p.Header())
	}
}

// packWhole is the shared-memory leg as shmem.Node builds its element —
// the whole message, one packet — delivered onto dst's reception FIFO.
func packWhole(f *Fabric, dst TaskAddr, hdr Header, payload []byte, own *bufpool.Buf) error {
	var p Packet
	if err := p.PackWhole(hdr, payload, own); err != nil {
		return err
	}
	fifo, err := f.lookupContext(dst)
	if err == nil {
		err = fifo.deliver(&p, false)
	}
	if err != nil {
		p.Release()
	}
	return err
}

// Either side of the inline cut and of the packet cut, through each leg:
// delivery is byte-exact and tiled as ever (the shared-memory leg in one
// packet), an inline-sized message takes no pooled buffer at any point
// (and gives back at once the one it was handed), and every buffer is
// back afterwards.
func TestInlineBoundary(t *testing.T) {
	legs := []struct {
		name     string
		reliable bool
		whole    bool // one packet per message: the shared-memory leg
		inject   func(f *Fabric, inj *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error
	}{
		{"copy-in", false, false, (*Fabric).InjectMemFIFO},
		{"transfer", false, false, func(f *Fabric, inj *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
			return f.InjectMemFIFOBuf(inj, dst, hdr, bufpool.GetCopy(payload))
		}},
		{"reliable copy-in", true, false, (*Fabric).InjectMemFIFO},
		{"reliable transfer", true, false, func(f *Fabric, inj *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
			return f.InjectMemFIFOBuf(inj, dst, hdr, bufpool.GetCopy(payload))
		}},
		{"shared-memory copy-in", false, true, func(f *Fabric, _ *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
			return packWhole(f, dst, hdr, payload, nil)
		}},
		{"shared-memory transfer", false, true, func(f *Fabric, _ *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
			return packWhole(f, dst, hdr, payload, bufpool.GetCopy(payload))
		}},
		{"wire", false, false, func(f *Fabric, _ *InjFIFO, dst TaskAddr, hdr Header, payload []byte) error {
			hdr.Total = len(payload)
			n, err := f.DeliverRemoteBurst(dst, hdr, payload)
			f.EndRemoteBurst([]TaskAddr{dst})
			if err == nil && n != len(payload) {
				err = fmt.Errorf("consumed %d of %d bytes", n, len(payload))
			}
			return err
		}},
	}
	for _, leg := range legs {
		f := newTestFabric(t)
		dst := setupEndpoint(t, f, 0, 0, 0)
		src := setupEndpoint(t, f, 1, 1, 0)
		if leg.reliable {
			installPlan(t, f, fault.Plan{}, 1)
		}
		seq := uint64(0)
		for _, psize := range []int{0, 1, InlineMax - 1, InlineMax, InlineMax + 1, 512, 513, 4096} {
			for _, msize := range []int{0, 16, 47, InlineMax, InlineMax + 1} {
				where := fmt.Sprintf("%s: %d B payload, %d B meta", leg.name, psize, msize)
				seq++
				meta, payload := testMessage(7, int(seq), msize), testMessage(1, int(seq), psize)
				live0 := liveBufs()
				hdr := Header{Dispatch: 2, Origin: TaskAddr{1, 0}, Seq: seq, Meta: meta}
				if err := leg.inject(f, src.PinnedInj(0), TaskAddr{0, 0}, hdr, payload); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if inFlight := liveBufs() - live0; msize+psize <= InlineMax && inFlight != 0 {
					t.Fatalf("%s: %d pooled buffers in flight for an inline message", where, inFlight)
				}
				size := MaxPayload
				if leg.whole {
					size = max(1, len(payload))
				}
				checkMessage(t, where, dst.Rec, meta, payload, size)
				if leg.reliable {
					mustQuiesce(t, f, where)
				}
				if live := liveBufs(); live != live0 {
					t.Fatalf("%s: %d pooled buffers live, %d before", where, live, live0)
				}
			}
		}
		f.Close()
	}
}

// A view of an inline packet points into the value it was taken from: a
// by-value copy (a reception FIFO's cell, the reliable link's corrupt
// copy) reads its own bytes whatever happens to the original.
func TestInlineViewsFollowTheCopy(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	send := func(meta, payload string) {
		t.Helper()
		hdr := Header{Origin: TaskAddr{1, 0}, Meta: []byte(meta)}
		if err := f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, hdr, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	send("first-meta", "first-payload")
	send("other", "the second message")
	p, _ := dst.Rec.Poll()
	q := p
	p, _ = dst.Rec.Poll() // the original is overwritten, as a drain scratch element is
	if string(p.Payload()) != "the second message" || string(p.Meta()) != "other" {
		t.Fatalf("original now reads %q / %q", p.Meta(), p.Payload())
	}
	if string(q.Payload()) != "first-payload" || string(q.Meta()) != "first-meta" || string(q.Header().Meta) != "first-meta" {
		t.Fatalf("copy reads %q / %q after the original changed", q.Meta(), q.Payload())
	}
	for _, view := range [][]byte{q.Payload(), q.Meta()} {
		if off := uintptr(unsafe.Pointer(&view[0])) - uintptr(unsafe.Pointer(&q)); off >= unsafe.Sizeof(q) {
			t.Fatal("a view of the copy does not point into the copy")
		}
	}
}

// Injection consumes the relinquished reference, and for an inline-sized
// message it does so before it returns, on the calling goroutine,
// whatever the outcome. The test keeps a second reference to watch the
// first one go.
func TestDataBufReleasedBySender(t *testing.T) {
	hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}}
	relinquish := func() *bufpool.Buf {
		b := bufpool.GetCopy([]byte("8 bytes!"))
		b.Retain()
		return b
	}
	check := func(name string, b *bufpool.Buf) {
		t.Helper()
		if refs := b.Refs(); refs != 1 {
			t.Fatalf("%s: %d references left on the relinquished buffer besides the test's, want none", name, refs-1)
		}
		b.Release()
	}

	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	b := relinquish()
	if err := f.InjectMemFIFOBuf(src.PinnedInj(0), TaskAddr{0, 0}, hdr, b); err != nil {
		t.Fatal(err)
	}
	copy(b.Bytes(), "CLOBBER!") // the slab is the sender's again
	check("success", b)
	if p, _ := dst.Rec.Poll(); string(p.Payload()) != "8 bytes!" {
		t.Fatalf("delivered %q", p.Payload())
	}

	dst.Rec.SetOverflowCap(1)
	var err error
	for i := 0; err == nil; i++ {
		if i > 2*dst.Rec.ArrayCap() {
			t.Fatal("the FIFO never refused")
		}
		b = relinquish()
		if err = f.InjectMemFIFOBuf(src.PinnedInj(0), TaskAddr{0, 0}, hdr, b); err == nil {
			b.Release()
		}
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatal(err)
	}
	check("ErrBackpressure", b)

	f = newTestFabric(t)
	setupEndpoint(t, f, 0, 0, 0)
	src = setupEndpoint(t, f, 1, 1, 0)
	hmon := watchHealth(t, f)
	installPlan(t, f, fault.Plan{}, 1)
	hmon.DeclareDead(0)
	b = relinquish()
	if err := f.InjectMemFIFOBuf(src.PinnedInj(0), TaskAddr{0, 0}, hdr, b); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("send to a dead node: %v", err)
	}
	check("ErrPeerDead", b)
}

// The wire leg copies a small segment from the reader's buffer straight
// into the element: no pooled buffer is taken between the frame and the
// consumer, and a burst of them wakes the consumer once.
func TestDeliverRemoteInline(t *testing.T) {
	f := newTestFabric(t)
	a := setupEndpoint(t, f, 0, 0, 0)
	dst := TaskAddr{0, 0}
	gets := func() int64 { n, _ := bufpool.Telemetry().Snapshot().Counter("gets"); return n }
	gets0, live0 := gets(), liveBufs()
	frame := []byte("........8 bytes!........") // the reader's buffer; the segment is a view of it
	const burst = 5
	for i := 0; i < burst; i++ {
		hdr := Header{Dispatch: 1, Origin: TaskAddr{Task: 2}, Seq: uint64(i), Total: 8, Meta: frame[:8]}
		if n, err := f.DeliverRemoteBurst(dst, hdr, frame[8:16]); err != nil || n != 8 {
			t.Fatalf("n=%d err=%v", n, err)
		}
	}
	copy(frame, "the reader reuses its buffer")
	if n, _ := a.Rec.Region().Stats(); n != 0 {
		t.Fatalf("the burst touched the region %d times before its end", n)
	}
	f.EndRemoteBurst([]TaskAddr{dst})
	if n, _ := a.Rec.Region().Stats(); n != 1 {
		t.Fatalf("the burst's end touched the region %d times, want once", n)
	}
	for i := 0; i < burst; i++ {
		p, ok := a.Rec.Poll()
		if !ok || p.Header().Seq != uint64(i) || string(p.Payload()) != "8 bytes!" || string(p.Meta()) != "........" {
			t.Fatalf("packet %d: ok=%v %+v %q", i, ok, p.Header(), p.Payload())
		}
		p.Release()
	}
	if g, l := gets()-gets0, liveBufs()-live0; g != 0 || l != 0 {
		t.Fatalf("%d bufpool.Get calls and %d live buffers for %d inline segments", g, l, burst)
	}
}

// A message the narrow header cannot describe is refused typed, before a
// byte of it is read, not truncated. The 4 GiB slice is a forged header
// over one byte: touching it would fault.
func TestTooLargeRefused(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("no 4 GiB lengths on this platform")
	}
	var one [1]byte
	forged := struct {
		p        unsafe.Pointer
		len, cap int
	}{unsafe.Pointer(&one), 1 << 32, 1 << 32}
	huge := *(*[]byte)(unsafe.Pointer(&forged))
	for _, reliable := range []bool{false, true} {
		f := newTestFabric(t)
		dst := setupEndpoint(t, f, 0, 0, 0)
		src := setupEndpoint(t, f, 1, 1, 0)
		if reliable {
			installPlan(t, f, fault.Plan{}, 1)
		}
		for name, err := range map[string]error{
			"payload":       f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Origin: TaskAddr{1, 0}}, huge),
			"meta":          f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Origin: TaskAddr{1, 0}, Meta: huge}, nil),
			"origin":        f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Origin: TaskAddr{1, 1 << 16}}, nil),
			"task":          f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Origin: TaskAddr{1 << 32, 0}}, nil),
			"shared memory": packWhole(f, TaskAddr{0, 0}, Header{Origin: TaskAddr{1, 0}}, huge, nil),
			"wire": func() error {
				_, err := f.DeliverRemoteBurst(TaskAddr{0, 0}, Header{Origin: TaskAddr{1, 0}, Total: 1 << 32}, nil)
				return err
			}(),
		} {
			if !errors.Is(err, ErrTooLarge) {
				t.Errorf("reliable=%v: oversize %s: %v, want ErrTooLarge", reliable, name, err)
			}
		}
		if _, ok := dst.Rec.Poll(); ok || dst.Rec.Received() != 0 {
			t.Errorf("reliable=%v: a refused message left a packet behind", reliable)
		}
		f.Close()
	}
}
