package mu

import (
	"bytes"
	"sync"
	"testing"

	"pamigo/internal/l2atomic"
	"pamigo/internal/torus"
)

var dims = torus.Dims{2, 2, 1, 1, 1}

func newTestFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := NewFabric(dims, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// setupEndpoint allocates context resources on a node and registers them
// for the given endpoint address.
func setupEndpoint(t *testing.T, f *Fabric, task int, node torus.Rank, ctx int) *ContextResources {
	t.Helper()
	f.MapTask(task, node)
	res, err := f.Node(node).AllocContext(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.RegisterContext(TaskAddr{task, ctx}, res.Rec)
	return res
}

func TestAllocContextExclusive(t *testing.T) {
	f := newTestFabric(t)
	n := f.Node(0)
	a, err := n.AllocContext(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AllocContext(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rec.ID() == b.Rec.ID() {
		t.Fatal("two contexts share a reception FIFO")
	}
	ids := map[int]bool{}
	for _, fi := range append(a.Inj, b.Inj...) {
		if ids[fi.ID()] {
			t.Fatalf("injection FIFO %d assigned twice", fi.ID())
		}
		ids[fi.ID()] = true
	}
	if n.InjFIFOsUsed() != 16 {
		t.Fatalf("InjFIFOsUsed = %d", n.InjFIFOsUsed())
	}
}

func TestAllocContextExhaustsInjFIFOs(t *testing.T) {
	f := newTestFabric(t)
	n := f.Node(0)
	if _, err := n.AllocContext(InjFIFOsPerNode, nil); err != nil {
		t.Fatalf("allocating all FIFOs failed: %v", err)
	}
	if _, err := n.AllocContext(1, nil); err == nil {
		t.Fatal("over-allocation succeeded")
	}
}

func TestAllocContextRejectsZeroInj(t *testing.T) {
	f := newTestFabric(t)
	if _, err := f.Node(0).AllocContext(0, nil); err == nil {
		t.Fatal("zero injection FIFOs accepted")
	}
}

func TestPinnedInjStable(t *testing.T) {
	f := newTestFabric(t)
	res := setupEndpoint(t, f, 0, 0, 0)
	for dst := 0; dst < 20; dst++ {
		first := res.PinnedInj(dst)
		for i := 0; i < 5; i++ {
			if res.PinnedInj(dst) != first {
				t.Fatalf("pinned FIFO for destination %d changed", dst)
			}
		}
	}
}

func TestMemFIFOSmallMessage(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	hdr := Header{Dispatch: 7, Origin: TaskAddr{0, 0}, Seq: 1, Meta: []byte("envelope")}
	payload := []byte("hello torus")
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, payload); err != nil {
		t.Fatal(err)
	}
	p, ok := dst.Rec.Poll()
	if !ok {
		t.Fatal("no packet delivered")
	}
	if p.Header().Dispatch != 7 || p.Header().Seq != 1 || string(p.Header().Meta) != "envelope" {
		t.Fatalf("header corrupted: %+v", p.Header())
	}
	if p.Header().Total != len(payload) || p.Header().Offset != 0 {
		t.Fatalf("reassembly coords wrong: %+v", p.Header())
	}
	if !bytes.Equal(p.Payload(), payload) {
		t.Fatalf("payload corrupted: %q", p.Payload())
	}
	if _, ok := dst.Rec.Poll(); ok {
		t.Fatal("spurious extra packet")
	}
}

func TestMemFIFOPacketization(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	payload := make([]byte, 3*MaxPayload+100)
	for i := range payload {
		payload[i] = byte(i)
	}
	hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: 9, Meta: []byte("m")}
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	pkts := 0
	for {
		p, ok := dst.Rec.Poll()
		if !ok {
			break
		}
		pkts++
		if p.Header().Offset != 0 && p.Header().Meta != nil {
			t.Fatal("metadata duplicated beyond the first packet")
		}
		if p.Header().Total != len(payload) {
			t.Fatalf("packet Total = %d", p.Header().Total)
		}
		if len(p.Payload()) > MaxPayload {
			t.Fatalf("packet payload %dB exceeds the %dB maximum", len(p.Payload()), MaxPayload)
		}
		copy(got[p.Header().Offset:], p.Payload())
	}
	if pkts != 4 {
		t.Fatalf("message split into %d packets, want 4", pkts)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}
}

func TestMemFIFOZeroBytes(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	hdr := Header{Dispatch: 3, Origin: TaskAddr{0, 0}, Meta: []byte("tagonly")}
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, nil); err != nil {
		t.Fatal(err)
	}
	p, ok := dst.Rec.Poll()
	if !ok || len(p.Payload()) != 0 || p.Header().Total != 0 {
		t.Fatalf("zero-byte message mangled: ok=%v %+v", ok, p)
	}
}

func TestMemFIFOSenderBufferReusable(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	payload := []byte("original")
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, Header{Origin: TaskAddr{0, 0}}, payload); err != nil {
		t.Fatal(err)
	}
	copy(payload, "CLOBBER!")
	p, _ := dst.Rec.Poll()
	if string(p.Payload()) != "original" {
		t.Fatalf("in-flight payload aliased the sender buffer: %q", p.Payload())
	}
}

func TestMemFIFOUnknownEndpoint(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	if err := f.InjectMemFIFO(src.PinnedInj(9), TaskAddr{9, 0}, Header{}, nil); err == nil {
		t.Fatal("send to unregistered endpoint succeeded")
	}
}

func TestMemFIFOOrderingPerSource(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, Header{Origin: TaskAddr{0, 0}, Seq: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		p, ok := dst.Rec.Poll()
		if !ok || p.Header().Seq != i {
			t.Fatalf("packet %d out of order: ok=%v seq=%d", i, ok, p.Header().Seq)
		}
	}
}

func TestPut(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	setupEndpoint(t, f, 1, 1, 0)
	target := make([]byte, 64)
	f.RegisterMemregion(1, 5, target)
	var done l2atomic.Counter
	data := []byte("rdma write payload")
	if err := f.InjectPut(src.PinnedInj(1), 0, data, TaskAddr{1, 0}, 5, 8, &done); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(target[8:8+len(data)], data) {
		t.Fatal("put did not land at the right offset")
	}
	if done.Load() != int64(len(data)) {
		t.Fatalf("completion counter = %d, want %d", done.Load(), len(data))
	}
}

func TestPutBoundsChecked(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	setupEndpoint(t, f, 1, 1, 0)
	f.RegisterMemregion(1, 5, make([]byte, 16))
	if err := f.InjectPut(src.PinnedInj(1), 0, make([]byte, 32), TaskAddr{1, 0}, 5, 0, nil); err == nil {
		t.Fatal("overrunning put accepted")
	}
	if err := f.InjectPut(src.PinnedInj(1), 0, make([]byte, 8), TaskAddr{1, 0}, 5, -1, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := f.InjectPut(src.PinnedInj(1), 0, nil, TaskAddr{1, 0}, 99, 0, nil); err == nil {
		t.Fatal("put to unknown memregion accepted")
	}
}

func TestRemoteGet(t *testing.T) {
	f := newTestFabric(t)
	initiator := setupEndpoint(t, f, 0, 0, 0)
	setupEndpoint(t, f, 1, 1, 0)
	source := []byte("0123456789abcdef")
	f.RegisterMemregion(1, 77, source)
	dst := make([]byte, 6)
	var done l2atomic.Counter
	if err := f.InjectRemoteGet(initiator.PinnedInj(1), TaskAddr{0, 0}, 1, 77, 10, dst, &done); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "abcdef" {
		t.Fatalf("remote get fetched %q", dst)
	}
	if done.Load() != 6 {
		t.Fatalf("completion counter = %d", done.Load())
	}
}

func TestRemoteGetBounds(t *testing.T) {
	f := newTestFabric(t)
	initiator := setupEndpoint(t, f, 0, 0, 0)
	f.RegisterMemregion(1, 77, make([]byte, 8))
	if err := f.InjectRemoteGet(initiator.PinnedInj(1), TaskAddr{0, 0}, 1, 77, 4, make([]byte, 8), nil); err == nil {
		t.Fatal("overrunning remote get accepted")
	}
	if err := f.InjectRemoteGet(initiator.PinnedInj(1), TaskAddr{0, 0}, 1, 99, 0, make([]byte, 1), nil); err == nil {
		t.Fatal("remote get from unknown memregion accepted")
	}
}

func TestMemregionLifecycle(t *testing.T) {
	f := newTestFabric(t)
	buf := make([]byte, 4)
	f.RegisterMemregion(3, 1, buf)
	if got, ok := f.Memregion(3, 1); !ok || len(got) != 4 {
		t.Fatal("registered memregion not found")
	}
	f.RegisterMemregion(4, 2, buf)
	if _, ok := f.Memregion(4, 1); ok {
		t.Fatal("task 3's memregion resolves under task 4")
	}
	f.DeregisterMemregion(3, 1)
	if _, ok := f.Memregion(3, 1); ok {
		t.Fatal("deregistered memregion still visible")
	}
}

func TestWakeupTouchedOnDelivery(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	before, _ := dst.Rec.Region().Stats()
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, Header{Origin: TaskAddr{0, 0}}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	after, _ := dst.Rec.Region().Stats()
	if after != before+1 {
		t.Fatalf("delivery touched region %d times, want 1", after-before)
	}
}

func TestStats(t *testing.T) {
	f := newTestFabric(t)
	f.TrackHops = true
	src := setupEndpoint(t, f, 0, 0, 0)
	setupEndpoint(t, f, 1, 3, 0) // node 3 is two hops from node 0 in 2x2x1x1x1
	payload := make([]byte, MaxPayload+1)
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, Header{Origin: TaskAddr{0, 0}}, payload); err != nil {
		t.Fatal(err)
	}
	s := f.Snapshot()
	if s.MemFIFOSends != 1 || s.Packets != 2 {
		t.Fatalf("stats: %+v", s)
	}
	wantHops := int64(2 * dims.Hops(0, 3))
	if s.Hops != wantHops {
		t.Fatalf("hops = %d, want %d", s.Hops, wantHops)
	}
	if s.Bytes != int64(len(payload))+2*PacketHeaderBytes {
		t.Fatalf("bytes = %d", s.Bytes)
	}
}

func TestConcurrentSendersOneReceiver(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 9, 0, 0)
	const senders = 8
	const per = 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		res := setupEndpoint(t, f, s, torus.Rank(s%dims.Nodes()), 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				hdr := Header{Origin: TaskAddr{s, 0}, Seq: i}
				if err := f.InjectMemFIFO(res.PinnedInj(9), TaskAddr{9, 0}, hdr, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	lastSeq := make([]int64, senders)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	received := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for received < senders*per {
		p, ok := dst.Rec.Poll()
		if !ok {
			select {
			case <-done:
			default:
			}
			continue
		}
		src := p.Header().Origin.Task
		if int64(p.Header().Seq) <= lastSeq[src] {
			t.Fatalf("per-source order violated for task %d: %d after %d", src, p.Header().Seq, lastSeq[src])
		}
		lastSeq[src] = int64(p.Header().Seq)
		received++
	}
}
