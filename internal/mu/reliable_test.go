package mu

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/fault"
	"pamigo/internal/health"
	"pamigo/internal/torus"
)

func fill(buf []byte) {
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
}

func installPlan(t *testing.T, f *Fabric, plan fault.Plan, seed int64) *fault.Injector {
	t.Helper()
	inj, err := fault.NewInjector(f.Dims(), plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	f.InstallFaults(inj)
	t.Cleanup(f.Close)
	return inj
}

// watchHealth makes a health monitor f's membership record, as the
// machine does. The scanner never starts; tests declare deaths and
// revivals themselves.
func watchHealth(t *testing.T, f *Fabric) *health.Monitor {
	t.Helper()
	hmon, err := health.NewMonitor(health.Config{Nodes: f.Dims().Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	f.SetHealth(hmon)
	return hmon
}

// drainFlow polls the reception FIFO until the expected number of
// packets arrived, reassembling payload bytes by offset.
func drainPackets(t *testing.T, fifo *RecFIFO, want int, deadline time.Duration) []Packet {
	t.Helper()
	var got []Packet
	stop := time.Now().Add(deadline)
	for len(got) < want {
		if p, ok := fifo.Poll(); ok {
			got = append(got, p)
			continue
		}
		if time.Now().After(stop) {
			t.Fatalf("timed out with %d of %d packets", len(got), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return got
}

func relCounter(t *testing.T, f *Fabric, name string) int64 {
	t.Helper()
	v, _ := f.Telemetry().Snapshot().Counter("reliable." + name)
	return v
}

// With an inactive reliable layer the fast path applies: PktSeq and the
// checksum stay zero.
func TestFaultFreeFastPath(t *testing.T) {
	f := newTestFabric(t)
	res := setupEndpoint(t, f, 1, 1, 0)
	src := setupEndpoint(t, f, 0, 0, 0)
	payload := make([]byte, 3*MaxPayload)
	fill(payload)
	hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: 9}
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, payload); err != nil {
		t.Fatal(err)
	}
	got := drainPackets(t, res.Rec, 3, time.Second)
	for _, p := range got {
		if p.Header().PktSeq != 0 || p.Header().Checksum != 0 {
			t.Fatalf("fast-path packet carries reliable-layer fields: %+v", p.Header())
		}
	}
	if f.Injector() != nil {
		t.Fatal("injector reported with faults off")
	}
}

// A death declared on the monitor fails the next send fast; after the
// revival, in the machine's order (flows torn down while the monitor
// still says dead, then the monitor revives), the first send opens a
// fresh flow at sequence 1 and is delivered.
func TestReviveOpensFreshFlow(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	hmon := watchHealth(t, f)
	installPlan(t, f, fault.Plan{}, 1)
	send := func(seq uint64) error {
		hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}, Seq: seq}
		return f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, hdr, []byte("8 bytes!"))
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := send(seq); err != nil {
			t.Fatal(err)
		}
	}
	drainPackets(t, dst.Rec, 3, time.Second)

	hmon.DeclareDead(0)
	if err := send(4); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("send to a dead node: %v, want ErrPeerDead", err)
	}
	f.ReviveNode(0)
	hmon.Revive(0)
	if err := send(5); err != nil {
		t.Fatalf("first send after the revival: %v", err)
	}
	p := drainPackets(t, dst.Rec, 1, time.Second)[0]
	if h := p.Header(); h.Seq != 5 || h.PktSeq != 1 {
		t.Fatalf("delivered message %d at flow sequence %d, want message 5 at sequence 1", h.Seq, h.PktSeq)
	}
	p.Release()
}

// Under a heavy fault mix every packet still arrives exactly once, in
// order, byte-exact.
func TestReliableDeliveryUnderFaults(t *testing.T) {
	f := newTestFabric(t)
	res := setupEndpoint(t, f, 1, 1, 0)
	src := setupEndpoint(t, f, 0, 0, 0)
	installPlan(t, f, fault.Plan{Drop: 0.10, Corrupt: 0.10, Duplicate: 0.10, Delay: 0.05}, 1234)

	const msgs = 40
	payloadLen := 3*MaxPayload + 17
	for m := 0; m < msgs; m++ {
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = byte(m + i)
		}
		hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: uint64(m), Meta: []byte{byte(m)}}
		if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, payload); err != nil {
			t.Fatal(err)
		}
	}
	perMsg := (payloadLen + MaxPayload - 1) / MaxPayload
	got := drainPackets(t, res.Rec, msgs*perMsg, 10*time.Second)

	// Strict in-order: messages arrive in injection order, chunks in
	// offset order, payloads byte-exact.
	idx := 0
	for m := 0; m < msgs; m++ {
		for off := 0; off < payloadLen; off += MaxPayload {
			p := got[idx]
			idx++
			if p.Header().Seq != uint64(m) || p.Header().Offset != off {
				t.Fatalf("packet %d is (msg %d, off %d), want (msg %d, off %d)",
					idx-1, p.Header().Seq, p.Header().Offset, m, off)
			}
			end := off + MaxPayload
			if end > payloadLen {
				end = payloadLen
			}
			want := make([]byte, end-off)
			for i := range want {
				want[i] = byte(m + off + i)
			}
			if !bytes.Equal(p.Payload(), want) {
				t.Fatalf("msg %d off %d corrupted after reassembly", m, off)
			}
		}
	}
	if relCounter(t, f, "retransmits") == 0 {
		t.Error("10% drop rate produced zero retransmits")
	}
	if relCounter(t, f, "corrupt_drops") == 0 {
		t.Error("10% corruption produced zero CRC drops")
	}
	if relCounter(t, f, "dup_drops") == 0 {
		t.Error("10% duplication produced zero dup drops")
	}
}

// With faults installed but an all-zero probability plan, delivery is
// clean: no retransmits, no drops — the acceptance criterion that the
// protocol itself adds no spurious recovery.
func TestInstalledButQuiescentPlan(t *testing.T) {
	f := newTestFabric(t)
	res := setupEndpoint(t, f, 1, 1, 0)
	src := setupEndpoint(t, f, 0, 0, 0)
	// A stall window that never triggers keeps the plan "active" while
	// injecting nothing.
	installPlan(t, f, fault.Plan{Stalls: []fault.Stall{{Node: 3, From: 1 << 40, To: 1<<40 + 1}}}, 5)
	payload := make([]byte, 2*MaxPayload)
	fill(payload)
	hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}}
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, payload); err != nil {
		t.Fatal(err)
	}
	got := drainPackets(t, res.Rec, 2, time.Second)
	var scratch [hdrBytes]byte
	for i, p := range got {
		if p.Header().PktSeq != uint64(i+1) {
			t.Fatalf("packet %d has PktSeq %d", i, p.Header().PktSeq)
		}
		if packetChecksum(&scratch, &p) != p.Header().Checksum {
			t.Fatalf("packet %d checksum wrong", i)
		}
	}
	if n := relCounter(t, f, "retransmits"); n != 0 {
		t.Errorf("clean plan produced %d retransmits", n)
	}
}

// A stalled receiver refuses traffic for a window; the link's wait must
// push the packets through once the window passes.
func TestStallRecovery(t *testing.T) {
	f := newTestFabric(t)
	res := setupEndpoint(t, f, 1, 1, 0)
	src := setupEndpoint(t, f, 0, 0, 0)
	installPlan(t, f, fault.Plan{Stalls: []fault.Stall{{Node: 1, From: 0, To: 4}}}, 6)
	payload := make([]byte, 2*MaxPayload)
	fill(payload)
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0},
		Header{Dispatch: 1, Origin: TaskAddr{0, 0}}, payload); err != nil {
		t.Fatal(err)
	}
	drainPackets(t, res.Rec, 2, 5*time.Second)
	if relCounter(t, f, "stall_drops") == 0 {
		t.Error("stall window never refused a packet")
	}
}

// Killing a cable mid-run must reroute traffic (longer hop counts, a
// reroutes counter) while delivery stays exact; partitioning returns
// ErrNoRoute.
func TestLinkDownRerouteAndPartition(t *testing.T) {
	f, err := NewFabric(torus.Dims{4, 1, 1, 1, 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	f.TrackHops = true
	res := setupEndpoint(t, f, 1, 1, 0)
	_ = res
	src := setupEndpoint(t, f, 0, 0, 0)
	installPlan(t, f, fault.Plan{
		LinkDowns: []fault.LinkDown{{Node: 0, Link: torus.Link{Dim: torus.DimA, Dir: +1}}},
	}, 7)

	payload := make([]byte, 8)
	fill(payload)
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0},
		Header{Dispatch: 1, Origin: TaskAddr{0, 0}}, payload); err != nil {
		t.Fatal(err)
	}
	drainPackets(t, res.Rec, 1, time.Second)
	if relCounter(t, f, "reroutes") == 0 {
		t.Error("dead direct cable produced no reroute")
	}
	// The 0->1 detour must go the long way round: 3 hops, not 1.
	if hops := f.Snapshot().Hops; hops != 3 {
		t.Errorf("detoured delivery accounted %d hops, want 3", hops)
	}
	if relCounter(t, f, "link_down_events") != 1 {
		t.Error("link-down event not counted")
	}
}

func TestPartitionReturnsErrNoRoute(t *testing.T) {
	f, err := NewFabric(torus.Dims{2, 1, 1, 1, 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	setupEndpoint(t, f, 1, 1, 0)
	src := setupEndpoint(t, f, 0, 0, 0)
	installPlan(t, f, fault.Plan{LinkDowns: []fault.LinkDown{
		{Node: 0, Link: torus.Link{Dim: torus.DimA, Dir: +1}},
		{Node: 0, Link: torus.Link{Dim: torus.DimA, Dir: -1}},
	}}, 8)
	err = f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0},
		Header{Dispatch: 1, Origin: TaskAddr{0, 0}}, []byte{1})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("partitioned send returned %v, want ErrNoRoute", err)
	}
}

// RDMA operations complete exactly-once under faults: the final buffer
// holds one clean copy regardless of injected retries.
func TestRDMAUnderFaults(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 1, 1, 0)
	_ = dst
	src := setupEndpoint(t, f, 0, 0, 0)
	installPlan(t, f, fault.Plan{Drop: 0.2, Corrupt: 0.2}, 9)

	target := make([]byte, 4*MaxPayload)
	f.RegisterMemregion(1, 1, target)
	data := make([]byte, 4*MaxPayload)
	fill(data)
	if err := f.InjectPut(src.PinnedInj(1), 0, data, TaskAddr{1, 0}, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(target, data) {
		t.Fatal("put delivered wrong bytes under faults")
	}

	back := make([]byte, 4*MaxPayload)
	if err := f.InjectRemoteGet(src.PinnedInj(1), TaskAddr{0, 0}, 1, 1, 0, back, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("remote get read wrong bytes under faults")
	}
	if relCounter(t, f, "retransmits") == 0 {
		t.Error("20% drop+corrupt produced zero RDMA retries")
	}
}

func TestTypedErrors(t *testing.T) {
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	err := f.InjectMemFIFO(src.PinnedInj(9), TaskAddr{9, 0}, Header{Origin: TaskAddr{0, 0}}, nil)
	if !errors.Is(err, ErrNoSuchContext) {
		t.Errorf("unregistered endpoint: %v, want ErrNoSuchContext", err)
	}
	err = f.InjectPut(src.Inj[0], 0, []byte{1}, TaskAddr{1, 0}, 77, 0, nil)
	if !errors.Is(err, ErrNoSuchMemregion) {
		t.Errorf("unregistered memregion: %v, want ErrNoSuchMemregion", err)
	}
	f.RegisterMemregion(1, 1, make([]byte, 4))
	err = f.InjectPut(src.Inj[0], 0, []byte{1, 2, 3, 4, 5}, TaskAddr{1, 0}, 1, 0, nil)
	if !errors.Is(err, ErrMemregionBounds) {
		t.Errorf("overrun put: %v, want ErrMemregionBounds", err)
	}
	err = f.InjectRemoteGet(src.Inj[0], TaskAddr{0, 0}, 1, 1, 2, make([]byte, 4), nil)
	if !errors.Is(err, ErrMemregionBounds) {
		t.Errorf("overrun get: %v, want ErrMemregionBounds", err)
	}
	n := f.Node(0)
	if _, err := n.AllocContext(InjFIFOsPerNode, nil); err == nil {
		if _, err2 := n.AllocContext(1, nil); !errors.Is(err2, ErrNoInjFIFO) {
			t.Errorf("FIFO exhaustion: %v, want ErrNoInjFIFO", err2)
		}
	}
}

// buildPacket packetizes a one-packet message the way every leg does.
func buildPacket(hdr Header, payload []byte) Packet {
	var p Packet
	nextPacket(&p, &hdr, payload, slabFor(&hdr, payload, nil, MaxPayload), MaxPayload)
	return p
}

// A flipped byte fails the CRC wherever the byte lives: in the packet
// (inline) or in a slab, payload or metadata; and the corrupted copy
// never writes the bytes the sender keeps for retransmission.
func TestChecksumDetectsEveryByteFlip(t *testing.T) {
	live0, _ := bufpool.Live()
	var scratch [hdrBytes]byte
	for _, c := range []struct{ meta, payload int }{
		{2, 8}, {16, InlineMax - 16}, // inline
		{2, InlineMax}, {0, MaxPayload}, // slabs
		{7, 0}, {InlineMax + 1, 0}, // metadata only: inline, slab
	} {
		hdr := Header{Dispatch: 3, Origin: TaskAddr{1, 2}, Seq: 4, Total: c.payload, Meta: testMessage(9, 9, c.meta), PktSeq: 5}
		payload := testMessage(1, 2, c.payload)
		p := buildPacket(hdr, payload)
		if inline := p.pbuf == nil && p.mbuf == nil; inline != (c.meta+c.payload <= InlineMax) {
			t.Fatalf("meta %d + payload %d: inline = %v", c.meta, c.payload, inline)
		}
		p.checksum = packetChecksum(&scratch, &p)
		for i := 0; i < max(c.meta, c.payload); i++ {
			for _, pick := range []uint64{uint64(i), uint64(i) | 0xab00} {
				q := corruptCopy(&p, pick)
				if packetChecksum(&scratch, &q) == q.checksum {
					t.Fatalf("meta %d + payload %d: corruption (pick %#x) not detected", c.meta, c.payload, pick)
				}
				q.Release()
				if !bytes.Equal(p.Payload(), payload) || !bytes.Equal(p.Meta(), hdr.Meta) || packetChecksum(&scratch, &p) != p.checksum {
					t.Fatalf("meta %d + payload %d: corrupting a copy changed the original", c.meta, c.payload)
				}
			}
		}
		p.Release()
	}
	// Empty packets corrupt the checksum field itself.
	e := buildPacket(Header{Origin: TaskAddr{0, 1}, PktSeq: 1}, nil)
	e.checksum = packetChecksum(&scratch, &e)
	if c := corruptCopy(&e, 0x1234); packetChecksum(&scratch, &c) == c.checksum {
		t.Fatal("empty-packet corruption not detected")
	}
	if live, _ := bufpool.Live(); live != live0 {
		t.Fatalf("%d pooled buffers live, %d before", live, live0)
	}
}

// Closing the fabric is idempotent and unblocks nothing unexpected.
func TestCloseIdempotent(t *testing.T) {
	f := newTestFabric(t)
	f.Close() // no faults installed: no-op
	inj, err := fault.NewInjector(f.Dims(), fault.Plan{Drop: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.InstallFaults(inj)
	f.Close()
	f.Close()
	src := setupEndpoint(t, f, 0, 0, 0)
	setupEndpoint(t, f, 1, 1, 0)
	if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0},
		Header{Origin: TaskAddr{0, 0}}, nil); !errors.Is(err, ErrFabricClosed) {
		t.Errorf("send on closed fabric: %v, want ErrFabricClosed", err)
	}
}

// Many concurrent flows under faults: the links must not deadlock, and
// every flow's bytes arrive intact (run with -race).
func TestConcurrentFlowsUnderFaults(t *testing.T) {
	f := newTestFabric(t)
	recs := make([]*ContextResources, 4)
	for task := 0; task < 4; task++ {
		recs[task] = setupEndpoint(t, f, task, torus.Rank(task), 0)
	}
	installPlan(t, f, fault.Plan{Drop: 0.08, Corrupt: 0.05, Duplicate: 0.05, Delay: 0.03}, 99)

	const msgsPerPair = 10
	payload := make([]byte, MaxPayload+3)
	fill(payload)
	done := make(chan error, 4)
	for src := 0; src < 4; src++ {
		go func(src int) {
			for m := 0; m < msgsPerPair; m++ {
				for dst := 0; dst < 4; dst++ {
					if dst == src {
						continue
					}
					hdr := Header{Dispatch: 1, Origin: TaskAddr{src, 0}, Seq: uint64(m)}
					if err := f.InjectMemFIFO(recs[src].PinnedInj(dst), TaskAddr{dst, 0}, hdr, payload); err != nil {
						done <- fmt.Errorf("task %d: %v", src, err)
						return
					}
				}
			}
			done <- nil
		}(src)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	perMsg := 2 // MaxPayload+3 bytes -> 2 packets
	for task := 0; task < 4; task++ {
		got := drainPackets(t, recs[task].Rec, 3*msgsPerPair*perMsg, 10*time.Second)
		for _, p := range got {
			end := p.Header().Offset + MaxPayload
			if end > len(payload) {
				end = len(payload)
			}
			if !bytes.Equal(p.Payload(), payload[p.Header().Offset:end]) {
				t.Fatalf("task %d received corrupted chunk at offset %d", task, p.Header().Offset)
			}
		}
	}
}
