package mu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pamigo/internal/bufpool"
	"pamigo/internal/fault"
	"pamigo/internal/torus"
)

// TestCountsExactAcrossLegs runs concurrent producers on every leg that
// enqueues on a reception FIFO — the owner's InjectMemFIFOBuf, an
// any-thread InjectMemFIFO, the wire's DeliverRemoteBurst a message at a
// time and a packet-sized segment at a time — plus RDMA puts and gets,
// against one draining
// consumer, once fault-free and once through the reliable layer. The
// FIFO and fabric keep no per-message counter of their own: Received,
// Occupancy and the snapshot's packets, packets_received,
// mem_fifo_sends, bytes and descriptors_injected are read off the
// queues' tickets and the injection FIFOs' counts. After the drain each
// must equal what an oracle counted on the producer side.
func TestCountsExactAcrossLegs(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		name := "fault-free"
		if reliable {
			name = "reliable"
		}
		t.Run(name, func(t *testing.T) { checkCountsExact(t, reliable) })
	}
}

// countOracle is the producer side's tally of what it put on the fabric.
type countOracle struct {
	sends, rdma, packets, bytes, delivered atomic.Int64
}

// message notes one memory-FIFO message of n payload bytes; delivered
// says it lands in the reception FIFO under test.
func (o *countOracle) message(n int, send bool) {
	p := int64(packetsFor(n, MaxPayload))
	if send {
		o.sends.Add(1)
	}
	o.packets.Add(p)
	o.bytes.Add(int64(n) + p*PacketHeaderBytes)
	o.delivered.Add(p)
}

func checkCountsExact(t *testing.T, reliable bool) {
	const msgs = 300
	sizes := []int{0, 8, 56, 100, 600, 1500}
	f, err := NewFabric(dims, 16) // a small array: the flood spills into overflow
	if err != nil {
		t.Fatal(err)
	}
	if reliable {
		installPlan(t, f, fault.Plan{}, 1)
	}
	dstAddr := TaskAddr{0, 0}
	dst := setupEndpoint(t, f, 0, 0, 0)
	mr := make([]byte, 4*MaxPayload)
	f.RegisterMemregion(0, 1, mr)

	var o countOracle
	legs := []func(res *ContextResources, origin TaskAddr, hdr Header, payload []byte) error{
		func(res *ContextResources, _ TaskAddr, hdr Header, payload []byte) error {
			o.message(len(payload), true)
			return f.InjectMemFIFOBuf(res.PinnedInj(0), dstAddr, hdr, bufpool.GetCopy(payload))
		},
		func(res *ContextResources, _ TaskAddr, hdr Header, payload []byte) error {
			o.message(len(payload), true)
			return f.InjectMemFIFO(res.PinnedInj(0), dstAddr, hdr, payload)
		},
		func(_ *ContextResources, _ TaskAddr, hdr Header, payload []byte) error {
			// The wire's segments: the message in MaxPayload pieces, one
			// burst.
			o.message(len(payload), false)
			hdr.Total = len(payload)
			defer f.EndRemoteBurst([]TaskAddr{dstAddr})
			for more := true; more; more = hdr.Offset < hdr.Total {
				seg := payload[hdr.Offset:min(hdr.Offset+MaxPayload, hdr.Total)]
				if _, err := f.DeliverRemoteBurst(dstAddr, hdr, seg); err != nil {
					return err
				}
				hdr.Offset += len(seg)
			}
			return nil
		},
		func(_ *ContextResources, _ TaskAddr, hdr Header, payload []byte) error {
			o.message(len(payload), false)
			hdr.Total = len(payload)
			_, err := f.DeliverRemoteBurst(dstAddr, hdr, payload)
			f.EndRemoteBurst([]TaskAddr{dstAddr})
			return err
		},
		func(res *ContextResources, origin TaskAddr, _ Header, payload []byte) error {
			// RDMA moves packets on the torus but delivers none to a FIFO.
			p := int64(packetsFor(len(payload), MaxPayload))
			o.rdma.Add(1)
			o.packets.Add(p)
			o.bytes.Add(int64(len(payload)) + p*PacketHeaderBytes)
			if len(payload)%2 == 0 {
				return f.InjectPut(res.PinnedInj(0), origin.Task, payload, dstAddr, 1, 0, nil)
			}
			return f.InjectRemoteGet(res.PinnedInj(0), origin, 0, 1, 0, make([]byte, len(payload)), nil)
		},
	}

	var wg sync.WaitGroup
	for i, leg := range legs {
		origin := TaskAddr{i + 1, 0}
		res := setupEndpoint(t, f, origin.Task, torus.Rank((i+1)%dims.Nodes()), 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 1500)
			for m := 0; m < msgs; m++ {
				n := sizes[m%len(sizes)]
				hdr := Header{Dispatch: 1, Origin: origin, Seq: uint64(m), Meta: payload[:m%3*8]}
				if err := leg(res, origin, hdr, payload[:n]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	batch := make([]Packet, 32)
	var drained int64
	for finished := false; !finished || drained < o.delivered.Load(); {
		select {
		case <-done:
			finished = true
		default:
		}
		k := dst.Rec.PollBatch(batch)
		for j := range batch[:k] {
			batch[j].Release()
		}
		drained += int64(k)
		if k == 0 {
			runtime.Gosched()
		}
		if t.Failed() {
			return
		}
	}

	if got, want := dst.Rec.Received(), o.delivered.Load(); got != want || drained != want {
		t.Errorf("Received() = %d, drained %d, want %d", got, drained, want)
	}
	if cur, hwm := dst.Rec.Occupancy(); cur != 0 || hwm < 1 {
		t.Errorf("Occupancy() = %d (hwm %d) after the drain, want 0 (hwm >= 1)", cur, hwm)
	}
	snap := f.Telemetry().Snapshot()
	counters, gauges := snap.Totals()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"packets_received", counters["packets_received"], o.delivered.Load()},
		{"descriptors_injected", counters["descriptors_injected"], o.sends.Load() + o.rdma.Load()},
		{"occupancy", gauges["occupancy"].Value, 0},
	} {
		if c.got != c.want {
			t.Errorf("snapshot %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	stats := f.Snapshot()
	for _, c := range []struct {
		name       string
		stat, want int64
	}{
		{"packets", stats.Packets, o.packets.Load()},
		{"bytes", stats.Bytes, o.bytes.Load()},
		{"mem_fifo_sends", stats.MemFIFOSends, o.sends.Load()},
	} {
		v, _ := snap.Counter(c.name)
		if v != c.want || c.stat != c.want {
			t.Errorf("%s: snapshot %d, Fabric.Snapshot %d, want %d", c.name, v, c.stat, c.want)
		}
	}
}

// TestRDMACountedOnInjFIFO: puts and remote gets are charged to the
// initiator's injection FIFO — its descriptors, packets and bytes — and
// the fabric's own counters, which keep only wire deliveries, stay at
// zero. Stats and the registry read the same folded values.
func TestRDMACountedOnInjFIFO(t *testing.T) {
	f := newTestFabric(t)
	setupEndpoint(t, f, 0, 0, 0)
	res := setupEndpoint(t, f, 1, 1, 0)
	f.RegisterMemregion(0, 1, make([]byte, 2*MaxPayload))
	inj := res.PinnedInj(0)
	for i := 0; i < 3; i++ {
		if err := f.InjectPut(inj, 1, make([]byte, MaxPayload+1), TaskAddr{0, 0}, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.InjectRemoteGet(inj, TaskAddr{1, 0}, 0, 1, 0, make([]byte, 10), nil); err != nil {
		t.Fatal(err)
	}
	if f.packets.Load() != 0 || f.bytes.Load() != 0 {
		t.Errorf("fabric's own counters read %d packets, %d bytes; RDMA belongs to the InjFIFO", f.packets.Load(), f.bytes.Load())
	}
	if got := inj.Injected(); got != 4 {
		t.Errorf("InjFIFO injected %d descriptors, want 4", got)
	}
	want := Stats{Packets: 3*2 + 1, Bytes: 3*(MaxPayload+1+2*PacketHeaderBytes) + 10 + PacketHeaderBytes, Puts: 3, RemoteGets: 1}
	if s := f.Snapshot(); s != want {
		t.Errorf("Snapshot = %+v, want %+v", s, want)
	}
	snap := f.Telemetry().Snapshot()
	for name, v := range map[string]int64{"packets": want.Packets, "bytes": want.Bytes, "puts": want.Puts, "remote_gets": want.RemoteGets} {
		if got, _ := snap.Counter(name); got != v {
			t.Errorf("registry %s = %d, want %d", name, got, v)
		}
	}
}
