package mu

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/fault"
	"pamigo/internal/torus"
)

// testMessage builds an n-byte payload whose every byte is a function of
// origin, message and offset, so a packet delivered to the wrong place in
// any of the three cannot pass.
func testMessage(origin, msg, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(origin*131 + msg*31 + i*7 + 3)
	}
	return b
}

// awaitQuiesced waits for the last acks to come home (a dropped final ack
// costs one timer retransmit) and fails the test if they do not.
func awaitQuiesced(t *testing.T, f *Fabric, where string) {
	t.Helper()
	var err error
	for stop := time.Now().Add(10 * time.Second); time.Now().Before(stop); time.Sleep(200 * time.Microsecond) {
		if err = f.Quiesced(); err == nil {
			return
		}
	}
	t.Fatalf("%s: not quiescent: %v", where, err)
}

// The window protocol's contract, over seeds, fault mixes and fan-in:
// every packet reaches the reception FIFO exactly once, each flow's
// packets in injection order, byte-exact; afterwards no flow holds
// window or reorder state and every pooled buffer is back. Every third
// message is one inline packet (metadata and 40 bytes in the element, no
// slab) and the three-packet messages end in an inline 13-byte tail, so
// inline packets are dropped, duplicated, delayed and corrupted — a
// flipped inline byte must fail the CRC — like the slab ones beside them.
// One message per flow is longer than the window, so its bursts end on
// the burst bound and, behind a hole, on the window; odd seeds cap the
// reception FIFO's overflow, so a shard that fills refuses packets, they
// go unacked and the window holds their sender until a resend finds room.
func TestWindowProperty(t *testing.T) {
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"drop", fault.Plan{Drop: 0.05}},
		{"drop+dup", fault.Plan{Drop: 0.05, Duplicate: 0.10}},
		{"drop+delay", fault.Plan{Drop: 0.05, Delay: 0.05}},
		{"drop+corrupt", fault.Plan{Drop: 0.05, Corrupt: 0.10}},
		{"ack-loss-heavy", fault.Plan{Drop: 0.30}},
	}
	const (
		seeds   = 32
		msgs    = 12
		msgLen  = 2*MaxPayload + 13 // 3 packets
		longMsg = 7
		longLen = (sendWindow+5)*MaxPayload + 13 // past the window
	)
	lenOf := func(m int) int { // of message m, on every flow
		switch {
		case m == longMsg:
			return longLen
		case m%3 == 2:
			return 40
		}
		return msgLen
	}
	type chunk struct{ m, off int }
	var sched []chunk // the messages' packets in order
	for m := 0; m < msgs; m++ {
		for off := 0; off < lenOf(m); off += MaxPayload {
			sched = append(sched, chunk{m, off})
		}
	}
	var payloads [5][msgs][]byte // of origin o, message m
	for o := range payloads {
		for m := range payloads[o] {
			payloads[o][m] = testMessage(o, m, lenOf(m))
		}
	}
	if testing.Short() {
		t.Skip("320 fabrics")
	}
	for _, pl := range plans {
		for _, origins := range []int{1, 4} {
			for seed := int64(1); seed <= seeds; seed++ {
				name := fmt.Sprintf("%s/origins=%d/seed=%d", pl.name, origins, seed)
				live0, _ := bufpool.Live()
				f, err := NewFabric(torus.Dims{2, 2, 2, 1, 1}, 64)
				if err != nil {
					t.Fatal(err)
				}
				dst := setupEndpoint(t, f, 0, 0, 0)
				if seed%2 == 1 {
					dst.Rec.SetOverflowCap(32) // a shard refuses past its 64 slots + 8 overflow
				}
				src := make([]*ContextResources, origins+1)
				for o := 1; o <= origins; o++ {
					src[o] = setupEndpoint(t, f, o, torus.Rank(o), 0)
				}
				inj, err := fault.NewInjector(f.Dims(), pl.plan, seed)
				if err != nil {
					t.Fatal(err)
				}
				f.InstallFaults(inj)

				var senders sync.WaitGroup
				for o := 1; o <= origins; o++ {
					senders.Add(1)
					go func(o int) {
						defer senders.Done()
						for m := 0; m < msgs; m++ {
							hdr := Header{Dispatch: 1, Origin: TaskAddr{o, 0}, Seq: uint64(m), Meta: []byte{byte(o), byte(m)}}
							payload := payloads[o][m]
							var err error
							if (o+m)%2 == 0 { // both entry points share the one packetizer
								err = f.InjectMemFIFOBuf(src[o].PinnedInj(0), TaskAddr{0, 0}, hdr, bufpool.GetCopy(payload))
							} else {
								err = f.InjectMemFIFO(src[o].PinnedInj(0), TaskAddr{0, 0}, hdr, payload)
							}
							if err != nil {
								t.Errorf("%s: origin %d msg %d: %v", name, o, m, err)
								return
							}
						}
					}(o)
				}
				// Per flow the next packet must be exactly the successor of the
				// last one: a duplicate, a loss or a reordering all break it.
				next := make([]int, origins+1) // packets seen per origin
				for _, p := range drainPackets(t, dst.Rec, origins*len(sched), 20*time.Second) {
					o := p.Header().Origin.Task
					m, off := sched[next[o]].m, sched[next[o]].off
					next[o]++
					if p.Header().Seq != uint64(m) || p.Header().Offset != off {
						t.Fatalf("%s: origin %d: got (msg %d, off %d), want (msg %d, off %d)", name, o, p.Header().Seq, p.Header().Offset, m, off)
					}
					if want := payloads[o][m][off:min(off+MaxPayload, lenOf(m))]; !bytes.Equal(p.Payload(), want) {
						t.Fatalf("%s: origin %d msg %d off %d: payload mangled", name, o, m, off)
					}
					if off == 0 && !bytes.Equal(p.Header().Meta, []byte{byte(o), byte(m)}) {
						t.Fatalf("%s: origin %d msg %d: metadata mangled", name, o, m)
					}
					p.Release()
				}
				senders.Wait()
				awaitQuiesced(t, f, name)
				if p, ok := dst.Rec.Poll(); ok {
					t.Fatalf("%s: extra packet after the last one: %+v", name, p.Header())
				}
				f.Close()
				if live, _ := bufpool.Live(); live != live0 {
					t.Fatalf("%s: %d pooled buffers live, %d before the run", name, live, live0)
				}
				if t.Failed() {
					return
				}
			}
		}
	}
}

// An ack can retire a slot while an earlier attempt of it still runs
// outside the send lock: a first attempt descheduled past initialRTO, so
// the timer sent a twin whose ack came home first. That attempt reads the
// slot's slab until it returns, so the fabric is not quiescent before
// then. The test plays the scheduler: it stages a packet (staging counts
// the first attempt, which the test holds back), lets a timer twin
// deliver it and retire the slot, and only then runs the held attempt.
func TestQuiescedWaitsForRunningAttempt(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{}, 1)
	r := f.rel.Load()
	live0, _ := bufpool.Live()

	src := testMessage(1, 0, 2*InlineMax) // a slab packet: the held attempt pins a buffer
	hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}, Total: len(src)}
	fl := r.flowFor(flowKey{src: hdr.Origin, dst: TaskAddr{0, 0}})
	own := slabFor(&hdr, src, nil, MaxPayload)
	now := r.now()
	fl.smu.Lock()
	seq, _, err := r.stageLocked(fl, &hdr, &src, own, dst.Rec, &now)
	if err != nil {
		fl.smu.Unlock()
		t.Fatal(err)
	}
	pp := &fl.win[seq&winMask]
	pp.deadline = math.MaxInt64 // the daemon's timer stays out: the twin below is it
	r.transmitLocked(fl, seq, 1, r.timerRetransmits)
	retired, running := pp.acked, pp.inflight
	fl.smu.Unlock()
	if !retired || running != 1 {
		t.Fatalf("after the twin: acked %v, %d attempts running; want the slot retired under the held attempt", retired, running)
	}
	for _, p := range drainPackets(t, dst.Rec, 1, time.Second) {
		p.Release()
	}
	if err := f.Quiesced(); err == nil {
		t.Fatal("Quiesced with an attempt still reading a retired slot's slab")
	}

	fl.smu.Lock()
	r.transmitLocked(fl, seq, 1, nil) // the held attempt: a duplicate, suppressed and re-acked
	fl.smu.Unlock()
	if err := f.Quiesced(); err != nil {
		t.Fatalf("held attempt returned: %v", err)
	}
	if live, _ := bufpool.Live(); live != live0 {
		t.Fatalf("%d pooled buffers live, %d before the send", live, live0)
	}
	if n := relCounter(t, f, "dup_drops"); n != 1 {
		t.Fatalf("dup_drops = %d, want the held attempt's copy suppressed once", n)
	}
}

// cleanStreamSeed finds a fault seed under which, on the flow 1.0 -> 0.0,
// the first n packets see exactly one mishap on their first attempt — the
// data packet lost (dropAck false) or only its ack lost (dropAck true), at
// a sequence number that is not the last — and nothing else goes wrong,
// retransmission of the victim included.
func cleanStreamSeed(t *testing.T, plan fault.Plan, n int, dropAck bool) (seed int64, victim uint64) {
	t.Helper()
	seed, victims := mishapSeed(t, plan, n, 1, dropAck)
	return seed, victims[0]
}

// mishapSeed is cleanStreamSeed for k mishaps.
func mishapSeed(t *testing.T, plan fault.Plan, n, k int, dropAck bool) (seed int64, victims []uint64) {
	t.Helper()
	hash := fault.FlowHash(1, 0, 0, 0)
	for seed = 1; seed < 1<<16; seed++ {
		inj, err := fault.NewInjector(dims, plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		victims = victims[:0]
		ok := true
		for seq := uint64(1); seq <= uint64(n) && ok; seq++ {
			drop, ack := inj.Decide(hash, seq, 1).Has(fault.Drop), inj.DropAck(hash, seq, 1)
			switch {
			case !drop && !ack:
			case len(victims) < k && seq < uint64(n) && drop != dropAck && ack == dropAck:
				victims = append(victims, seq)
				ok = !inj.Decide(hash, seq, 2).Has(fault.Drop) && !inj.DropAck(hash, seq, 2)
			default:
				ok = false
			}
		}
		if ok && len(victims) == k {
			return seed, victims
		}
	}
	t.Fatalf("no seed gives %d clean mishaps", k)
	return 0, nil
}

// streamOnePacketMessages sends n one-packet messages 1.0 -> 0.0 under
// the plan and seed and checks they all arrive, in order.
func streamOnePacketMessages(t *testing.T, plan fault.Plan, seed int64, n int) *Fabric {
	t.Helper()
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, plan, seed)
	for m := 0; m < n; m++ {
		hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}, Seq: uint64(m)}
		if err := f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, hdr, testMessage(1, m, 40)); err != nil {
			t.Fatal(err)
		}
	}
	for m, p := range drainPackets(t, dst.Rec, n, 5*time.Second) {
		if p.Header().Seq != uint64(m) || !bytes.Equal(p.Payload(), testMessage(1, m, 40)) {
			t.Fatalf("packet %d is message %d or mangled", m, p.Header().Seq)
		}
		p.Release()
	}
	awaitQuiesced(t, f, "stream")
	return f
}

// One dropped packet in an otherwise clean stream is exposed by the very
// next arrival and resent by the sending goroutine; the timer never fires.
func TestGapResendBeatsTimer(t *testing.T) {
	plan := fault.Plan{Drop: 0.02}
	seed, victim := cleanStreamSeed(t, plan, 48, false)
	f := streamOnePacketMessages(t, plan, seed, 48)
	for name, want := range map[string]int64{
		"drops_injected": 1, "retransmits": 1, "fast_retransmits": 1, "timer_retransmits": 0, "dup_drops": 0,
	} {
		if got := relCounter(t, f, name); got != want {
			t.Errorf("seed %d, packet %d dropped: %s = %d, want %d", seed, victim, name, got, want)
		}
	}
	if g, _ := f.Telemetry().Snapshot().Gauge("reliable.reorder_depth"); g.HighWater != 1 || g.Value != 0 {
		t.Errorf("reorder_depth = %+v, want one packet parked behind the hole and none at rest", g)
	}
}

// Two packets of one burst lost on their first attempt: the burst's ack
// proves the first hole, the first resend's ack the second, and the
// sending goroutine resends both at once; the timer never fires. Every
// burst and every resend is answered by exactly one ack.
func TestTwoHolesInOneBurst(t *testing.T) {
	const n = 16
	plan := fault.Plan{Drop: 0.05}
	seed, victims := mishapSeed(t, plan, n, 2, false)
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, plan, seed)
	want := testMessage(1, 0, n*MaxPayload)
	if err := f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Dispatch: 1, Origin: TaskAddr{1, 0}}, want); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, p := range drainPackets(t, dst.Rec, n, 5*time.Second) {
		got = append(got, p.Payload()...)
		p.Release()
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d: reassembled %d bytes, want the %d sent", seed, len(got), len(want))
	}
	awaitQuiesced(t, f, "two holes")
	bursts := int64((n + burstMax - 1) / burstMax)
	for name, want := range map[string]int64{
		"drops_injected": 2, "fast_retransmits": 2, "timer_retransmits": 0, "dup_drops": 0, "acks_sent": bursts + 2,
	} {
		if got := relCounter(t, f, name); got != want {
			t.Errorf("seed %d, packets %v dropped: %s = %d, want %d", seed, victims, name, got, want)
		}
	}
}

// A lost ack is repaired by the next ack's cumulative frontier: nothing is
// resent, so nothing arrives twice.
func TestLostAckCostsNoResend(t *testing.T) {
	plan := fault.Plan{Drop: 0.02}
	seed, victim := cleanStreamSeed(t, plan, 48, true)
	f := streamOnePacketMessages(t, plan, seed, 48)
	for name, want := range map[string]int64{
		"acks_dropped": 1, "cum_acked": 1, "retransmits": 0, "dup_drops": 0, "drops_injected": 0,
	} {
		if got := relCounter(t, f, name); got != want {
			t.Errorf("seed %d, ack of packet %d lost: %s = %d, want %d", seed, victim, name, got, want)
		}
	}
}

// The fault-free reliable path allocates nothing per message. The slab is
// kept out of the pool (one reference stays here) so that sync.Pool's
// behaviour under -race does not enter the count.
func TestReliableInjectPollZeroAlloc(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{}, 1)
	payload := bufpool.GetCopy(testMessage(1, 0, 8*MaxPayload))
	defer payload.Release()
	pkts := make([]Packet, 16)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		payload.Retain()
		hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}, Seq: seq}
		if err := f.InjectMemFIFOBuf(src.PinnedInj(0), TaskAddr{0, 0}, hdr, payload); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < 8; {
			k := dst.Rec.PollBatch(pkts)
			for j := 0; j < k; j++ {
				pkts[j].Release()
			}
			got += k
		}
	})
	if allocs != 0 {
		t.Fatalf("reliable 4 KiB inject + poll: %v allocs per message, want 0", allocs)
	}
}

// A multi-packet ownership-transfer send must hold every chunk's
// reference before chunk 0 is staged: once a burst is acked the window
// drops its references, and the consumer is free to drop the receiver's.
// The hook forces exactly that — between bursts the consumer polls and
// releases everything delivered so far — which, with a reference taken
// per chunk as it is staged, leaves the next burst retaining a slab that
// is already free. The message is three bursts long.
func TestDataBufChunkRefsTakenUpFront(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{}, 1)
	live0, _ := bufpool.Live()
	want := testMessage(1, 0, (2*burstMax+3)*MaxPayload)
	var got []byte
	bursts := 0
	burstSentHook = func() {
		bursts++
		p, ok := dst.Rec.Poll()
		if !ok {
			t.Error("hook: the burst just sent is not in the reception FIFO")
			return
		}
		for ; ok; p, ok = dst.Rec.Poll() {
			got = append(got, p.Payload()...)
			p.Release()
		}
	}
	defer func() { burstSentHook = nil }()
	hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}}
	if err := f.InjectMemFIFOBuf(src.PinnedInj(0), TaskAddr{0, 0}, hdr, bufpool.GetCopy(want)); err != nil {
		t.Fatal(err)
	}
	if bursts != 3 {
		t.Fatalf("the message went out in %d bursts, want 3", bursts)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reassembled %d bytes, want the %d sent", len(got), len(want))
	}
	if live, _ := bufpool.Live(); live != live0 {
		t.Fatalf("%d pooled buffers live, %d before the send", live, live0)
	}
}

// A sender backs off, once per message and without blocking, while its
// destination's reception queue is paceDepth packets deep or more.
func TestPacingPastPaceDepth(t *testing.T) {
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{}, 1)
	send := func() {
		t.Helper()
		if err := f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Dispatch: 1, Origin: TaskAddr{1, 0}}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < paceDepth; i++ {
		send()
	}
	if n := relCounter(t, f, "pace_waits"); n != 0 {
		t.Fatalf("%d pace waits below paceDepth", n)
	}
	send()
	send()
	if n := relCounter(t, f, "pace_waits"); n != 2 {
		t.Fatalf("pace_waits = %d after two sends into a queue %d deep, want 2", n, paceDepth)
	}
	for _, p := range drainPackets(t, dst.Rec, paceDepth+2, 5*time.Second) {
		p.Release()
	}
}
