package mu

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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

// mustQuiesce fails the test unless the fabric is quiescent now: once
// its sends have returned and its FIFOs are drained, the link holds
// nothing.
func mustQuiesce(t *testing.T, f *Fabric, where string) {
	t.Helper()
	if err := f.Quiesced(); err != nil {
		t.Fatalf("%s: not quiescent: %v", where, err)
	}
}

// The link's contract, over seeds, fault mixes and fan-in: every packet
// reaches the reception FIFO exactly once, each flow's packets in
// injection order, byte-exact; afterwards no send is inside the link and
// every pooled buffer is back. Every third message is one inline packet
// (metadata and 40 bytes in the element, no slab) and the three-packet
// messages end in an inline 13-byte tail, so inline packets are dropped,
// duplicated, delayed and corrupted — a flipped inline byte must fail the
// CRC — like the slab ones beside them. One message per flow is longer
// than a shard's 64 slots plus its overflow, and odd seeds cap the
// reception FIFO's overflow, so a shard that fills refuses packets and
// the link holds their sender in its wait until the consumer makes room.
func TestLinkProperty(t *testing.T) {
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"drop", fault.Plan{Drop: 0.05}},
		{"drop+dup", fault.Plan{Drop: 0.05, Duplicate: 0.10}},
		{"drop+delay", fault.Plan{Drop: 0.05, Delay: 0.05}},
		{"drop+corrupt", fault.Plan{Drop: 0.05, Corrupt: 0.10}},
		{"drop-heavy", fault.Plan{Drop: 0.30}},
	}
	const (
		seeds   = 32
		msgs    = 12
		msgLen  = 2*MaxPayload + 13 // 3 packets
		longMsg = 7
		longLen = 69*MaxPayload + 13 // past a capped shard
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
				mustQuiesce(t, f, name)
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

// Quiesced refuses while a send is inside the link, even with every
// reception FIFO empty: the packet the link holds reaches a FIFO later.
// A stall window on the destination holds the send in the link's wait
// for 400 tries, 200 ms or more.
func TestQuiescedWaitsForRunningAttempt(t *testing.T) {
	const stalled = 400 // tries the stall window refuses
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{Stalls: []fault.Stall{{Node: 0, From: 0, To: stalled + 1}}}, 1)
	live0, _ := bufpool.Live()

	want := testMessage(1, 0, 2*InlineMax) // a slab packet: the held send pins a buffer
	sent := make(chan error, 1)
	go func() {
		sent <- f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Dispatch: 1, Origin: TaskAddr{1, 0}}, want)
	}()
	waitCounter(t, f, "link_stalls", 1)
	if err := f.Quiesced(); err == nil || !strings.Contains(err.Error(), "inside the reliable link") {
		t.Fatalf("Quiesced with a send inside the link: %v, want a refusal naming the link", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	p := drainPackets(t, dst.Rec, 1, time.Second)[0]
	if !bytes.Equal(p.Payload(), want) {
		t.Fatal("the held packet arrived mangled")
	}
	p.Release()
	mustQuiesce(t, f, "after the send")
	if live, _ := bufpool.Live(); live != live0 {
		t.Fatalf("%d pooled buffers live, %d before the send", live, live0)
	}
	if n := relCounter(t, f, "stall_drops"); n != stalled {
		t.Fatalf("stall_drops = %d, want %d", n, stalled)
	}
}

// A consumer that polls its FIFO and, finding it empty, sleeps on its
// region's generation is woken by the link before the link waits on it.
// The link publishes quietly and touches the region at a message's end;
// a refusal in mid-message would otherwise leave both asleep, the
// consumer on the region and the sender in the link's wait. Each
// message is 200 packets, past the shard's 64 slots and 1 overflow slot.
func TestLinkWakesSleepingConsumer(t *testing.T) {
	const msgs, npkts = 20, 200
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{}, 1)
	dst.Rec.SetOverflowCap(1)
	payloads := make([][]byte, msgs)
	for m := range payloads {
		payloads[m] = testMessage(1, m, npkts*MaxPayload)
	}
	sent := make(chan error, 1)
	go func() {
		for m := 0; m < msgs; m++ {
			hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}, Seq: uint64(m)}
			if err := f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, hdr, payloads[m]); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	consumed := make(chan error, 1)
	go func() {
		region := dst.Rec.Region()
		for got := 0; got < msgs*npkts; {
			gen := region.Gen()
			p, ok := dst.Rec.Poll()
			if !ok {
				region.Wait(gen)
				continue
			}
			m, off := got/npkts, got%npkts*MaxPayload
			h := p.Header()
			ok = h.Seq == uint64(m) && h.Offset == off && bytes.Equal(p.Payload(), payloads[m][off:off+MaxPayload])
			p.Release()
			if !ok {
				consumed <- fmt.Errorf("packet %d is (msg %d, off %d) or mangled, want (msg %d, off %d)", got, h.Seq, h.Offset, m, off)
				return
			}
			got++
		}
		consumed <- nil
	}()
	for _, ch := range []chan error{sent, consumed} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("no progress in 20 s: the consumer sleeps on its region while the link waits on its FIFO (%d link stalls)", relCounter(t, f, "link_stalls"))
		}
	}
	if relCounter(t, f, "fifo_refusals") == 0 {
		t.Fatal("the capped shard never refused: the test did not make the link wait")
	}
	mustQuiesce(t, f, "after the stream")
}

// A sender the link holds on a crashed node returns ErrPeerDead within
// 2 ms of the health monitor confirming the death: it asks the monitor
// at every wait, so it tries at most once more after the confirmation,
// and a wait's backoff is capped well below 2 ms. The try count is
// checked on every trial; the wall clock also holds the scheduler's
// delay in waking the sender, which a loaded box can stretch past 2 ms
// on its own, so the bound is checked on the fastest of five trials.
func TestDeathEndsLinkWait(t *testing.T) {
	const trials = 5
	fastest := time.Hour
	for trial := 0; trial < trials; trial++ {
		f := newTestFabric(t)
		setupEndpoint(t, f, 0, 0, 0)
		src := setupEndpoint(t, f, 1, 1, 0)
		hmon := watchHealth(t, f)
		installPlan(t, f, fault.Plan{NodeFaults: []fault.NodeFault{{Node: 0}}}, 1) // crashed from boot
		live0, _ := bufpool.Live()
		type result struct {
			err error
			at  time.Time
		}
		sent := make(chan result, 1)
		go func() {
			err := f.InjectMemFIFO(src.PinnedInj(0), TaskAddr{0, 0}, Header{Dispatch: 1, Origin: TaskAddr{1, 0}}, testMessage(1, 0, 3*MaxPayload))
			sent <- result{err, time.Now()}
		}()
		waitCounter(t, f, "blackholed", 1)
		time.Sleep(20 * time.Millisecond) // the backoff reaches its cap
		confirmed := time.Now()
		hmon.DeclareDead(0)
		tries := relCounter(t, f, "blackholed")
		var r result
		select {
		case r = <-sent:
		case <-time.After(5 * time.Second):
			t.Fatal("the sender still waits 5 s after the death was confirmed")
		}
		if !errors.Is(r.err, ErrPeerDead) {
			t.Fatalf("send to a crashed node: %v, want ErrPeerDead", r.err)
		}
		if n := relCounter(t, f, "blackholed") - tries; n > 1 {
			t.Fatalf("the sender tried %d more times after the confirmation, want at most 1", n)
		}
		fastest = min(fastest, r.at.Sub(confirmed))
		mustQuiesce(t, f, "after the failed send")
		if live, _ := bufpool.Live(); live != live0 {
			t.Fatalf("%d pooled buffers live, %d before the send", live, live0)
		}
	}
	if fastest > 2*time.Millisecond {
		t.Fatalf("the sender returned %v after the confirmation at best of %d, want within 2 ms", fastest, trials)
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
// reference before chunk 0 crosses: the consumer may release a packet
// the moment it is published, and with a reference taken per chunk as it
// is built, releasing the chunks published so far would free the slab
// under the chunks still to come. Here a concurrent consumer releases as
// it polls; under -tags bufpooldebug a use after release reads poison or
// panics, and under -race the slab's hand-over must be ordered.
func TestDataBufChunkRefsTakenUpFront(t *testing.T) {
	const msgs, npkts = 20, 35
	f := newTestFabric(t)
	dst := setupEndpoint(t, f, 0, 0, 0)
	src := setupEndpoint(t, f, 1, 1, 0)
	installPlan(t, f, fault.Plan{}, 1)
	payloads := make([][]byte, msgs)
	for m := range payloads {
		payloads[m] = testMessage(1, m, npkts*MaxPayload)
	}
	live0, _ := bufpool.Live()
	consumed := make(chan error, 1)
	go func() {
		stop := time.Now().Add(10 * time.Second)
		for got := 0; got < msgs*npkts; {
			p, ok := dst.Rec.Poll()
			if !ok {
				if time.Now().After(stop) {
					consumed <- fmt.Errorf("timed out with %d of %d packets", got, msgs*npkts)
					return
				}
				continue
			}
			m, off := got/npkts, got%npkts*MaxPayload
			ok = p.Header().Seq == uint64(m) && bytes.Equal(p.Payload(), payloads[m][off:off+MaxPayload])
			p.Release()
			if !ok {
				consumed <- fmt.Errorf("packet %d of message %d mangled", got%npkts, m)
				return
			}
			got++
		}
		consumed <- nil
	}()
	for m := 0; m < msgs; m++ {
		hdr := Header{Dispatch: 1, Origin: TaskAddr{1, 0}, Seq: uint64(m)}
		if err := f.InjectMemFIFOBuf(src.PinnedInj(0), TaskAddr{0, 0}, hdr, bufpool.GetCopy(payloads[m])); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-consumed; err != nil {
		t.Fatal(err)
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
