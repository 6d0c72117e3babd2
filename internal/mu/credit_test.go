package mu

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/fault"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
)

// creditInvariants asserts the credit conservation law on every flow the
// reliable layer knows, under each flow's send lock:
//
//	granted (creditLimit) == consumed (maxAcked) + outstanding
//	0 <= outstanding <= maxCreditGrant
//	nextSeq never passes the grant: nextSeq <= creditLimit+1
//
// The quantities are unsigned, so "never negative" is asserted by
// ordering (creditLimit >= maxAcked) before any subtraction.
func creditInvariants(t *testing.T, f *Fabric, where string) int {
	t.Helper()
	r := f.rel.Load()
	if r == nil {
		t.Fatalf("%s: reliable layer not installed", where)
	}
	r.fmu.Lock()
	flows := make([]*flow, 0, len(r.flows))
	for _, fl := range r.flows {
		flows = append(flows, fl)
	}
	r.fmu.Unlock()
	for _, fl := range flows {
		fl.smu.Lock()
		limit, acked, next := fl.creditLimit, fl.maxAcked, fl.nextSeq
		seeded, failed := fl.lastFifo != nil, fl.failed
		fl.smu.Unlock()
		if !seeded {
			continue
		}
		if limit < acked {
			t.Fatalf("%s: flow %v: creditLimit %d below maxAcked %d (credits went negative)",
				where, fl.key, limit, acked)
		}
		if out := limit - acked; out > maxCreditGrant {
			t.Fatalf("%s: flow %v: outstanding credit %d exceeds the %d grant clamp",
				where, fl.key, out, maxCreditGrant)
		}
		if failed == nil && next > limit+1 {
			t.Fatalf("%s: flow %v: nextSeq %d overran creditLimit %d",
				where, fl.key, next, limit)
		}
	}
	return len(flows)
}

// TestCreditConservationUnderChaos hammers one flow from concurrent
// senders through a drop/dup/corrupt storm while a consumer drains and a
// checker repeatedly audits the conservation law — covering the grant,
// ack re-grant, daemon refresh, and retransmit paths. It then kills the
// destination of a second flow mid-traffic (the same failFlow path the
// machine's epoch change takes through cancelDeadSends) and audits again:
// a failed flow must freeze with its accounting intact, never leak or
// mint credit.
func TestCreditConservationUnderChaos(t *testing.T) {
	f, err := NewFabric(torus.Dims{2, 2, 1, 1, 1}, 32)
	if err != nil {
		t.Fatal(err)
	}
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	setupEndpoint(t, f, 3, 3, 0) // the crash victim's endpoint
	hmon := watchHealth(t, f)
	installPlan(t, f, fault.Plan{Drop: 0.10, Corrupt: 0.05, Duplicate: 0.10}, 42)

	const sendersPerFlow = 3
	const msgsPerSender = 120
	payload := make([]byte, 2*MaxPayload+9) // 3 packets per message
	fill(payload)

	var consumed atomic.Int64
	stopConsumer := make(chan struct{})
	var consumerDone sync.WaitGroup
	consumerDone.Add(1)
	go func() {
		defer consumerDone.Done()
		for {
			if _, ok := dst.Rec.Poll(); ok {
				consumed.Add(1)
				continue
			}
			select {
			case <-stopConsumer:
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()

	stopChecker := make(chan struct{})
	var checkerDone sync.WaitGroup
	checkerDone.Add(1)
	go func() {
		defer checkerDone.Done()
		for {
			creditInvariants(t, f, "mid-storm")
			select {
			case <-stopChecker:
				return
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// Retransmit path: concurrent senders share the flow to task 1, each
	// on its own injection FIFO (the per-FIFO serialization contract).
	var senders sync.WaitGroup
	for s := 0; s < sendersPerFlow; s++ {
		senders.Add(1)
		go func(s int) {
			defer senders.Done()
			for m := 0; m < msgsPerSender; m++ {
				hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: uint64(s*msgsPerSender + m)}
				if err := f.InjectMemFIFO(src.Inj[s], TaskAddr{1, 0}, hdr, payload); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}

	// Crash path: traffic to task 3 whose node dies mid-flood. The
	// handshake makes the interleaving deterministic: some messages land
	// first, then the death is confirmed, then the sender keeps going and
	// must come back with the typed death error, nothing else.
	warmedUp := make(chan struct{})
	nodeDead := make(chan struct{})
	var crashSenders sync.WaitGroup
	crashSenders.Add(1)
	go func() {
		defer crashSenders.Done()
		var sawDeath bool
		for m := 0; ; m++ {
			if m == 20 {
				close(warmedUp)
				<-nodeDead
			}
			hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: uint64(m)}
			err := f.InjectMemFIFO(src.Inj[3], TaskAddr{3, 0}, hdr, payload)
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrPeerDead) {
				t.Errorf("crash-path sender: %v (want ErrPeerDead)", err)
				return
			}
			sawDeath = true
			break
		}
		if !sawDeath {
			t.Error("crash-path sender finished without observing the node death")
		}
	}()
	<-warmedUp
	hmon.DeclareDead(3)
	close(nodeDead)
	crashSenders.Wait()

	senders.Wait()
	// Every packet of every message to the live destination must arrive
	// exactly once (dups and corruption notwithstanding).
	want := int64(sendersPerFlow * msgsPerSender * 3)
	deadline := time.Now().Add(20 * time.Second)
	for consumed.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopChecker)
	checkerDone.Wait()
	close(stopConsumer)
	consumerDone.Wait()
	if got := consumed.Load(); got != want {
		t.Fatalf("consumed %d packets, want %d", got, want)
	}
	if n := creditInvariants(t, f, "final"); n < 2 {
		t.Fatalf("only %d flows audited, want the live and the failed flow", n)
	}
	if relCounter(t, f, "credits_granted") == 0 {
		t.Error("credit machinery never granted under a storm")
	}
}

// sendSeqs injects one 8-byte message per sequence number in [from, to)
// from task 0 to task 1 and returns the first error.
func sendSeqs(f *Fabric, src *ContextResources, from, to int) error {
	for seq := from; seq < to; seq++ {
		hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: uint64(seq)}
		if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, []byte("8 bytes!")); err != nil {
			return err
		}
	}
	return nil
}

// waitCounter polls a reliable-layer counter until it reaches want.
func waitCounter(t *testing.T, f *Fabric, name string, want int64) {
	t.Helper()
	for stop := time.Now().Add(5 * time.Second); relCounter(t, f, name) < want; time.Sleep(time.Millisecond) {
		if time.Now().After(stop) {
			t.Fatalf("reliable.%s never reached %d", name, want)
		}
	}
}

// TestLiveSilentPeerKeepsFlow silences a destination the health monitor
// calls alive throughout for longer than any sender-side clock would
// wait — a consumer that stops polling while a sender is blocked on its
// credit, a stall window that drops the first 30 attempts of a packet —
// and checks the flow survives: the silence ends, the blocked send
// completes, a new send succeeds, every message arrives exactly once, in
// order, and no flow was failed as dead. Who is dead is the monitor's to
// say.
func TestLiveSilentPeerKeepsFlow(t *testing.T) {
	const stallAttempts = 30 // 2+4+8+16 ms, then 32 ms per retry: over 800 ms of silence
	cases := []struct {
		name        string
		plan        fault.Plan
		overflowCap int           // reception FIFO overflow cap; 0 keeps the default
		msgs        int           // messages sent before the silence ends
		pause       time.Duration // how long the consumer ignores a credit-blocked sender
	}{
		{name: "paused consumer", overflowCap: 8, msgs: 128, pause: 700 * time.Millisecond},
		{name: "stall that ends", plan: fault.Plan{Stalls: []fault.Stall{{Node: 1, From: 0, To: stallAttempts + 1}}}, msgs: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFabric(t)
			src := setupEndpoint(t, f, 0, 0, 0)
			dst := setupEndpoint(t, f, 1, 1, 0)
			hmon := watchHealth(t, f)
			installPlan(t, f, tc.plan, 3)
			if tc.overflowCap > 0 {
				dst.Rec.SetOverflowCap(tc.overflowCap)
			}
			sent := make(chan error, 1)
			go func() { sent <- sendSeqs(f, src, 0, tc.msgs) }()
			if tc.pause > 0 {
				waitCounter(t, f, "credit_stalls", 1)
				select {
				case err := <-sent:
					t.Fatalf("sender returned %v before the consumer drained", err)
				case <-time.After(tc.pause):
				}
			}
			got := drainPackets(t, dst.Rec, tc.msgs, 5*time.Second)
			if err := <-sent; err != nil {
				t.Fatalf("send across the silence: %v", err)
			}
			if err := sendSeqs(f, src, tc.msgs, tc.msgs+1); err != nil {
				t.Fatalf("send after the silence: %v", err)
			}
			got = append(got, drainPackets(t, dst.Rec, 1, 5*time.Second)...)
			for stop := time.Now().Add(5 * time.Second); f.Quiesced() != nil; time.Sleep(time.Millisecond) {
				if time.Now().After(stop) {
					t.Fatalf("flow never quiesced: %v", f.Quiesced())
				}
			}
			if p, ok := dst.Rec.Poll(); ok {
				t.Fatalf("extra packet after the last message: seq %d", p.Header().Seq)
			}
			for i, p := range got {
				if seq := p.Header().Seq; seq != uint64(i) {
					t.Fatalf("arrival %d is message %d, want %d", i, seq, i)
				}
				p.Release()
			}
			if n := relCounter(t, f, "peer_dead_fails"); n != 0 {
				t.Fatalf("peer_dead_fails = %d for a live peer", n)
			}
			if hmon.Dead(1) {
				t.Fatal("the health monitor calls the destination dead")
			}
			if tc.pause == 0 {
				if n := relCounter(t, f, "stall_drops"); n != stallAttempts {
					t.Fatalf("stall_drops = %d, want %d", n, stallAttempts)
				}
			}
		})
	}
}

// TestSentinelEscalatesCreditStall covers the one bound left on a
// credit-blocked sender: with the fabric's wait site registered on an
// armed stall sentinel and the consumer paused, the parked sender
// returns the sentinel's typed abort within the deadline plus scan
// slack, and its flow carries that cause.
func TestSentinelEscalatesCreditStall(t *testing.T) {
	const deadline, scan = 50 * time.Millisecond, 10 * time.Millisecond
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	watchHealth(t, f)
	sent := watchdog.NewSentinel(nil)
	f.SetSentinel(sent)
	sent.Arm(deadline, scan)
	defer sent.Stop()
	installPlan(t, f, fault.Plan{}, 3)
	dst.Rec.SetOverflowCap(8)

	done := make(chan error, 1)
	go func() { done <- sendSeqs(f, src, 0, 128) }()
	waitCounter(t, f, "credit_stalls", 1)
	stalled := time.Now()
	// A scan stamps the wait, a later one escalates it; the second of
	// slack absorbs a loaded scheduler (the race detector).
	limit := deadline + 2*scan + time.Second
	var err error
	select {
	case err = <-done:
	case <-time.After(limit):
		t.Fatalf("credit-blocked sender still parked %v after the stall", limit)
	}
	if took := time.Since(stalled); took > limit {
		t.Fatalf("sender returned %v after the stall, want within %v", took, limit)
	}
	var c *abort.Cause
	if !errors.Is(err, abort.ErrAborted) || !errors.As(err, &c) || c.Kind != abort.KindDeadline || c.Site != "mu.credit.stall" {
		t.Fatalf("credit-blocked sender returned %v, want a mu.credit.stall deadline abort", err)
	}
	fl := f.rel.Load().flowFor(flowKey{src: TaskAddr{0, 0}, dst: TaskAddr{1, 0}})
	fl.smu.Lock()
	failed := fl.failed
	fl.smu.Unlock()
	var fc *abort.Cause
	if !errors.As(failed, &fc) || fc != c {
		t.Fatalf("flow failed with %v, want the sentinel's cause %v", failed, c)
	}
}
