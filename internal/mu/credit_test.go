package mu

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/fault"
	"pamigo/internal/torus"
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
