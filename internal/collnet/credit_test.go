package collnet

import (
	"sync"
	"testing"
	"time"
)

// wait collects a session's result for one party, dropping the error.
func wait(s *Session) []byte {
	res, _ := s.WaitErr()
	return res
}

// drain retires a session on behalf of every party: contributions have
// already arrived, so each Wait just reads the result.
func drain(s *Session) {
	for n := s.parties; n > 0; n-- { // read once: the last wait hands the slot on
		wait(s)
	}
}

// contributeAll completes a reduce session from every participating rank.
func contributeAll(cr *ClassRoute, s *Session, payload []byte) {
	for _, r := range cr.Ranks() {
		s.Contribute(r, payload)
	}
}

// TestSessionCreditsBoundInbox pipelines contributions far ahead of any
// waiter and checks the three inbox-credit promises: the producer parks at
// the cap instead of growing the session map, the parked-bytes gauge's
// high-water mark is bounded by credits x parties x nbytes, and both
// gauges return to zero once everything retires — no leaked credit, no
// leaked contribution memory.
func TestSessionCreditsBoundInbox(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	const nbytes = 64
	const total = SessionCredits * 3
	payload := make([]byte, nbytes)

	// The runaway producer: joins and fully contributes ever-later
	// sessions without ever waiting. It must block at the credit cap.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(0); seq < total; seq++ {
			s, _ := cr.Join(seq, KindReduce, OpAdd, Int64, nbytes)
			contributeAll(cr, s, payload)
		}
	}()

	// Give the producer time to run into the cap, then check it parked.
	deadline := time.Now().Add(5 * time.Second)
	for n.sessionsOpen.Load() < SessionCredits && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // would-be overshoot window
	if open := n.sessionsOpen.Load(); open != SessionCredits {
		t.Fatalf("producer holds %d open sessions, credit cap is %d", open, SessionCredits)
	}
	if n.creditStalls.Load() == 0 {
		t.Fatal("producer never stalled on a session credit")
	}

	// Retire sessions in order; each retirement frees a credit and the
	// producer advances. Join of an already-open session must not block.
	for seq := uint64(0); seq < total; seq++ {
		s, _ := cr.Join(seq, KindReduce, OpAdd, Int64, nbytes)
		drain(s)
	}
	wg.Wait()

	if open := n.sessionsOpen.Load(); open != 0 {
		t.Fatalf("%d sessions still open after all retired", open)
	}
	if parked := n.inboxBytes.Load(); parked != 0 {
		t.Fatalf("%d contribution bytes still parked after all sessions retired", parked)
	}
	maxParked := int64(SessionCredits * len(cr.Ranks()) * nbytes)
	if hwm := n.inboxBytes.HighWater(); hwm > maxParked {
		t.Fatalf("inbox high water %dB exceeds credits*parties*nbytes = %dB", hwm, maxParked)
	}
	if hwm := n.sessionsOpen.HighWater(); hwm > SessionCredits {
		t.Fatalf("open-session high water %d exceeds the %d credit cap", hwm, SessionCredits)
	}
}

// TestFreeWakesBlockedJoin frees the classroute while a producer is
// parked on a full inbox: the waiter must wake and panic with the freed
// diagnostic rather than sleep forever on a credit that cannot come.
func TestFreeWakesBlockedJoin(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < SessionCredits; seq++ {
		cr.Join(seq, KindBarrier, OpAdd, Uint64, 0)
	}
	woke := make(chan interface{}, 1)
	go func() {
		defer func() { woke <- recover() }()
		cr.Join(SessionCredits, KindBarrier, OpAdd, Uint64, 0)
	}()
	// Wait until the joiner is parked on the cap, then free the route.
	deadline := time.Now().Add(5 * time.Second)
	for n.creditStalls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	n.Free(cr)
	select {
	case v := <-woke:
		if v == nil {
			t.Fatal("blocked Join returned a session from a freed classroute")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Join still parked after the classroute was freed")
	}
}
