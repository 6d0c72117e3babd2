package collnet

import (
	"errors"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/watchdog"
)

func poisonTestRoute(t *testing.T) (*Network, *ClassRoute) {
	t.Helper()
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatalf("AllocateWorld: %v", err)
	}
	return n, cr
}

// Poison must release a Join parked on the session-credit gate with the
// typed cause and fail later Joins fast until the route is freed; a route
// allocated afterwards on the same rectangle starts healthy.
func TestJoinPoisonReleasesCreditParked(t *testing.T) {
	n, cr := poisonTestRoute(t)
	for seq := uint64(0); seq < SessionCredits; seq++ {
		if _, err := cr.Join(seq, KindBarrier, OpAdd, Uint64, 0); err != nil {
			t.Fatalf("Join(%d): %v", seq, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := cr.Join(SessionCredits, KindBarrier, OpAdd, Uint64, 0)
		done <- err
	}()
	// Let the joiner park on the credit gate.
	deadline := time.Now().Add(5 * time.Second)
	for cr.net.creditStalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never hit the credit gate")
		}
		time.Sleep(time.Millisecond)
	}
	cause := abort.Causef(abort.KindDeadline, "collnet.join.credit", "test stall")
	cr.Poison(cause)
	select {
	case err := <-done:
		if !errors.Is(err, abort.ErrAborted) {
			t.Fatalf("parked Join returned %v, want ErrAborted wrap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poison did not release the credit-parked Join")
	}
	if _, err := cr.Join(SessionCredits+1, KindBarrier, OpAdd, Uint64, 0); !errors.Is(err, abort.ErrAborted) {
		t.Fatalf("poisoned route Join returned %v, want fail-fast ErrAborted", err)
	}
	// Joining an already-open session still works — slow peers must be
	// able to drain what is in flight.
	if _, err := cr.Join(0, KindBarrier, OpAdd, Uint64, 0); err != nil {
		t.Fatalf("Join of open session on poisoned route: %v", err)
	}
	if _, err := cr.Join(SessionCredits+2, KindBarrier, OpAdd, Uint64, 0); !errors.Is(err, cause) {
		t.Fatalf("later Join on poisoned route returned %v, want the poison cause", err)
	}
	n.Free(cr)
	fresh, err := n.AllocateWorld()
	if err != nil {
		t.Fatalf("AllocateWorld after Free: %v", err)
	}
	if fresh.Rect != cr.Rect {
		t.Fatalf("fresh route rectangle %v, want %v", fresh.Rect, cr.Rect)
	}
	if s, err := fresh.Join(0, KindBarrier, OpAdd, Uint64, 0); err != nil || s == nil {
		t.Fatalf("Join on a route allocated after Free: %v", err)
	}
}

// An armed sentinel must escalate a credit-parked Join into a typed
// abort end to end: park registers at the site, the scanner fires, the
// escalation hook poisons the route, the joiner returns ErrAborted.
func TestJoinSentinelEscalatesCreditStall(t *testing.T) {
	n, cr := poisonTestRoute(t)
	sent := watchdog.NewSentinel(nil)
	n.SetSentinel(sent)
	sent.Arm(20*time.Millisecond, 5*time.Millisecond)
	defer sent.Stop()
	for seq := uint64(0); seq < SessionCredits; seq++ {
		if _, err := cr.Join(seq, KindBarrier, OpAdd, Uint64, 0); err != nil {
			t.Fatalf("Join(%d): %v", seq, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := cr.Join(SessionCredits, KindBarrier, OpAdd, Uint64, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, abort.ErrAborted) {
			t.Fatalf("stalled Join returned %v, want ErrAborted wrap", err)
		}
		var c *abort.Cause
		if !errors.As(err, &c) || c.Kind != abort.KindDeadline {
			t.Fatalf("stalled Join cause = %v, want KindDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sentinel never escalated the credit stall")
	}
}
