package collnet

import (
	"errors"
	"testing"

	"pamigo/internal/health"
	"pamigo/internal/torus"
)

// TestHandleNodeDownShrinksRoute kills a leaf node and requires the
// classroute to drop it from the membership, rebuild the tree over the
// survivors, and still complete a fresh session exactly.
func TestHandleNodeDownShrinksRoute(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	before := cr.Parties()
	ranks := cr.Ranks()
	victim := ranks[len(ranks)-1] // not the root (root is the lowest rank)
	n.HandleNodeDown(victim)
	if got := cr.Parties(); got != before-1 {
		t.Fatalf("parties = %d after death, want %d", got, before-1)
	}
	for _, r := range cr.Ranks() {
		if r == victim {
			t.Fatalf("dead node %d still listed in the route", victim)
		}
	}
	if n.DeadNodes() != 1 {
		t.Fatalf("DeadNodes = %d, want 1", n.DeadNodes())
	}
	// A fresh session over the survivors completes and sums exactly.
	contribs := make(map[torus.Rank][]byte)
	var want int64
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeInt64s([]int64{int64(r) + 1})
		want += int64(r) + 1
	}
	res := runSession(t, cr, KindReduce, OpAdd, Int64, contribs)
	if got := DecodeInt64s(res)[0]; got != want {
		t.Fatalf("survivor allreduce = %d, want %d", got, want)
	}
}

// TestHandleNodeDownFailsOpenSessions opens a session, kills a member
// mid-flight, and requires waiters to wake with ErrEpochChanged instead
// of blocking on a contribution that will never arrive.
func TestHandleNodeDownFailsOpenSessions(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	ranks := cr.Ranks()
	victim := ranks[len(ranks)-1]
	s, _ := cr.Join(1, KindBarrier, OpAdd, Uint64, 0)
	s.Contribute(ranks[0], nil) // one survivor arrived; the rest never will
	n.HandleNodeDown(victim)
	if !s.done.Load() {
		t.Fatal("session not completed after the member death")
	}
	if _, err := s.WaitErr(); !errors.Is(err, health.ErrEpochChanged) {
		t.Fatalf("WaitErr = %v, want ErrEpochChanged", err)
	}
	// Survivors that contribute after the failure must not panic or block.
	s.Contribute(ranks[1], nil)
	if v, _ := n.Telemetry().Snapshot().Counter("sessions_failed"); v != 1 {
		t.Fatalf("sessions_failed = %d, want 1", v)
	}
}

// TestHandleNodeDownReElectsRoot kills the route's root and requires the
// lowest surviving rank to take over.
func TestHandleNodeDownReElectsRoot(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	oldRoot := cr.Root
	n.HandleNodeDown(oldRoot)
	if cr.Root == oldRoot {
		t.Fatal("dead root was not re-elected")
	}
	if want := cr.Ranks()[0]; cr.Root != want {
		t.Fatalf("new root = %d, want lowest survivor %d", cr.Root, want)
	}
	if tree := cr.Tree(); tree.Root != cr.Root {
		t.Fatalf("tree root = %d, route root = %d", tree.Root, cr.Root)
	}
}

// TestAllocateRejectsDeadRoot requires new allocations to refuse a
// confirmed-dead root and to silently exclude dead members.
func TestAllocateRejectsDeadRoot(t *testing.T) {
	n := New(dims)
	dead := torus.Rank(0)
	n.HandleNodeDown(dead)
	rect := torus.Rectangle{Hi: torus.Coord{1, 1, 1, 0, 0}}
	if _, err := n.Allocate(rect, dead); err == nil {
		t.Fatal("allocation rooted at a dead node accepted")
	}
	cr, err := n.Allocate(rect, torus.Rank(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cr.Parties(), dims.Nodes()-1; got != want {
		t.Fatalf("parties = %d, want %d (dead node excluded)", got, want)
	}
}
