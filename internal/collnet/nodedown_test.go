package collnet

import (
	"errors"
	"slices"
	"testing"

	"pamigo/internal/health"
	"pamigo/internal/torus"
)

// wired returns a network whose membership is a health monitor, wired
// the way the machine wires it: a confirmed death runs HandleMembership
// from the monitor's death callback. The monitor's scanner never starts;
// tests declare deaths and revivals themselves.
func wired(t *testing.T, d torus.Dims) (*Network, *health.Monitor) {
	t.Helper()
	hmon, err := health.NewMonitor(health.Config{Nodes: d.Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	n := New(d)
	n.SetHealth(hmon)
	hmon.OnDeath(n.HandleMembership)
	return n, hmon
}

// revive returns v to the membership in the machine's order: the epoch
// moves first, then the collective network reprograms.
func revive(n *Network, hmon *health.Monitor, v torus.Rank) {
	hmon.Revive(v)
	n.HandleMembership(v)
}

// TestHandleNodeDownShrinksRoute kills a leaf node and requires the
// classroute to drop it from the membership, rebuild the tree over the
// survivors, and still complete a fresh session exactly.
func TestHandleNodeDownShrinksRoute(t *testing.T) {
	n, hmon := wired(t, dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	before := cr.Parties()
	ranks := cr.Ranks()
	victim := ranks[len(ranks)-1] // not the root (root is the lowest rank)
	hmon.DeclareDead(victim)
	if got := cr.Parties(); got != before-1 {
		t.Fatalf("parties = %d after death, want %d", got, before-1)
	}
	for _, r := range cr.Ranks() {
		if r == victim {
			t.Fatalf("dead node %d still listed in the route", victim)
		}
	}
	if v := collCounter(t, n, "nodes_down"); v != 1 {
		t.Fatalf("nodes_down = %d, want 1", v)
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
	n, hmon := wired(t, dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	ranks := cr.Ranks()
	victim := ranks[len(ranks)-1]
	s, _ := cr.Join(1, KindBarrier, OpAdd, Uint64, 0)
	s.Contribute(ranks[0], nil) // one survivor arrived; the rest never will
	hmon.DeclareDead(victim)
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
	n, hmon := wired(t, dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	oldRoot := cr.Root
	hmon.DeclareDead(oldRoot)
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
	n, hmon := wired(t, dims)
	dead := torus.Rank(0)
	hmon.DeclareDead(dead)
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

// TestRevivedNodeRejoins kills the root of a live route, opens a session
// over the survivors and revives the node: it rejoins the membership,
// the re-elected root keeps the route, the open session fails with
// ErrEpochChanged, and a fresh session sums exactly over every node.
func TestRevivedNodeRejoins(t *testing.T) {
	n, hmon := wired(t, dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	victim := cr.Root
	hmon.DeclareDead(victim)
	root := cr.Root
	s, _ := cr.Join(1, KindReduce, OpAdd, Int64, 8)
	s.Contribute(root, EncodeInt64s([]int64{1}))
	revive(n, hmon, victim)
	if !slices.Equal(cr.Ranks(), dims.FullRectangle().Ranks(dims)) {
		t.Fatalf("membership after revival = %v, want every node", cr.Ranks())
	}
	if cr.Root != root || cr.Tree().Root != root {
		t.Fatalf("root = %d (tree %d) after revival, want %d to stay", cr.Root, cr.Tree().Root, root)
	}
	if _, err := s.WaitErr(); !errors.Is(err, health.ErrEpochChanged) {
		t.Fatalf("session open across the revival: WaitErr = %v, want ErrEpochChanged", err)
	}
	contribs := make(map[torus.Rank][]byte)
	var want int64
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeInt64s([]int64{int64(r) + 1})
		want += int64(r) + 1
	}
	if got := DecodeInt64s(runSession(t, cr, KindReduce, OpAdd, Int64, contribs))[0]; got != want {
		t.Fatalf("allreduce over the grown membership = %d, want %d", got, want)
	}
}

// TestSlotsFollowMembership counts a node's classroute slots from the
// routes that list it, across deaths and revivals.
func TestSlotsFollowMembership(t *testing.T) {
	v := torus.Rank(3)
	t.Run("free while dead", func(t *testing.T) {
		n, hmon := wired(t, dims)
		cr, err := n.AllocateWorld()
		if err != nil {
			t.Fatal(err)
		}
		hmon.DeclareDead(v)
		n.Free(cr)
		revive(n, hmon, v)
		if got := n.InUse(v); got != 0 {
			t.Fatalf("InUse(%d) = %d with no route live, want 0", v, got)
		}
	})
	t.Run("allocate while dead", func(t *testing.T) {
		n, hmon := wired(t, dims)
		if _, err := n.AllocateWorld(); err != nil {
			t.Fatal(err)
		}
		hmon.DeclareDead(v)
		b, err := n.AllocateWorld()
		if err != nil {
			t.Fatal(err)
		}
		revive(n, hmon, v)
		n.Free(b)
		if got := n.InUse(v); got != 1 {
			t.Fatalf("InUse(%d) = %d while the first route lists it, want 1", v, got)
		}
	})
	t.Run("allocate after revival", func(t *testing.T) {
		// Routes live before the death, allocated during it and after the
		// revival all list every node once it is back: the j-th world
		// route is refused exactly when j-1 already fill every node.
		n, hmon := wired(t, dims)
		live := 0
		allocate := func() {
			t.Helper()
			_, err := n.AllocateWorld()
			if full := live >= UserSlots; full != errors.Is(err, ErrNoClassRoute) || !full && err != nil {
				t.Fatalf("allocation %d with %d routes live: %v", live+1, live, err)
			}
			if err == nil {
				live++
			}
			for r := range torus.Rank(dims.Nodes()) {
				if got := n.InUse(r); got != live && !hmon.Dead(r) {
					t.Fatalf("InUse(%d) = %d, want %d", r, got, live)
				}
			}
		}
		for range UserSlots - 3 {
			allocate()
		}
		hmon.DeclareDead(v)
		allocate()
		revive(n, hmon, v)
		for range 3 {
			allocate()
		}
		if live != UserSlots {
			t.Fatalf("%d routes live, want %d", live, UserSlots)
		}
	})
}
