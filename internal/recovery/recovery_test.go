package recovery

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pamigo/internal/torus"
)

func TestSnapshotRoundTrip(t *testing.T) {
	for _, s := range []*Snapshot{
		{Node: 0, Version: 0},
		{Node: 3, Version: 17, Data: []byte("round-17 digest state")},
		{Node: 1, Version: 1 << 40, Data: bytes.Repeat([]byte{0xa5}, 4096)},
	} {
		blob := s.Encode()
		got, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Node != s.Node || got.Version != s.Version || !bytes.Equal(got.Data, s.Data) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, s)
		}
	}
}

func TestDecodeCopiesData(t *testing.T) {
	s := &Snapshot{Node: 2, Version: 9, Data: []byte("transient")}
	blob := s.Encode()
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xff
	}
	if !bytes.Equal(got.Data, []byte("transient")) {
		t.Fatal("decoded Data aliases the input blob")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := (&Snapshot{Node: 5, Version: 3, Data: []byte("payload")}).Encode()
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-5],
		"extended":  append(append([]byte(nil), good...), 0),
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		return b
	}
	cases["bad magic"] = flip(0)
	cases["bad format"] = flip(5)
	cases["bit flip in data"] = flip(snapHeader + 2)
	cases["bit flip in crc"] = flip(len(good) - 1)
	for name, blob := range cases {
		if _, err := DecodeSnapshot(blob); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

func TestStoreNewestVersionWins(t *testing.T) {
	st := NewStore()
	if !st.PutReplica(&Snapshot{Node: 1, Version: 5}) {
		t.Fatal("first put rejected")
	}
	if st.PutReplica(&Snapshot{Node: 1, Version: 3}) {
		t.Fatal("older version accepted")
	}
	if got := st.Replica(1).Version; got != 5 {
		t.Fatalf("replica version = %d, want 5", got)
	}
	if !st.PutReplica(&Snapshot{Node: 1, Version: 5, Data: []byte("rewrite")}) {
		t.Fatal("same-version rewrite rejected")
	}
	if !st.PutReplica(&Snapshot{Node: 1, Version: 6}) {
		t.Fatal("newer version rejected")
	}
	st.Drop(1)
	if st.Replica(1) != nil || st.Local(1) != nil {
		t.Fatal("Drop left state behind")
	}
}

func TestBuddyOf(t *testing.T) {
	// Single process hosting everything: buddy is the next node.
	if b := BuddyOf(2, 4, 0, 4); b != 3 {
		t.Fatalf("BuddyOf(2,4,0,4) = %d, want 3", b)
	}
	if b := BuddyOf(3, 4, 0, 4); b != 0 {
		t.Fatalf("BuddyOf(3,4,0,4) = %d, want 0", b)
	}
	// Two processes of two nodes each: buddy must leave the owner's range.
	if b := BuddyOf(0, 4, 0, 2); b != 2 {
		t.Fatalf("BuddyOf(0,4,0,2) = %d, want 2", b)
	}
	if b := BuddyOf(1, 4, 0, 2); b != 2 {
		t.Fatalf("BuddyOf(1,4,0,2) = %d, want 2", b)
	}
	if b := BuddyOf(3, 4, 2, 4); b != 0 {
		t.Fatalf("BuddyOf(3,4,2,4) = %d, want 0", b)
	}
	// Survivors compute the victim's buddy from the victim's range and
	// agree with what the victim computed for itself.
	if own, peer := BuddyOf(2, 4, 2, 4), BuddyOf(2, 4, 2, 4); own != peer {
		t.Fatalf("buddy disagreement: %d vs %d", own, peer)
	}
}

func TestSupervisorAutoRecover(t *testing.T) {
	revived := make(chan torus.Rank, 1)
	var sup *Supervisor
	var err error
	sup, err = NewSupervisor(Config{
		Nodes: 4, HostedLo: 0, HostedHi: 4,
		Revive: func(n torus.Rank) error { revived <- n; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	restored := make(chan *Snapshot, 1)
	sup.OnRestore(func(s *Snapshot) { restored <- s })

	if err := sup.Checkpoint(1, 7, []byte("state@7")); err != nil {
		t.Fatal(err)
	}
	// With no Replicate hook the buddy lives in the same store.
	if sup.Store().Replica(1) == nil {
		t.Fatal("local replication did not land in store")
	}

	sup.NoteDeath(1)
	select {
	case n := <-revived:
		if n != 1 {
			t.Fatalf("revived node %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Revive never called")
	}
	select {
	case s := <-restored:
		if s.Node != 1 || s.Version != 7 || string(s.Data) != "state@7" {
			t.Fatalf("restored %+v, want node 1 version 7", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnRestore never called")
	}
}

func TestSupervisorFreshStartWithoutReplica(t *testing.T) {
	sup, err := NewSupervisor(Config{
		Nodes: 2, HostedLo: 0, HostedHi: 2,
		Revive: func(torus.Rank) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	restored := make(chan *Snapshot, 1)
	sup.OnRestore(func(s *Snapshot) { restored <- s })
	sup.NoteDeath(0)
	select {
	case s := <-restored:
		if s.Version != 0 || len(s.Data) != 0 {
			t.Fatalf("expected empty version-0 snapshot, got %+v", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnRestore never called")
	}
}

func TestReplicaResponse(t *testing.T) {
	// Process hosting [2,4) of a 4-node partition; victim hosts [0,2).
	sup, err := NewSupervisor(Config{Nodes: 4, HostedLo: 2, HostedHi: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	// Buddy of victim node 0 is node 2 — ours, and we hold a replica.
	if err := sup.AcceptReplica((&Snapshot{Node: 0, Version: 12, Data: []byte("n0")}).Encode()); err != nil {
		t.Fatal(err)
	}
	blob, ok := sup.ReplicaResponse(0, 0, 2)
	if !ok {
		t.Fatal("should be the designated responder for node 0")
	}
	s, err := DecodeSnapshot(blob)
	if err != nil || s.Version != 12 {
		t.Fatalf("responded with %+v (%v), want version 12", s, err)
	}

	// Node 1's buddy is also node 2 (ring walk skips [0,2)); no replica
	// held → empty version-0 answer, never silence.
	blob, ok = sup.ReplicaResponse(1, 0, 2)
	if !ok {
		t.Fatal("should be the designated responder for node 1")
	}
	if s, err := DecodeSnapshot(blob); err != nil || s.Version != 0 {
		t.Fatalf("want empty v0 response, got %+v (%v)", s, err)
	}

	// A corrupt replica frame is rejected, not stored.
	if err := sup.AcceptReplica([]byte("garbage")); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("AcceptReplica(garbage) = %v, want ErrCorruptSnapshot", err)
	}
}

func TestAwaitReplica(t *testing.T) {
	sup, err := NewSupervisor(Config{Nodes: 2, HostedLo: 0, HostedHi: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if _, err := sup.AwaitReplica(0, 10*time.Millisecond); err == nil {
		t.Fatal("AwaitReplica should time out with no replica")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		sup.Store().PutReplica(&Snapshot{Node: 0, Version: 4})
	}()
	s, err := sup.AwaitReplica(0, 2*time.Second)
	if err != nil || s.Version != 4 {
		t.Fatalf("AwaitReplica = %+v, %v", s, err)
	}
}

func TestLeader(t *testing.T) {
	dead := map[torus.Rank]bool{0: true}
	sup, err := NewSupervisor(Config{
		Nodes: 4, HostedLo: 0, HostedHi: 4,
		Alive: func(n torus.Rank) bool { return !dead[n] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if l := sup.Leader(); l != 1 {
		t.Fatalf("Leader = %d, want 1 (lowest alive)", l)
	}
	if !sup.IsLeader() {
		t.Fatal("this process hosts rank 1 and should lead")
	}
}
