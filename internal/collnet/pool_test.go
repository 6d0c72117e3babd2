package collnet

import (
	"encoding/binary"
	"errors"
	"testing"

	"pamigo/internal/torus"
)

// recorder is a Sink that keeps what it was told.
type recorder struct {
	calls  int
	seq    uint64
	result []byte
	err    error
}

func (r *recorder) SessionDone(seq uint64, result []byte, err error) {
	r.calls++
	r.seq, r.result, r.err = seq, result, err
}

func openSessions(cr *ClassRoute) (n int) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	for i := range cr.slots {
		if cr.slots[i].open {
			n++
		}
	}
	return n
}

// TestSessionPoolSteadyStateZeroAlloc: once the slots' buffers exist, a
// session joined, contributed to through sinks and released allocates
// nothing; the WaitErr path allocates only the result it hands out.
func TestSessionPoolSteadyStateZeroAlloc(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	ranks := cr.Ranks()
	sinks := make([]recorder, len(ranks))
	word := EncodeInt64s([]int64{3})
	var seq uint64
	viaSinks := func() {
		seq++
		for i, r := range ranks {
			s, err := cr.Join(seq, KindReduce, OpAdd, Int64, 8)
			if err != nil {
				t.Fatal(err)
			}
			s.ContributeTo(r, word, &sinks[i])
		}
		for i := range ranks {
			if got := binary.LittleEndian.Uint64(sinks[i].result); sinks[i].seq != seq || got != uint64(3*len(ranks)) {
				t.Fatalf("sink %d of session %d was told session %d, sum %d", i, seq, sinks[i].seq, got)
			}
			s, _ := cr.Join(seq, KindReduce, OpAdd, Int64, 8)
			s.Release(seq)
		}
	}
	viaSinks()
	if a := testing.AllocsPerRun(200, viaSinks); a != 0 {
		t.Errorf("a session through sinks allocates %v times, want 0", a)
	}
	viaWait := func() {
		seq++
		var s *Session
		for _, r := range ranks {
			s, _ = cr.Join(seq, KindReduce, OpAdd, Int64, 8)
			s.Contribute(r, word)
		}
		for range ranks {
			if res, err := s.WaitErr(); err != nil || binary.LittleEndian.Uint64(res) != uint64(3*len(ranks)) {
				t.Fatalf("WaitErr = %v, %v", res, err)
			}
		}
	}
	if a := testing.AllocsPerRun(200, viaWait); a > 1 {
		t.Errorf("a session through WaitErr allocates %v times, want its one result copy", a)
	}
	if open := openSessions(cr); open != 0 || n.sessionsOpen.Load() != 0 || n.inboxBytes.Load() != 0 {
		t.Errorf("at rest: %d slots open, sessions_open %d, inbox_bytes %d", open, n.sessionsOpen.Load(), n.inboxBytes.Load())
	}
}

// TestWaitErrResultOutlivesSlot: the buffer WaitErr returns stays intact
// when the session has retired and its slot serves a later session.
func TestWaitErrResultOutlivesSlot(t *testing.T) {
	n := New(dims)
	cr, _ := n.AllocateWorld()
	run := func(seq uint64, v int64) []byte {
		var s *Session
		for _, r := range cr.Ranks() {
			s, _ = cr.Join(seq, KindReduce, OpAdd, Int64, 8)
			s.Contribute(r, EncodeInt64s([]int64{v}))
		}
		var res []byte
		for range cr.Ranks() {
			res, _ = s.WaitErr()
		}
		return res
	}
	first := run(1, 1)
	run(2, 100) // same slot, same buffers
	if got, want := DecodeInt64s(first)[0], int64(len(cr.Ranks())); got != want {
		t.Fatalf("first session's result reads %d after the slot was reused, want %d", got, want)
	}
}

// TestSinksOnFailedSession: Fail tells every registered sink, a node
// contributing after the failure is told at once, each exactly once; the
// session retires when every surviving node has released it, and a
// release through the stale handle cannot touch the slot's next tenant.
func TestSinksOnFailedSession(t *testing.T) {
	n := New(dims)
	cr, _ := n.AllocateWorld()
	ranks := cr.Ranks()
	cause := errors.New("test failure")
	s, _ := cr.Join(9, KindBarrier, OpAdd, Uint64, 0)
	early, late := &recorder{}, &recorder{}
	s.ContributeTo(ranks[0], nil, early)
	if early.calls != 0 {
		t.Fatal("sink told before the session completed")
	}
	if !cr.Fail(9, cause) || cr.Fail(9, cause) || cr.Fail(10, cause) {
		t.Fatal("Fail(seq) must fail the open session with that number, once")
	}
	s.ContributeTo(ranks[1], nil, late)
	for _, r := range []*recorder{early, late} {
		if r.calls != 1 || r.seq != 9 || !errors.Is(r.err, cause) {
			t.Fatalf("sink after failure: %+v", *r)
		}
	}
	for i := 0; i < len(ranks); i++ {
		if open := openSessions(cr); open != 1 {
			t.Fatalf("session retired after %d of %d releases", i, len(ranks))
		}
		s.Release(9)
	}
	if open := openSessions(cr); open != 0 {
		t.Fatal("session still open after every node released it")
	}
	s2, _ := cr.Join(10, KindBarrier, OpAdd, Uint64, 0)
	if s2 != s {
		t.Fatal("the retired slot was not reused")
	}
	s.Release(9)
	s.FailSeq(9, cause)
	if s2.done.Load() || s2.waited != 0 || openSessions(cr) != 1 {
		t.Fatal("a stale handle reached the slot's next tenant")
	}
}

// TestBroadcastSinks: the source's contribution completes the session for
// the nodes already there; later nodes are told as they contribute.
func TestBroadcastSinks(t *testing.T) {
	n := New(dims)
	cr, _ := n.AllocateWorld()
	ranks := cr.Ranks()
	sinks := make([]recorder, len(ranks))
	src := 1
	order := []int{0, src, 2, 3}
	for k, i := range order {
		s, _ := cr.Join(4, KindBroadcast, OpAdd, Uint64, 3)
		var data []byte
		if i == src {
			data = []byte("abc")
		}
		s.ContributeTo(torus.Rank(ranks[i]), data, &sinks[i])
		for _, j := range order[:k+1] {
			told := k >= 1 // the source is second
			if (sinks[j].calls == 1) != told || (told && string(sinks[j].result) != "abc") {
				t.Fatalf("after %d contributions sink %d: %+v", k+1, j, sinks[j])
			}
		}
	}
	if v, _ := n.Telemetry().Snapshot().Counter("broadcasts"); v != 1 {
		t.Fatalf("broadcasts = %d, want 1", v)
	}
}
