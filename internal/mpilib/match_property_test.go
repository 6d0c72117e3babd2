package mpilib

import (
	"math/rand"
	"testing"

	"pamigo/internal/core"
	"pamigo/internal/telemetry"
)

// refMatcher is an executable statement of the MPI matching rules: posted
// receives match in post order; an arriving envelope takes the earliest
// matching posted receive, else queues unexpected; a posted receive takes
// the earliest matching unexpected message, else queues posted.
type refMatcher struct {
	posted  []refRecv
	unex    []envelope
	unexIDs []int // message IDs, parallel to unex
	// pairs records (recvID, messageID) matches in the order they happen.
	pairs [][2]int
}

type refRecv struct {
	id       int
	src, tag int
	comm     uint64
}

func (m *refMatcher) arrive(msgID int, e envelope) {
	for i, p := range m.posted {
		if matches(p.comm, p.src, p.tag, e) {
			m.pairs = append(m.pairs, [2]int{p.id, msgID})
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return
		}
	}
	m.unex = append(m.unex, e)
	m.unexIDs = append(m.unexIDs, msgID)
}

func (m *refMatcher) post(r refRecv) {
	for i, e := range m.unex {
		if matches(r.comm, r.src, r.tag, e) {
			m.pairs = append(m.pairs, [2]int{r.id, m.unexIDs[i]})
			m.unex = append(m.unex[:i], m.unex[i+1:]...)
			m.unexIDs = append(m.unexIDs[:i], m.unexIDs[i+1:]...)
			return
		}
	}
	m.posted = append(m.posted, r)
}

// TestMatcherAgainstReference runs the *World matcher — matchPosted and
// fileUnexpected as onMessage calls them, matchUnexpected and the posted
// queue as Irecv does, white-box on its intrusive queues — against the
// reference on random interleavings of arrivals and posts, including
// wildcards, and demands identical match pairs.
func TestMatcherAgainstReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// Queues only; no machine needed for matching logic, but the stats
		// slots must exist because the matcher updates them.
		w := &World{tele: newWorldStats(telemetry.NewRegistry("test"))}
		ref := &refMatcher{}

		var gotPairs [][2]int
		nextMsg, nextRecv := 0, 0
		// The receive ID of each entry still in the posted queue, so an
		// arrival's match can be named. An unexpected entry carries its
		// message ID in size.
		recvIDs := map[*postedRecv]int{}

		steps := 30 + rng.Intn(40)
		for s := 0; s < steps; s++ {
			if rng.Intn(2) == 0 {
				// A message arrives.
				e := envelope{
					comm: uint64(1 + rng.Intn(2)),
					src:  int32(rng.Intn(3)),
					tag:  int32(rng.Intn(3)),
				}
				msgID := nextMsg
				nextMsg++
				w.queueMu.Lock()
				if p := w.matchPosted(e); p != nil {
					gotPairs = append(gotPairs, [2]int{recvIDs[p], msgID})
					delete(recvIDs, p)
				} else {
					w.fileUnexpected(e, &core.Delivery{Size: msgID})
				}
				w.queueMu.Unlock()
				ref.arrive(msgID, e)
			} else {
				// A receive is posted (sometimes with wildcards).
				src := rng.Intn(4) - 1 // -1 = AnySource
				tag := rng.Intn(4) - 1 // -1 = AnyTag
				comm := uint64(1 + rng.Intn(2))
				recvID := nextRecv
				nextRecv++
				w.queueMu.Lock()
				if un, ok := w.matchUnexpected(comm, src, tag); ok {
					gotPairs = append(gotPairs, [2]int{recvID, un.size})
				} else {
					pr := &postedRecv{comm: comm, src: src, tag: tag}
					w.posted.pushBack(pr)
					recvIDs[pr] = recvID
				}
				w.queueMu.Unlock()
				ref.post(refRecv{id: recvID, src: src, tag: tag, comm: comm})
			}
		}
		if len(gotPairs) != len(ref.pairs) {
			t.Fatalf("trial %d: %d matches vs reference %d", trial, len(gotPairs), len(ref.pairs))
		}
		for i := range gotPairs {
			if gotPairs[i] != ref.pairs[i] {
				t.Fatalf("trial %d: match %d = %v, reference %v", trial, i, gotPairs[i], ref.pairs[i])
			}
		}
		if p, u := w.QueueDepths(); p != len(ref.posted) || u != len(ref.unex) {
			t.Fatalf("trial %d: queue depths %d/%d, reference %d/%d", trial, p, u, len(ref.posted), len(ref.unex))
		}
	}
}
