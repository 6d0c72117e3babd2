package collnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/abort"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
	"pamigo/internal/watchdog"
)

// Kind distinguishes what a collective session computes.
type Kind int

// Session kinds. Reduce covers both MPI_Reduce and MPI_Allreduce: the
// network always combines to the root and the result is re-broadcast down
// the same tree, so whether every caller reads the result is the caller's
// business. Broadcast forwards the root's contribution unchanged. Barrier
// is a zero-byte combine.
const (
	KindReduce Kind = iota
	KindBroadcast
	KindBarrier
)

// SessionCredits bounds how many sessions may be open on one classroute
// at once — the collective network's inbox. Each open session parks up to
// parties copies of its contribution, so without a bound a participant
// racing ahead of slow peers (joining and contributing to ever-later
// sequence numbers before anyone Waits) grows receiver memory without
// limit. Past the cap, Join blocks until a session retires: the runaway
// producer stalls instead of OOMing the inbox. Blocking collectives hold
// at most two sessions open per route, so the cap only bites pipelined
// (mis)use.
const SessionCredits = 16

// Sink receives a session's outcome for one participating node, in place
// of the node's WaitErr: once per session, from whichever goroutine
// completes or fails it (or the node's own late ContributeTo), with the
// session lock held — it must not block or call back into the session.
// result is the session's own buffer: the node reads it in place and calls
// Release(seq) when its last reader is done.
type Sink interface {
	SessionDone(seq uint64, result []byte, err error)
}

// Session is one in-flight collective operation on a classroute. Node
// processes Join the same sequence number, Contribute their local data,
// and Wait for the network result. Combining happens in deterministic
// post-order over the classroute tree, mirroring the fixed hardware wiring
// that makes BG/Q floating-point reductions bit-reproducible.
//
// Sessions are the SessionCredits slots of their classroute's table,
// reused with their buffers once retired, so a steady stream of
// collectives allocates nothing — and a *Session is only valid until the
// holder's own WaitErr or Release.
type Session struct {
	cr     *ClassRoute
	region *wakeup.Region // WaitErr parks here; touched at completion

	mu      sync.Mutex
	open    bool // slot holds a session; written under cr.mu and mu
	seq     uint64
	kind    Kind
	op      Op
	dt      DType
	nbytes  int
	parties int

	// Per node of the route's rectangle (ClassRoute.index): the router's
	// copy of the contribution, whether it arrived, and who to tell.
	contrib [][]byte
	have    []bool
	sinks   []Sink

	parked  int64 // contribution bytes held until the session retires
	arrived int
	waited  int         // WaitErr and Release calls so far
	done    atomic.Bool // result or err is final
	result  []byte      // aliases the contribution buffer the fold ended in
	handout []byte      // WaitErr's copy of result, which outlives the slot
	err     error       // set by Fail: membership changed mid-session
}

// Join finds or creates the session with the given sequence number on the
// classroute. All participants must pass identical parameters; mismatches
// indicate a program error and panic, like mismatched collectives on the
// real machine silently corrupting data, only louder.
//
// A Join that blocks on the session-credit gate is abortable: it
// registers with the stall sentinel (when armed) and returns the typed
// poison cause — wrapping abort.ErrAborted — if the route is poisoned
// while it waits, instead of blocking on a credit that will never free.
func (cr *ClassRoute) Join(seq uint64, kind Kind, op Op, dt DType, nbytes int) (*Session, error) {
	if cr.net == nil {
		panic("collnet: Join on a freed classroute")
	}
	cr.mu.Lock()
	defer cr.mu.Unlock()
	for {
		var free *Session
		for i := range cr.slots {
			s := &cr.slots[i]
			if !s.open {
				if free == nil {
					free = s
				}
			} else if s.seq == seq {
				if s.kind != kind || s.op != op || s.dt != dt || s.nbytes != nbytes {
					panic(fmt.Sprintf("collnet: session %d parameter mismatch: have (%v,%v,%v,%d), got (%v,%v,%v,%d)",
						seq, s.kind, s.op, s.dt, s.nbytes, kind, op, dt, nbytes))
				}
				return s, nil
			}
		}
		if err := cr.poison; err != nil {
			return nil, err
		}
		if free != nil {
			free.reset(seq, kind, op, dt, nbytes)
			if cr.net != nil {
				cr.net.sessionsOpen.Inc()
			}
			return free, nil
		}
		// Inbox full: block until a session retires and frees a credit.
		// Joining an already-open session (above) never blocks, so slow
		// peers can always reach the sessions that will retire first.
		cr.awaitCreditLocked()
	}
}

// awaitCreditLocked parks a Join on the full session table until a
// session retires or the route is poisoned or freed. cr.mu is held.
func (cr *ClassRoute) awaitCreditLocked() {
	var park watchdog.Park
	if cr.net != nil {
		cr.net.creditStalls.Inc()
		if st := cr.net.joinSite.Load(); st != nil {
			st.Attach(&park, func(c *abort.Cause) { cr.Poison(c) })
			park.Enter()
			defer park.Detach()
		}
	}
	cr.retired.Wait()
	if cr.net == nil {
		panic("collnet: classroute freed while waiting for a session credit")
	}
}

// reset turns a free slot into the session for seq, keeping the slot's
// buffers. cr.mu is held.
func (s *Session) reset(seq uint64, kind Kind, op Op, dt DType, nbytes int) {
	s.mu.Lock()
	s.open, s.seq, s.kind, s.op, s.dt, s.nbytes = true, seq, kind, op, dt, nbytes
	s.parties = s.cr.Parties()
	if n := len(s.cr.nodes); len(s.have) != n {
		s.contrib, s.have, s.sinks = make([][]byte, n), make([]bool, n), make([]Sink, n)
	}
	clear(s.have)
	s.parked, s.arrived, s.waited = 0, 0, 0
	s.result, s.handout, s.err = nil, nil, nil
	s.done.Store(false)
	s.mu.Unlock()
}

// Contribute injects node rank's local contribution. For KindBroadcast
// only the root's data matters (peers may pass nil); for KindBarrier data
// is ignored. Contribute does not block.
func (s *Session) Contribute(rank torus.Rank, data []byte) { s.ContributeTo(rank, data, nil) }

// ContributeTo is Contribute for a node that takes the outcome through a
// Sink and calls Release, instead of WaitErr.
func (s *Session) ContributeTo(rank torus.Rank, data []byte, sink Sink) {
	i := s.cr.index(rank)
	s.mu.Lock()
	switch {
	case s.err != nil:
		// The session already failed (a participant died); late
		// contributions from survivors are moot — they learn the failure
		// from WaitErr or, here, through their sink.
	case s.have[i]:
		panic(fmt.Sprintf("collnet: node %d contributed twice to session %d", rank, s.seq))
	case s.kind == KindReduce && len(data) != s.nbytes:
		panic(fmt.Sprintf("collnet: node %d contribution %dB, session expects %dB", rank, len(data), s.nbytes))
	default:
		// The router consumes the packet as it flows; keep a private copy so
		// the caller may reuse its buffer immediately, like the MU does.
		s.have[i] = true
		s.contrib[i] = append(s.contrib[i][:0], data...)
		s.parked += int64(len(data))
		if net := s.cr.net; net != nil {
			net.inboxBytes.Update(int64(len(data)))
		}
		s.arrived++
	}
	s.sinks[i] = sink
	switch {
	case s.done.Load():
		// Failed, or a broadcast whose source was here first.
		s.deliverLocked(i)
	case s.kind == KindBroadcast:
		// Exactly one node — the broadcast source — contributes data; the
		// router forwards it up to the classroute root and down every
		// branch, so the source need not be the tree root.
		if data != nil {
			s.result = s.contrib[i]
			s.completeLocked()
		}
	case s.arrived == s.parties:
		s.result = s.combineTree()
		s.completeLocked()
	}
	s.unlockRetire()
}

// completeLocked makes the outcome final: counts the session (guarded
// against a concurrently freed classroute, which retires the counters),
// tells every sink registered so far and wakes the WaitErr callers.
func (s *Session) completeLocked() {
	if net := s.cr.net; net != nil && s.err == nil {
		[...]*telemetry.Counter{KindReduce: net.reductions, KindBroadcast: net.broadcasts, KindBarrier: net.barriers}[s.kind].Inc()
	}
	s.done.Store(true)
	for i := range s.sinks {
		s.deliverLocked(i)
	}
	s.region.Touch()
}

func (s *Session) deliverLocked(i int) {
	if sink := s.sinks[i]; sink != nil {
		s.sinks[i] = nil
		sink.SessionDone(s.seq, s.result, s.err)
	}
}

// unlockRetire releases s.mu and, when every participant has collected
// the outcome, frees the slot and its credit. A failed session retires
// once every *surviving* participant has — the dead node's WaitErr never
// comes — so it can reach its quorum more than once (the quorum drops
// while stragglers still Wait); open and seq retire it exactly once, and
// never its slot's next tenant.
func (s *Session) unlockRetire() {
	parties, seq := s.parties, s.seq
	if s.err != nil {
		parties = min(parties, s.cr.Parties())
	}
	retire := s.done.Load() && s.waited >= parties
	s.mu.Unlock()
	if !retire {
		return
	}
	cr := s.cr
	cr.mu.Lock()
	s.mu.Lock()
	if s.open && s.seq == seq {
		s.open = false
		if net := cr.net; net != nil {
			net.sessionsOpen.Dec()
			net.inboxBytes.Update(-s.parked)
		}
		cr.retired.Broadcast()
	}
	s.mu.Unlock()
	cr.mu.Unlock()
}

// combineTree folds contributions in post-order over the classroute tree:
// each node combines its children's subtree results into its own
// contribution, in place in the session's copies; the root's value is the
// network result. s.mu is held and every contribution has arrived.
func (s *Session) combineTree() []byte {
	if s.kind == KindBarrier || s.nbytes == 0 {
		return nil
	}
	return s.fold(s.cr.Tree(), s.cr.Root)
}

func (s *Session) fold(tree *torus.Tree, n torus.Rank) []byte {
	net := s.cr.net
	if net != nil {
		net.traversals.Inc()
	}
	acc := s.contrib[s.cr.index(n)]
	for _, c := range tree.Children(n) {
		if err := Combine(s.op, s.dt, acc, s.fold(tree, c)); err != nil {
			panic("collnet: " + err.Error())
		}
		if net != nil {
			net.combines.Add(int64(len(acc) / 8))
		}
	}
	return acc
}

// FailSeq completes the session exceptionally, waking its waiters with
// err instead of a result, but only while the slot still holds session
// seq: the holder's handle may have gone stale. Reports whether this call
// failed the session (a completed or already-failed session, or a slot
// with a new tenant, is left untouched).
func (s *Session) FailSeq(seq uint64, err error) bool {
	s.mu.Lock()
	return s.failUnlock(seq, err)
}

// Fail fails the route's open session with the given sequence number, if
// there is one: FailSeq for a caller that holds no handle.
func (cr *ClassRoute) Fail(seq uint64, err error) (failed bool) {
	for i := 0; i < len(cr.slots) && !failed; i++ {
		failed = cr.slots[i].FailSeq(seq, err)
	}
	return failed
}

// failUnlock is entered with s.mu held and releases it.
func (s *Session) failUnlock(seq uint64, err error) bool {
	failed := s.open && s.seq == seq && !s.done.Load()
	if failed {
		s.err = err
		s.completeLocked()
	}
	s.unlockRetire()
	return failed
}

// WaitErr blocks until the session completes or fails, returning the
// network result — a buffer the participants share and copy out of — or
// the typed failure (ErrEpochChanged wrapped with the dead node). Every
// participant calls it exactly once; the last call retires the session.
func (s *Session) WaitErr() ([]byte, error) {
	for gen := s.region.Gen(); !s.done.Load(); gen = s.region.Gen() {
		s.region.Wait(gen)
	}
	s.mu.Lock()
	s.waited++
	if s.handout == nil && len(s.result) > 0 {
		s.handout = append([]byte(nil), s.result...)
	}
	res, err := s.handout, s.err
	s.unlockRetire()
	return res, err
}

// Release is the WaitErr of a node whose Sink has the outcome of session
// seq: its last reader is done with the result buffer. A stale handle (the
// slot has a new tenant) is ignored.
func (s *Session) Release(seq uint64) {
	s.mu.Lock()
	if s.open && s.seq == seq {
		s.waited++
	}
	s.unlockRetire()
}
