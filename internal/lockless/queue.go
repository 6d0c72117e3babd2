// Package lockless implements the lockless queues PAMI builds from the
// BG/Q L2 atomic operations (paper §III.B).
//
// The central structure is a fixed-size array queue in which producers
// allocate slots with the L2 "bounded increment" — an atomic
// load-and-increment combined with a compare against a bound — so that
// multiple threads can post to the same queue without a lock. When the
// array is full, entries spill into an overflow queue protected by a mutex,
// exactly as the paper describes. A monotonically increasing ticket gives
// the queue a total FIFO order that spans both the array and the overflow,
// which is what lets higher layers (the PAMI context work queue, the shared
// memory reception queues) preserve per-producer ordering.
//
// Enqueue is safe for any number of concurrent producers. Dequeue is
// intentionally *not* self-synchronized: a PAMI context is advanced by one
// thread at a time (PAMI_Context_advance is documented as thread-unsafe),
// so the single-consumer discipline is enforced by the layer above, the
// same division of responsibility the paper assigns.
package lockless

import (
	"errors"

	"pamigo/internal/l2atomic"
)

// ErrBackpressure reports that an enqueue was refused because the
// overflow queue reached its cap: the consumer has fallen hopelessly
// behind (or died), and accepting more would grow memory without bound.
// Callers treat it like a full hardware FIFO — back off and retry, or
// surface the loss to their reliability layer.
var ErrBackpressure = errors.New("lockless: queue overflow cap exceeded")

// DefaultOverflowCap bounds the overflow map. Generous: overflow is the
// slow path and normally drains within one consumer pass, so hitting
// tens of thousands of parked entries means the consumer is gone.
const DefaultOverflowCap = 1 << 16

type cell[T any] struct {
	// seq publishes the cell: a producer that wrote ticket t stores t+1.
	seq l2atomic.Counter
	val T
}

// ovfCell is one slot of the overflow ring: tick holds ticket+1 so the
// zero value reads as empty.
type ovfCell[T any] struct {
	tick int64
	val  T
}

// Queue is a multi-producer single-consumer FIFO queue: a bounded
// lock-free array with a mutex-protected overflow, per paper §III.B.
// Create queues with NewQueue; the zero value is not usable.
type Queue[T any] struct {
	cells []cell[T]
	mask  int64

	// tail is written by every producer, head by the consumer once per
	// drain. Each has a cache line to itself, so a ticket claim neither
	// evicts the consumer's cursor nor the read-mostly fields around it.
	_    [64]byte
	tail l2atomic.Counter // next ticket to allocate
	_    [64]byte
	head l2atomic.Counter // next ticket to consume
	_    [64]byte

	// Overflow entries park in a ticket-indexed ring, not a hash map:
	// tickets are dense integers, so slot ticket&mask is an exact-fit
	// address and a parked entry costs two array writes instead of a
	// hash, a probe, and a map-cell copy each way. The ring grows (under
	// the mutex, amortized) until the live ticket span fits; it never
	// shrinks, mirroring how hardware sizes a FIFO for its worst flood.
	overflowMu  l2atomic.Mutex
	overflow    []ovfCell[T]
	overflowN   l2atomic.Counter
	overflowCap int64
	// hwmLocal shadows overflowHWM for the ratchet compare: it is only
	// touched under overflowMu, so the common already-at-peak case costs
	// a register compare instead of an atomic max.
	hwmLocal int64

	// overflowed counts enqueues that missed the fast path; overflowHWM
	// is the high-water mark of parked overflow entries.
	overflowed  l2atomic.Counter
	overflowHWM l2atomic.Counter
}

// NewQueue returns a queue whose lock-free array holds capacity elements.
// capacity is rounded up to a power of two and is at least 2.
func NewQueue[T any](capacity int) *Queue[T] {
	c := int64(2)
	for c < int64(capacity) {
		c <<= 1
	}
	return &Queue[T]{
		cells:       make([]cell[T], c),
		mask:        c - 1,
		overflowCap: DefaultOverflowCap,
	}
}

// Cap returns the capacity of the lock-free array.
func (q *Queue[T]) Cap() int { return len(q.cells) }

// SetOverflowCap bounds the overflow map at n parked entries; n <= 0
// removes the bound. The cap is soft: it is checked before a producer
// claims its ticket (a claimed ticket must always publish, or the
// consumer would stall forever on the hole), so a burst of concurrent
// producers can land a few entries past it. Call before communication
// starts.
func (q *Queue[T]) SetOverflowCap(n int) {
	if n <= 0 {
		q.overflowCap = int64(1) << 62
		return
	}
	q.overflowCap = int64(n)
}

// ovfPut parks ticket t in the overflow ring. Call with overflowMu held.
// Distinct live tickets can collide only while the ring is smaller than
// their span, and the span is bounded by array+overflowCap, so the grow
// loop terminates with ring ≈ the deepest backlog ever parked.
func (q *Queue[T]) ovfPut(t int64, v *T) {
	if q.overflow == nil {
		q.overflow = make([]ovfCell[T], 64)
	}
	for {
		c := &q.overflow[t&int64(len(q.overflow)-1)]
		if c.tick == 0 {
			c.tick = t + 1
			c.val = *v
			return
		}
		q.growOvf()
	}
}

// growOvf doubles the overflow ring and re-slots the parked entries.
// Call with overflowMu held.
func (q *Queue[T]) growOvf() {
	old := q.overflow
	q.overflow = make([]ovfCell[T], 2*len(old))
	for i := range old {
		if old[i].tick != 0 {
			q.overflow[(old[i].tick-1)&int64(len(q.overflow)-1)] = old[i]
		}
	}
}

// ovfTake removes ticket t from the overflow ring if parked there.
// Call with overflowMu held.
func (q *Queue[T]) ovfTake(t int64, out *T) bool {
	if len(q.overflow) == 0 {
		return false
	}
	c := &q.overflow[t&int64(len(q.overflow)-1)]
	if c.tick != t+1 {
		return false
	}
	*out = c.val
	var zero T
	c.val = zero // release references for GC / the buffer pool
	c.tick = 0
	return true
}

// Enqueue appends v to the queue: the bounded-increment slot allocation,
// with spill to the mutex-protected overflow queue when the array is
// full. Returns ErrBackpressure — before claiming a ticket — when the
// overflow queue has reached its cap. Safe for concurrent use by any
// number of producers.
func (q *Queue[T]) Enqueue(v T) error { return q.EnqueueRef(&v) }

// noteParked accounts one newly parked overflow entry. Call with
// overflowMu held.
func (q *Queue[T]) noteParked() {
	q.overflowed.LoadIncrement()
	if live := q.overflowN.LoadIncrement() + 1; live > q.hwmLocal {
		q.hwmLocal = live
		q.overflowHWM.Store(live)
	}
}

// EnqueueRef is Enqueue for large element types: the element is copied
// into its cell (or the overflow map) straight from *v, so the value is
// not passed a second time through the call frame. The queue owns a copy
// after return; the caller may reuse *v. Same backpressure and
// concurrency contract as Enqueue.
func (q *Queue[T]) EnqueueRef(v *T) error {
	if q.overflowN.Load() >= q.overflowCap &&
		q.tail.Load()-q.head.Load() >= int64(len(q.cells)) {
		return ErrBackpressure
	}
	t := q.tail.LoadIncrement()
	if t-q.head.Load() < int64(len(q.cells)) {
		// Fast path: the slot for this ticket is free (its previous
		// occupant, ticket t-cap, has already been consumed).
		c := &q.cells[t&q.mask]
		c.val = *v
		c.seq.Store(t + 1) // publish
		return nil
	}
	q.overflowMu.Lock()
	q.ovfPut(t, v)
	q.noteParked()
	q.overflowMu.Unlock()
	return nil
}

// EnqueueN appends vs in order with a single ticket-range claim, instead
// of one tail increment per element. All elements of the batch are
// contiguous in the queue's total order (no other producer interleaves
// inside the batch). Returns ErrBackpressure — refusing the whole batch
// before claiming tickets — when the overflow queue cannot absorb it.
// Safe for concurrent use by any number of producers; elements that miss
// the lock-free array spill to the overflow queue under one lock
// acquisition for the whole batch.
func (q *Queue[T]) EnqueueN(vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	if q.overflowN.Load()+int64(len(vs)) > q.overflowCap &&
		q.tail.Load()-q.head.Load() >= int64(len(q.cells)) {
		return ErrBackpressure
	}
	t0 := q.tail.LoadAdd(int64(len(vs)))
	var spill int64 = -1
	for i := range vs {
		t := t0 + int64(i)
		if t-q.head.Load() < int64(len(q.cells)) {
			c := &q.cells[t&q.mask]
			c.val = vs[i]
			c.seq.Store(t + 1) // publish
			continue
		}
		spill = int64(i)
		break
	}
	if spill < 0 {
		return nil
	}
	// The remainder of the batch overflows: one lock, one map pass. The
	// tickets are already claimed, so the spill always completes even if
	// it lands past the (soft) cap.
	q.overflowMu.Lock()
	for i := spill; i < int64(len(vs)); i++ {
		q.ovfPut(t0+i, &vs[i])
		q.noteParked()
	}
	q.overflowMu.Unlock()
	return nil
}

// DrainInto removes up to len(dst) ready elements in FIFO order with a
// single head update, instead of one head store per element — the batch
// reception drain of a context advance. The tail is read once, at the
// start: tickets claimed after that wait for the next call. It stops
// early at the first ticket that is not yet published. Returns the
// number of elements written to dst. Single consumer, like Dequeue.
func (q *Queue[T]) DrainInto(dst []T) int {
	n := 0
	h, t := q.head.Load(), q.tail.Load()
	var zero T
	for n < len(dst) && h < t {
		c := &q.cells[h&q.mask]
		if c.seq.Load() == h+1 {
			dst[n] = c.val
			c.val = zero // release references for GC / the buffer pool
			h++
			n++
			continue
		}
		// The head ticket is not in the array; drain any contiguous run
		// that sits in overflow under one lock acquisition.
		if q.overflowN.Load() > 0 {
			q.overflowMu.Lock()
			took := 0
			for n < len(dst) {
				if !q.ovfTake(h, &dst[n]) {
					break
				}
				h++
				n++
				took++
			}
			if took > 0 {
				// One counter update for the run, not one per element.
				q.overflowN.StoreAdd(int64(-took))
			}
			q.overflowMu.Unlock()
			if took > 0 {
				continue
			}
		}
		break
	}
	if n > 0 {
		q.head.Store(h)
	}
	return n
}

// Dequeue removes and returns the oldest element. ok is false when no
// element is ready — either the queue is empty or the producer owning the
// head ticket has not finished publishing; callers retry on their next
// progress pass. Only one goroutine may call Dequeue at a time.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	h := q.head.Load()
	if h >= q.tail.Load() {
		return v, false
	}
	c := &q.cells[h&q.mask]
	if c.seq.Load() == h+1 {
		v = c.val
		var zero T
		c.val = zero // release references for GC
		q.head.Store(h + 1)
		return v, true
	}
	// The head ticket is not in the array; it may be in overflow.
	if q.overflowN.Load() > 0 {
		q.overflowMu.Lock()
		ok = q.ovfTake(h, &v)
		if ok {
			q.overflowN.LoadDecrement()
		}
		q.overflowMu.Unlock()
		if ok {
			q.head.Store(h + 1)
			return v, true
		}
	}
	return v, false
}

// Len reports the number of elements enqueued but not yet dequeued,
// including elements whose producers are still publishing.
func (q *Queue[T]) Len() int {
	n := q.tail.Load() - q.head.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Empty reports whether the queue holds no elements (ready or in flight).
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Enqueued reports how many elements were ever enqueued: the tail
// ticket, so it includes elements whose producers are still publishing.
// A refused enqueue claims no ticket and is not counted.
func (q *Queue[T]) Enqueued() int64 { return q.tail.Load() }

// Overflowed reports how many enqueues took the mutex-protected overflow
// path since the queue was created.
func (q *Queue[T]) Overflowed() int64 { return q.overflowed.Load() }

// OverflowLen reports how many entries are currently parked in the
// overflow queue.
func (q *Queue[T]) OverflowLen() int64 { return q.overflowN.Load() }

// OverflowCap reports the overflow bound SetOverflowCap configured.
func (q *Queue[T]) OverflowCap() int64 { return q.overflowCap }

// OverflowHWM reports the high-water mark of parked overflow entries.
func (q *Queue[T]) OverflowHWM() int64 { return q.overflowHWM.Load() }
