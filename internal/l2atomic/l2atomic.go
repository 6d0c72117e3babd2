// Package l2atomic models the Blue Gene/Q L2-cache atomic unit.
//
// On BG/Q every 8-byte-aligned word of DDR memory can be accessed through
// special alias addresses that make the L2 cache perform an atomic
// read-modify-write on the word: load-increment, load-decrement, load-clear,
// store-add, store-max and, most importantly for messaging, the *bounded*
// load-increment that underpins the PAMI lockless queues (paper §II.A,
// §III.B). The unit is scalable: each additional concurrent request costs
// only a few cycles, which is why PAMI prefers it over conventional mutexes
// for every hot-path counter and queue.
//
// This package reproduces those primitives on top of sync/atomic with the
// same semantics. A Counter is the software stand-in for one such 8-byte
// word; Mutex and Barrier are the two higher-level constructs the paper
// builds directly from L2 atomics (the "low overhead L2 atomic mutex" that
// serializes the MPI receive queue, and the intra-node local barrier).
// The runtime's MPI_Barrier at PPN>1 runs on the node team in core, not
// on Barrier, so that the stall sentinel can poison it; Barrier is the
// paper's primitive alone, measured by the benchmark.
package l2atomic

import (
	"runtime"
	"sync/atomic"
)

// Counter is one 8-byte word accessible through the L2 atomic unit.
// The zero value is a counter with value 0, ready to use.
type Counter struct {
	v atomic.Int64
}

// Load returns the current value of the word.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store overwrites the word.
func (c *Counter) Store(v int64) { c.v.Store(v) }

// LoadIncrement atomically increments the word and returns the value it
// held *before* the increment (the BG/Q "load increment" opcode).
func (c *Counter) LoadIncrement() int64 { return c.v.Add(1) - 1 }

// LoadDecrement atomically decrements the word and returns the value it
// held before the decrement.
func (c *Counter) LoadDecrement() int64 { return c.v.Add(-1) + 1 }

// LoadAdd atomically adds delta to the word and returns the value it
// held before the addition — the batched form of LoadIncrement. The real
// L2 unit only increments by one, but a delta-sized claim is exactly a
// run of load-increments issued back to back by one thread; the lockless
// queues use it to allocate a ticket *range* in a single operation.
func (c *Counter) LoadAdd(delta int64) int64 { return c.v.Add(delta) - delta }

// LoadClear atomically sets the word to zero and returns its prior value.
func (c *Counter) LoadClear() int64 { return c.v.Swap(0) }

// StoreAdd atomically adds delta to the word without returning a result
// (the store-variant opcodes complete without a round trip to the core).
func (c *Counter) StoreAdd(delta int64) { c.v.Add(delta) }

// StoreMax atomically stores max(current, v) into the word.
func (c *Counter) StoreMax(v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CompareAndSwap performs a conventional CAS on the word. The real L2
// atomic unit does not implement CAS — BG/Q software avoids it — but the
// model package and tests use it to build reference implementations.
func (c *Counter) CompareAndSwap(old, new int64) bool {
	return c.v.CompareAndSwap(old, new)
}

// LoadIncrementBounded atomically increments the word only if its current
// value is strictly below bound. It returns the prior value and whether the
// increment happened. This is the BG/Q "bounded increment" operation the
// paper singles out (§III.B): it lets producers atomically allocate a slot
// in a fixed-size array and discover, in the same atomic operation, that the
// array is full.
func (c *Counter) LoadIncrementBounded(bound int64) (old int64, ok bool) {
	for {
		cur := c.v.Load()
		if cur >= bound {
			return cur, false
		}
		if c.v.CompareAndSwap(cur, cur+1) {
			return cur, true
		}
	}
}

// Mutex is the "low overhead L2 atomic mutex" (paper §IV.A): a ticket lock
// built from two L2 counters. Tickets make it fair under the heavy
// multi-producer contention of the MPI receive queue. The zero value is an
// unlocked mutex.
type Mutex struct {
	next    Counter
	serving Counter
}

// Lock acquires the mutex, spinning with progressively friendlier backoff.
func (m *Mutex) Lock() {
	t := m.next.LoadIncrement()
	for spins := 0; m.serving.Load() != t; spins++ {
		if spins < 16 {
			continue // brief busy wait: L2 atomics resolve in tens of cycles
		}
		runtime.Gosched()
	}
}

// TryLock acquires the mutex only if it is free, returning whether it did.
func (m *Mutex) TryLock() bool {
	cur := m.serving.Load()
	// Take the next ticket only if it would be served immediately, i.e. the
	// ticket counter still equals the serving counter. The bounded increment
	// refuses the ticket when another thread already holds or awaits one.
	if old, ok := m.next.LoadIncrementBounded(cur + 1); ok && old == cur {
		return true
	}
	return false
}

// Unlock releases the mutex. It must only be called by the holder.
func (m *Mutex) Unlock() {
	m.serving.StoreAdd(1)
}

// Barrier is an intra-node sense-reversing barrier built on a single L2
// word, as used by the PAMI local barrier at PPN>1 (paper §IV.B: "the
// local barrier is implemented via the scalable L2 atomic increment
// operation"). The word packs the generation above the arrival count,
// so the last arriver resets the count and releases the generation in
// one CAS.
type Barrier struct {
	parties int64
	state   Counter // packed: generation<<32 | count
}

const (
	barrierGenShift  = 32
	barrierCountMask = int64(1)<<barrierGenShift - 1
)

// NewBarrier returns a barrier for the given number of participants.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("l2atomic: barrier needs at least one party")
	}
	if int64(parties) > barrierCountMask {
		panic("l2atomic: barrier party count does not fit the packed state word")
	}
	return &Barrier{parties: int64(parties)}
}

// Parties returns the number of participants the barrier waits for.
func (b *Barrier) Parties() int { return int(b.parties) }

// Await blocks until all parties have called Await for the current
// generation. It is safe to reuse the barrier for successive
// generations. The error result is always nil: nothing cuts a Barrier
// wait loose, because the runtime's node barrier is the node team,
// whose poison the stall sentinel fires; the result stays for callers
// that check it.
func (b *Barrier) Await() error {
	for {
		s := b.state.Load()
		gen := s >> barrierGenShift
		if s&barrierCountMask == b.parties-1 {
			if b.state.CompareAndSwap(s, (gen+1)<<barrierGenShift) {
				return nil
			}
			continue
		}
		if !b.state.CompareAndSwap(s, s+1) {
			continue
		}
		for spins := 0; b.state.Load()>>barrierGenShift == gen; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
		}
		return nil
	}
}
