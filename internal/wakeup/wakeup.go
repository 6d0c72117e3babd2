// Package wakeup models the Blue Gene/Q wakeup unit (paper §II.A, §III.C).
//
// The hardware unit watches programmable memory regions; a hardware thread
// executes the PPC wait instruction and is suspended — consuming no pipeline
// slots, no power — until a store lands in a watched region or a configured
// signal arrives. PAMI places its lockless work queues inside watched
// regions so that communication threads sleep instead of polling and are
// woken the moment an application thread posts work or the Message Unit
// delivers a packet.
//
// The software model keeps the exact usage contract:
//
//	gen := region.Gen()          // observe the region
//	if !workAvailable() {        // re-check under the observed generation
//	        region.Wait(gen)     // suspend until a store after Gen()
//	}
//
// Producers store into the region (enqueue) and then Touch it. Because Wait
// returns immediately when a Touch happened after the observed generation,
// the protocol has no lost-wakeup window — the same guarantee the hardware
// address-match logic provides.
package wakeup

import (
	"sync"
	"sync/atomic"
)

// Region is one watched memory region. The zero value is not usable;
// create regions with NewRegion or through a Unit.
//
// Touch is the data-plane hot path — every packet delivery and every
// posted work item touches a region — so it is allocation-free and, when
// no thread is suspended, lock-free: an atomic generation bump plus one
// atomic load of the waiter count. The slow path (a waiter actually
// parked) goes through a condition variable.
type Region struct {
	gen     atomic.Uint64 // bumped by every Touch; doubles as the touch count
	waiters atomic.Int32  // threads inside Wait's blocking section

	// signaled elides redundant broadcasts: a parked waiter needs exactly
	// one wakeup, but it can stay registered in waiters for a while after
	// the broadcast (it is runnable, not yet scheduled). Without the flag
	// every Touch in that window — thousands, under a flood — pays a
	// mutex acquisition and a broadcast for a waiter that is already
	// awake. Waiters clear the flag before parking.
	signaled atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond

	waits atomic.Uint64 // statistics: total suspensions that actually blocked
}

// NewRegion returns an empty watched region.
func NewRegion() *Region {
	r := &Region{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Gen returns the region's current generation. A caller that observes the
// generation, finds no work, and passes the observed value to Wait is
// guaranteed to be woken by any Touch that happens after the observation.
func (r *Region) Gen() uint64 {
	return r.gen.Load()
}

// Touch records a store into the region and wakes every waiter.
//
// The no-lost-wakeup argument is the classic store/load (Dekker) pattern:
// Touch bumps gen *before* loading waiters, and Wait registers itself in
// waiters *before* re-checking gen. Go atomics are sequentially
// consistent, so at least one side observes the other: either Touch sees
// the waiter (and broadcasts under the mutex, which the waiter holds
// between its re-check and parking), or the waiter sees the new
// generation and never parks.
func (r *Region) Touch() {
	r.gen.Add(1)
	if r.waiters.Load() != 0 && r.signaled.CompareAndSwap(false, true) {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// Wait suspends the caller until the region has been touched after the
// observed generation. If a Touch already happened, Wait returns
// immediately. This is the software analogue of the PPC wait instruction
// armed on the region.
func (r *Region) Wait(observed uint64) {
	if r.gen.Load() > observed {
		return
	}
	r.mu.Lock()
	r.waiters.Add(1)
	for {
		// Clear signaled *before* re-checking gen (same Dekker pattern as
		// waiters vs gen): either a concurrent Touch's gen bump is seen
		// here and we never park, or our clear is seen by its CAS and it
		// broadcasts.
		r.signaled.Store(false)
		if r.gen.Load() > observed {
			break
		}
		r.waits.Add(1)
		r.cond.Wait()
	}
	r.waiters.Add(-1)
	r.mu.Unlock()
}

// Stats reports how many touches the region has seen and how many waits
// actually suspended. The ratio is the polling the wakeup unit avoided.
func (r *Region) Stats() (touches, waits uint64) {
	return r.gen.Load(), r.waits.Load()
}

// Unit is the per-node wakeup unit: a fixed array of watched regions, one
// per hardware thread, mirroring how CNK hands each commthread its own
// wakeup address range.
type Unit struct {
	regions []*Region
}

// NewUnit returns a wakeup unit with n watched regions.
func NewUnit(n int) *Unit {
	u := &Unit{regions: make([]*Region, n)}
	for i := range u.regions {
		u.regions[i] = NewRegion()
	}
	return u
}

// Regions returns the number of watched regions in the unit.
func (u *Unit) Regions() int { return len(u.regions) }

// Region returns watched region i.
func (u *Unit) Region(i int) *Region { return u.regions[i] }

// TouchAll wakes every region in the unit; CNK uses the equivalent signal
// to tear commthreads down at job exit.
func (u *Unit) TouchAll() {
	for _, r := range u.regions {
		r.Touch()
	}
}
