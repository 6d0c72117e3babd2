package mu

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// mrSlots is the number of direct-mapped slots in one task's memregion
// table. A rendezvous publication ID's low bits count up per context, so
// the publications in flight from one context walk the slots in turn and
// a slot is free again long before its ID's successor 64 sends later
// needs it. Must stay a power of two for the mask in mrSlotOf.
const mrSlots = 64

// mrSlotOf maps a memregion ID onto its slot. The fold brings a
// publication ID's context ordinal (bits 48 and up) down onto the low
// bits, so two contexts of one task counting in step do not share a slot
// sequence; caller-chosen IDs that differ by a multiple of mrSlots below
// bit 48 share a slot.
func mrSlotOf(id uint64) int { return int((id ^ id>>48) & (mrSlots - 1)) }

// mrSlot is one registration: a sequence word around the atomic id, base
// and length, one slot per cache line so a peer reading one slot never
// shares a line with the owner rewriting the next.
//
// Invariants (DESIGN §7):
//   - Only the owning task writes a slot, and only under its table's mu:
//     seq goes odd, id, base and size are stored, seq goes even again.
//   - A reader loads seq, then id, base and size, then seq again; the read
//     stands only when both loads of seq are the same even value. An odd
//     or moved seq means a rewrite overlapped, and the reader reads again
//     under mu, which the writer holds for the whole rewrite.
//   - size is len(buf)+1 while the slot is registered and 0 when it is
//     free. A free slot may be reused by the next registration of any ID
//     that maps onto it; a reader that validated an ID match therefore got
//     the buffer registered under exactly that ID, never a successor's.
type mrSlot struct {
	seq  atomic.Uint64
	id   atomic.Uint64
	base atomic.Pointer[byte]
	size atomic.Int64
	_    [32]byte
}

// load reads the slot without a lock. stable is false when a rewrite
// overlapped the read; buf and hit mean nothing then.
func (s *mrSlot) load(id uint64) (buf []byte, hit, stable bool) {
	q := s.seq.Load()
	sid, base, size := s.id.Load(), s.base.Load(), s.size.Load()
	if q&1 != 0 || s.seq.Load() != q {
		return nil, false, false
	}
	if size == 0 || sid != id {
		return nil, false, true
	}
	return unsafe.Slice(base, size-1), true, true
}

// store rewrites the slot; size is len+1 of a registration, 0 to free
// it. Caller holds the table's mu.
func (s *mrSlot) store(id uint64, base *byte, size int64) {
	s.seq.Add(1)
	s.id.Store(id)
	s.base.Store(base)
	s.size.Store(size)
	s.seq.Add(1)
}

// mrTable is one task's memregion table. Its writers are the owning
// task's threads, serialized by mu; every other task only reads it, and
// a read takes no lock unless it overlaps a rewrite of its own slot.
// Registration allocates nothing while the ID's slot is free; an ID whose
// slot is held by another registers in spill, a copy-on-write map behind
// an atomic pointer, so a spilled hit takes no lock either.
type mrTable struct {
	mu    sync.Mutex
	spill atomic.Pointer[map[uint64][]byte] // nil while nothing spilled
	_     [48]byte
	slots [mrSlots]mrSlot
}

// lookup resolves id, or reports a miss.
func (t *mrTable) lookup(id uint64) ([]byte, bool) {
	s := &t.slots[mrSlotOf(id)]
	buf, hit, stable := s.load(id)
	if !stable {
		t.mu.Lock()
		buf, hit, _ = s.load(id)
		t.mu.Unlock()
	}
	if hit {
		return buf, true
	}
	if m := t.spill.Load(); m != nil {
		buf, hit = (*m)[id]
	}
	return buf, hit
}

// register publishes buf under id. An id stays where it was first placed
// until it is deregistered, so a re-registration replaces the buffer in
// place and a reader of a continuously registered id always finds it.
func (t *mrTable) register(id uint64, buf []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slots[mrSlotOf(id)]
	if m := t.spill.Load(); m != nil {
		if _, ok := (*m)[id]; ok {
			t.setSpill(id, buf, true)
			return
		}
	}
	if s.size.Load() == 0 || s.id.Load() == id {
		s.store(id, unsafe.SliceData(buf), int64(len(buf))+1)
		return
	}
	t.setSpill(id, buf, true)
}

// deregister unpublishes id; an unknown id is a no-op.
func (t *mrTable) deregister(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slots[mrSlotOf(id)]
	if s.size.Load() != 0 && s.id.Load() == id {
		s.store(0, nil, 0)
		return
	}
	t.setSpill(id, nil, false)
}

// setSpill adds (live) or removes id in the spill map by swapping in a
// copy. Caller holds mu.
func (t *mrTable) setSpill(id uint64, buf []byte, live bool) {
	var old map[uint64][]byte
	if m := t.spill.Load(); m != nil {
		old = *m
	}
	if _, ok := old[id]; !ok && !live {
		return
	}
	next := make(map[uint64][]byte, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if live {
		next[id] = buf
	} else {
		delete(next, id)
	}
	if len(next) == 0 {
		t.spill.Store(nil)
		return
	}
	t.spill.Store(&next)
}

// memregions returns task's table; create makes it on first use (the one
// allocation of a task's registrations). Tables hang off a copy-on-write
// slice indexed by task, grown under taskMu, so finding one is an atomic
// load and an index.
func (f *Fabric) memregions(task int, create bool) *mrTable {
	if task < 0 {
		return nil
	}
	if ts := *f.mrTables.Load(); task < len(ts) && ts[task] != nil {
		return ts[task]
	}
	if !create {
		return nil
	}
	f.taskMu.Lock()
	defer f.taskMu.Unlock()
	old := *f.mrTables.Load()
	if task < len(old) && old[task] != nil {
		return old[task]
	}
	next := make([]*mrTable, max(len(old), task+1))
	copy(next, old)
	next[task] = new(mrTable)
	f.mrTables.Store(&next)
	return next[task]
}

// RegisterMemregion pins a buffer for RDMA under (task, id); puts and
// remote gets name remote memory this way, like PAMI memregions. The ID
// is the caller's; registering an ID again replaces its buffer. It takes
// no lock another task's traffic takes, and allocates nothing once the
// task has a table and the ID's slot is free.
func (f *Fabric) RegisterMemregion(task int, id uint64, buf []byte) {
	t := f.memregions(task, true)
	if t == nil {
		panic("mu: memregion registered for a negative task")
	}
	t.register(id, buf)
}

// DeregisterMemregion unpins a buffer.
func (f *Fabric) DeregisterMemregion(task int, id uint64) {
	if t := f.memregions(task, false); t != nil {
		t.deregister(id)
	}
}

// Memregion resolves the buffer registered under exactly (task, id). A hit
// takes no lock and stores nothing.
func (f *Fabric) Memregion(task int, id uint64) ([]byte, bool) {
	if t := f.memregions(task, false); t != nil {
		return t.lookup(id)
	}
	return nil, false
}
