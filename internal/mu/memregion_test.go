package mu

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// pubID is a rendezvous publication ID as core builds them: bit 62, the
// context ordinal at bit 48, a per-context count below.
func pubID(ctx, n uint64) uint64 { return 1<<62 | ctx<<48 | n }

// taggedBuf is a buffer whose first 24 bytes name the (task, id) it is
// registered under and its own length; n varies the length between
// registrations.
func taggedBuf(task int, id uint64, n int) []byte {
	b := make([]byte, 24+n)
	binary.LittleEndian.PutUint64(b[0:], uint64(task))
	binary.LittleEndian.PutUint64(b[8:], id)
	binary.LittleEndian.PutUint64(b[16:], uint64(len(b)))
	return b
}

// tagOf reads a taggedBuf's (task, id); ok is false when buf is not the
// whole buffer the tag describes.
func tagOf(b []byte) (task int, id uint64, ok bool) {
	if len(b) < 24 || binary.LittleEndian.Uint64(b[16:]) != uint64(len(b)) {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint64(b[0:])), binary.LittleEndian.Uint64(b[8:]), true
}

// TestMemregionSlotReuse walks one slot through its cases: two caller IDs
// and a publication ID that all map onto it, an ID registered while its
// slot is taken, a stale ID after its slot went to another, and a
// re-registration in place.
func TestMemregionSlotReuse(t *testing.T) {
	f := newTestFabric(t)
	res := setupEndpoint(t, f, 1, 1, 0)
	setupEndpoint(t, f, 0, 0, 0)
	const id = 5
	ids := []uint64{id, id + mrSlots, pubID(0, id)}
	for _, x := range ids[1:] {
		if mrSlotOf(x) != mrSlotOf(id) {
			t.Fatalf("ID %#x maps to slot %d, not %d", x, mrSlotOf(x), mrSlotOf(id))
		}
	}
	get := func(mr uint64) error {
		return f.InjectRemoteGet(res.PinnedInj(0), TaskAddr{1, 0}, 0, mr, 0, make([]byte, 16), nil)
	}
	want := func(mr uint64) {
		t.Helper()
		buf, ok := f.Memregion(0, mr)
		if !ok {
			t.Fatalf("memregion %#x missing", mr)
		}
		if task, got, ok := tagOf(buf); !ok || task != 0 || got != mr {
			t.Fatalf("memregion %#x resolved to the %d-byte buffer of (%d, %#x)", mr, len(buf), task, got)
		}
	}
	gone := func(mr uint64) {
		t.Helper()
		if _, ok := f.Memregion(0, mr); ok {
			t.Fatalf("memregion %#x still resolves", mr)
		}
		if err := get(mr); !errors.Is(err, ErrNoSuchMemregion) {
			t.Fatalf("remote get from memregion %#x = %v, want ErrNoSuchMemregion", mr, err)
		}
	}

	f.RegisterMemregion(0, id, taggedBuf(0, id, 0))
	want(id)
	f.DeregisterMemregion(0, id)
	f.RegisterMemregion(0, id+mrSlots, taggedBuf(0, id+mrSlots, 8))
	gone(id) // the slot now holds another ID
	want(id + mrSlots)

	f.RegisterMemregion(0, ids[2], taggedBuf(0, ids[2], 16)) // slot taken: spills
	want(ids[2])
	want(id + mrSlots)
	f.DeregisterMemregion(0, id+mrSlots)
	gone(id + mrSlots)
	want(ids[2])
	f.RegisterMemregion(0, id, taggedBuf(0, id, 24)) // the freed slot
	want(id)
	f.RegisterMemregion(0, ids[2], taggedBuf(0, ids[2], 32)) // replaced where it lives
	if buf, _ := f.Memregion(0, ids[2]); len(buf) != 56 {
		t.Fatalf("re-registered memregion has %d bytes, want 56", len(buf))
	}
	if err := get(ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, x := range ids {
		f.DeregisterMemregion(0, x)
		gone(x)
	}
	if _, ok := f.Memregion(7, id); ok {
		t.Fatal("a task that never registered resolves a memregion")
	}
}

// TestMemregionConcurrentTables: every task registers, re-registers and
// deregisters its own IDs — caller IDs colliding on one slot and
// publication IDs of two contexts on it too — while every task looks up
// everyone's. A lookup returns the whole buffer registered under exactly
// that (task, id) or misses; it never returns the buffer of an ID that
// reused the slot, nor one buffer's base with another's length. The
// readers start once every owner has registered once and read until the
// last owner is done (and at least rounds times), so the run overlaps
// writers and readers however the goroutines are scheduled. Run it with -race: the slot reads are
// atomics around a sequence word.
func TestMemregionConcurrentTables(t *testing.T) {
	const tasks, rounds = 4, 20000
	f := newTestFabric(t)
	ids := []uint64{3, 3 + mrSlots, 3 + 2*mrSlots, pubID(0, 3), pubID(0, 3+mrSlots), 4, pubID(1, 5)}
	var hits, misses atomic.Int64
	var registered, owners, readers sync.WaitGroup
	var writing atomic.Bool
	writing.Store(true)
	registered.Add(tasks)
	owners.Add(tasks)
	readers.Add(tasks)
	for task := 0; task < tasks; task++ {
		go func() { // the owner: the only writer of its table
			defer owners.Done()
			for r := 0; r < rounds; r++ {
				id := ids[(r*5+task)%len(ids)]
				f.RegisterMemregion(task, id, taggedBuf(task, id, r%5*8))
				if r == 0 {
					registered.Done()
				}
				if r%4 != 0 {
					f.DeregisterMemregion(task, ids[(r*3+task+1)%len(ids)])
				}
			}
		}()
		go func() { // a peer: reads every table
			defer readers.Done()
			registered.Wait()
			for r := 0; r < rounds || writing.Load(); r++ {
				owner, id := (task+r)%tasks, ids[(r*3+task)%len(ids)]
				buf, ok := f.Memregion(owner, id)
				if !ok {
					misses.Add(1)
					continue
				}
				hits.Add(1)
				if gt, gid, whole := tagOf(buf); !whole || gt != owner || gid != id {
					t.Errorf("lookup (%d, %#x) returned %d bytes tagged (%d, %#x, whole %v)", owner, id, len(buf), gt, gid, whole)
					return
				}
			}
		}()
	}
	owners.Wait()
	writing.Store(false)
	readers.Wait()
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Errorf("%d hits and %d misses: the run exercised only one side", hits.Load(), misses.Load())
	}
}

// TestMemregionRegisterAllocs: once a task has its table, publishing and
// retiring an ID whose slot is free allocates nothing — the per-message
// cost a rendezvous send pays.
func TestMemregionRegisterAllocs(t *testing.T) {
	f := newTestFabric(t)
	buf := make([]byte, 64)
	f.RegisterMemregion(0, pubID(0, 1), buf)
	n := uint64(1)
	allocs := testing.AllocsPerRun(500, func() {
		n++
		f.RegisterMemregion(0, pubID(0, n), buf)
		if _, ok := f.Memregion(0, pubID(0, n)); !ok {
			t.Fatal("published ID does not resolve")
		}
		f.DeregisterMemregion(0, pubID(0, n-1))
	})
	if allocs != 0 {
		t.Fatalf("register + lookup + deregister: %v allocs, want 0", allocs)
	}
}
