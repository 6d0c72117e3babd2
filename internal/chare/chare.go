// Package chare is a Charm++-style message-driven runtime on PAMI — the
// third programming model the paper names alongside MPI and UPC/ARMCI
// (§I, §III.A: "can also be used to efficiently enable ... the parallel
// programming language Charm++"). Like the ARMCI layer it attaches its
// own PAMI client, so all three runtimes can share a job.
//
// The model is a small core of Charm++: arrays of *chares* (migratable
// objects, here block-distributed and stationary), asynchronous entry-
// method invocation by active message, message-driven scheduling on the
// owner's context, and quiescence detection — the collective "no entry
// methods running and no messages in flight" test that message-driven
// programs terminate on.
package chare

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/machine"
)

// Runtime identifiers, disjoint from MPI's and ARMCI's.
const (
	worldGeomID   uint64 = 1 << 42
	dispatchEntry uint16 = 0x0020
)

// EntryFn is an entry method: it runs on the element's home rank with
// the element's state and the invocation payload, which is valid for
// the call only (copy to keep). Entry methods may send further
// invocations through the runtime.
type EntryFn func(rt *Runtime, state any, elem int, payload []byte)

// Runtime is one process's chare runtime.
type Runtime struct {
	mach   *machine.Machine
	proc   *cnk.Process
	client *core.Client
	ctx    *core.Context
	world  *core.Geometry

	arrays map[uint32]*Array

	sent      atomic.Int64
	processed atomic.Int64
}

// Array is a distributed array of chare elements.
type Array struct {
	rt      *Runtime
	id      uint32
	elems   int
	block   int
	state   map[int]any // locally hosted elements' state
	entries map[uint8]EntryFn

	// Migration support (migrate.go): the home's location directory
	// (with the version fence that keeps reordered updates out), the
	// hosted elements' migration counts, and the PUP serializer pair.
	loc    map[int]int
	locVer map[int]uint32 // home: version of the loc entry
	migVer map[int]uint32 // host: how many times the element has migrated
	pack   func(state any) []byte
	unpack func(data []byte) any
}

// Attach creates the chare runtime for a process. Collective.
func Attach(m *machine.Machine, p *cnk.Process) (*Runtime, error) {
	client, err := core.NewClient(m, p, "Charm")
	if err != nil {
		return nil, err
	}
	ctxs, err := client.CreateContexts(1)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		mach:   m,
		proc:   p,
		client: client,
		ctx:    ctxs[0],
		arrays: make(map[uint32]*Array),
	}
	if err := rt.ctx.RegisterDispatch(dispatchEntry, rt.onEntry); err != nil {
		return nil, err
	}
	if err := rt.ctx.RegisterDispatch(dispatchMigrate, func(_ *core.Context, d *core.Delivery) {
		rt.onMigrate(d.Meta, d.Data)
	}); err != nil {
		return nil, err
	}
	tasks := make([]int, m.Tasks())
	for i := range tasks {
		tasks[i] = i
	}
	rt.world, err = client.CreateGeometry(rt.ctx, worldGeomID, tasks)
	if err != nil {
		return nil, err
	}
	rt.world.Barrier()
	return rt, nil
}

// Rank returns the caller's rank.
func (rt *Runtime) Rank() int { return rt.proc.TaskRank() }

// Size returns the number of ranks.
func (rt *Runtime) Size() int { return rt.mach.Tasks() }

// Barrier synchronizes all ranks of the runtime.
func (rt *Runtime) Barrier() { rt.world.Barrier() }

// Detach tears the runtime down. Collective.
func (rt *Runtime) Detach() {
	rt.world.Barrier()
	rt.client.Destroy()
}

// NewArray collectively creates a chare array with the given global
// element count; init builds the state of each locally homed element.
// Elements are block-distributed: element e lives on rank e/block.
func (rt *Runtime) NewArray(id uint32, elems int, init func(elem int) any) (*Array, error) {
	if elems < 1 {
		return nil, fmt.Errorf("chare: array needs at least one element")
	}
	if _, dup := rt.arrays[id]; dup {
		return nil, fmt.Errorf("chare: array %d already exists", id)
	}
	a := &Array{
		rt:      rt,
		id:      id,
		elems:   elems,
		block:   (elems + rt.Size() - 1) / rt.Size(),
		state:   make(map[int]any),
		entries: make(map[uint8]EntryFn),
		loc:     make(map[int]int),
		locVer:  make(map[int]uint32),
		migVer:  make(map[int]uint32),
	}
	for e := 0; e < elems; e++ {
		if a.HomeOf(e) == rt.Rank() {
			a.state[e] = init(e)
			a.loc[e] = rt.Rank()
		}
	}
	rt.arrays[id] = a
	rt.world.Barrier() // array exists everywhere before invocations fly
	return a, nil
}

// HomeOf returns the rank owning an element.
func (a *Array) HomeOf(elem int) int { return elem / a.block }

// Elems returns the global element count.
func (a *Array) Elems() int { return a.elems }

// Local returns the locally homed element state (nil if not local).
func (a *Array) Local(elem int) any { return a.state[elem] }

// RegisterEntry installs an entry method under a method ID. Register all
// entries before sending; collective by convention.
func (a *Array) RegisterEntry(method uint8, fn EntryFn) error {
	if fn == nil {
		return fmt.Errorf("chare: nil entry method")
	}
	if _, dup := a.entries[method]; dup {
		return fmt.Errorf("chare: entry %d already registered", method)
	}
	a.entries[method] = fn
	return nil
}

// invocation wire format: array id, element, method.
const entryMetaLen = 4 + 8 + 1

// Send asynchronously invokes an entry method on an element, from any
// rank (including from inside an entry method — the message-driven
// chaining at the heart of the model).
func (a *Array) Send(elem int, method uint8, payload []byte) error {
	if elem < 0 || elem >= a.elems {
		return fmt.Errorf("chare: element %d out of range", elem)
	}
	if _, ok := a.entries[method]; !ok {
		return fmt.Errorf("chare: entry %d not registered", method)
	}
	// The invocation header lives in a stack array: every transport
	// copies Hdr.Meta into a pooled slab before SendImmediate returns, so
	// the per-send heap allocation the old make([]byte, ...) paid was
	// pure garbage-collector tax on the model's hottest operation.
	var meta [entryMetaLen]byte
	binary.LittleEndian.PutUint32(meta[0:], a.id)
	binary.LittleEndian.PutUint64(meta[4:], uint64(elem))
	meta[12] = method
	rt := a.rt
	rt.sent.Add(1)
	dst := core.Endpoint{Task: a.HomeOf(elem), Ctx: rt.ctx.Endpoint().Ctx}
	if entryMetaLen+len(payload) <= 512 {
		return rt.ctx.SendImmediate(dst, dispatchEntry, meta[:], payload)
	}
	// The non-immediate path can defer the send and retain Meta, so it
	// needs a heap copy.
	return rt.ctx.Send(core.SendParams{
		Dest: dst, Dispatch: dispatchEntry, Meta: append([]byte(nil), meta[:]...),
		Data: payload, Mode: core.ModeEager,
	})
}

// onEntry is the runtime's dispatch: decode the invocation and run the
// entry method on the element's state.
func (rt *Runtime) onEntry(ctx *core.Context, d *core.Delivery) {
	m := d.Meta
	if len(m) < entryMetaLen {
		panic("chare: malformed invocation")
	}
	id := binary.LittleEndian.Uint32(m[0:])
	elem := int(binary.LittleEndian.Uint64(m[4:]))
	method := m[12]
	a, ok := rt.arrays[id]
	if !ok {
		panic(fmt.Sprintf("chare: invocation for unknown array %d", id))
	}
	fn, ok := a.entries[method]
	if !ok {
		panic(fmt.Sprintf("chare: invocation of unregistered entry %d", method))
	}
	st, hosted := a.state[elem]
	if hosted {
		rt.processed.Add(1)
		fn(rt, st, elem, d.Data)
		return
	}
	// Not hosted here: forward. The home forwards to its recorded
	// location; any other rank (a stale location after a migration)
	// bounces the invocation back to the home, which retries once the
	// location update lands. Every hop is counted, so quiescence
	// detection stays exact.
	rt.processed.Add(1)
	target := a.HomeOf(elem)
	if target == rt.Rank() {
		target = a.loc[elem]
		if target == rt.Rank() {
			panic(fmt.Sprintf("chare: home of element %d lost its location", elem))
		}
	}
	rt.sent.Add(1)
	fwd := append([]byte(nil), d.Data...)
	if err := ctx.Send(sendParamsFor(rt.endpointOf(target), dispatchEntry, cloneMeta(d.Meta), fwd)); err != nil {
		panic("chare: forward failed: " + err.Error())
	}
}

// endpointOf addresses a peer runtime's context.
func (rt *Runtime) endpointOf(rank int) core.Endpoint {
	return core.Endpoint{Task: rank, Ctx: rt.ctx.Endpoint().Ctx}
}

func cloneMeta(m []byte) []byte { return append([]byte(nil), m...) }

// sendParamsFor builds the eager active-message parameters the runtime's
// control and forwarding paths use.
func sendParamsFor(dst core.Endpoint, dispatch uint16, meta, data []byte) core.SendParams {
	return core.SendParams{Dest: dst, Dispatch: dispatch, Meta: meta, Data: data, Mode: core.ModeEager}
}

// Process drives the scheduler for up to max messages and returns how
// many were processed (entry methods run inline).
func (rt *Runtime) Process(max int) int {
	rt.ctx.Lock()
	n := rt.ctx.Advance(max)
	rt.ctx.Unlock()
	return n
}

// Quiesce blocks until the whole runtime is quiescent: every sent
// invocation has been processed and no rank is still generating work.
// Collective. Implements the classic double-count scheme: repeat global
// (sent, processed) sums until two consecutive rounds agree and balance.
func (rt *Runtime) Quiesce() {
	var prevSent, prevProc int64 = -1, -2
	for {
		// Drain local work first.
		for rt.Process(64) > 0 {
		}
		counts := collnet.EncodeInt64s([]int64{rt.sent.Load(), rt.processed.Load()})
		out := make([]byte, len(counts))
		if err := rt.world.Allreduce(counts, out, collnet.OpAdd, collnet.Int64); err != nil {
			panic("chare: quiescence allreduce failed: " + err.Error())
		}
		vals := collnet.DecodeInt64s(out)
		sent, proc := vals[0], vals[1]
		if sent == proc && sent == prevSent && proc == prevProc {
			return
		}
		prevSent, prevProc = sent, proc
	}
}

// Stats returns this rank's cumulative sent and processed invocation
// counts.
func (rt *Runtime) Stats() (sent, processed int64) {
	return rt.sent.Load(), rt.processed.Load()
}
