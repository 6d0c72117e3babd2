package core

import "fmt"

// Memregion is a buffer registered for one-sided RDMA (PAMI memregions).
// The owner shares the region's ID out of band; remote endpoints then Put
// into it or Get from it without involving the owner's CPU.
type Memregion struct {
	ctx *Context
	id  uint64
	buf []byte
}

// RegisterMemory pins buf for one-sided access and returns its region.
// Its ID carries the context ordinal in bits 48 and up over a per-context
// count, so IDs are the same on every run of a program and disjoint from
// rendezvous publications (bit 62 set).
func (ctx *Context) RegisterMemory(buf []byte) *Memregion {
	id := uint64(ctx.addr.Ctx)<<48 | ctx.userMRs.Add(1)
	ctx.client.mach.Fabric().RegisterMemregion(ctx.addr.Task, id, buf)
	return &Memregion{ctx: ctx, id: id, buf: buf}
}

// ID returns the region's identifier, valid fabric-wide with the owner's
// task rank.
func (mr *Memregion) ID() uint64 { return mr.id }

// Len returns the registered buffer's size.
func (mr *Memregion) Len() int { return len(mr.buf) }

// Deregister unpins the region; outstanding one-sided operations that
// name it will fail.
func (mr *Memregion) Deregister() {
	mr.ctx.client.mach.Fabric().DeregisterMemregion(mr.ctx.addr.Task, mr.id)
}

// Put writes src into the remote memregion (dstTask, dstMR) at dstOff via
// RDMA. onDone runs when the local buffer is reusable; in this fabric
// model data movement is synchronous, so it runs before Put returns.
func (ctx *Context) Put(dstTask int, dstMR uint64, dstOff int, src []byte, onDone func()) error {
	if _, ok := ctx.client.mach.Fabric().TaskNode(dstTask); !ok {
		return fmt.Errorf("core: put to unknown task %d", dstTask)
	}
	inj := ctx.muRes.PinnedInj(dstTask)
	dst := Endpoint{Task: dstTask, Ctx: ctx.addr.Ctx}
	if err := ctx.client.mach.Fabric().InjectPut(inj, ctx.addr.Task, src, dst, dstMR, dstOff, nil); err != nil {
		return err
	}
	if onDone != nil {
		onDone()
	}
	return nil
}

// Get reads len(dst) bytes from the remote memregion (srcTask, srcMR) at
// srcOff into dst via RDMA remote get. onDone runs when dst is filled.
func (ctx *Context) Get(srcTask int, srcMR uint64, srcOff int, dst []byte, onDone func()) error {
	if _, ok := ctx.client.mach.Fabric().TaskNode(srcTask); !ok {
		return fmt.Errorf("core: get from unknown task %d", srcTask)
	}
	inj := ctx.muRes.PinnedInj(srcTask)
	if err := ctx.client.mach.Fabric().InjectRemoteGet(inj, ctx.addr, srcTask, srcMR, srcOff, dst, nil); err != nil {
		return err
	}
	if onDone != nil {
		onDone()
	}
	return nil
}
