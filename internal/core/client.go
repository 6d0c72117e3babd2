// Package core implements PAMI — the Parallel Active Messaging Interface
// (paper §III) — on top of the simulated BG/Q substrates: the Message Unit
// fabric, the shared-memory device, L2 atomics, the wakeup unit, CNK
// commthreads, and the collective network.
//
// The object model follows the paper exactly:
//
//	Client   — an independent network instance owning all communication
//	           resources; one per programming-model runtime, several may
//	           coexist in a process (MPI next to UPC next to Charm++).
//	Context  — a unit of thread parallelism: an independent communication
//	           channel with exclusive MU FIFOs, its own shared-memory
//	           queue, its own work queue, advanced by one thread at a time.
//	Endpoint — a communication address: not a process but a (task, context)
//	           pair, the MPI-3 endpoints idea.
//
// Initiating communication either posts a work function to the context's
// lock-free work queue (PAMI_Context_post — executed later by whichever
// thread advances the context, typically a commthread), or calls Send /
// SendImmediate directly while holding the context lock. Progress happens
// in Advance, which drains the work queue, the MU reception FIFO, and the
// shared-memory queue, dispatching active messages to registered handlers.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/cnk"
	"pamigo/internal/lockless"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/telemetry"
)

// Endpoint addresses a context within a task — the PAMI communication
// address (paper §III.B: "Addressing is not based on processes or tasks
// but rather on Endpoints within the process").
type Endpoint = mu.TaskAddr

// Client is an independent network instance bound to one process.
type Client struct {
	name string
	mach *machine.Machine
	proc *cnk.Process
	tele *telemetry.Registry

	mu       sync.Mutex
	contexts []*Context
	cts      []*cnk.CommThread

	commThreaded atomic.Bool // len(cts) > 0, readable without mu

	// EagerThreshold is the message size (bytes) at or below which Send
	// uses the eager protocol; larger messages use rendezvous, and so
	// does a smaller one to a destination past half its unexpected-message
	// budget (see flowcontrol.go). Mutable before communication starts.
	EagerThreshold int

	// UnexpectedBudget bounds how deep a destination's inbound queue may
	// grow, in messages, before this client's senders stop committing
	// eager payloads to it: Send falls back to rendezvous, SendImmediate
	// fails with ErrThrottled. <= 0 disables the budget. Mutable before
	// communication starts.
	UnexpectedBudget int
}

// DefaultEagerThreshold is the eager/rendezvous crossover, in bytes.
const DefaultEagerThreshold = 2048

// NewClient creates a PAMI client for the given process.
func NewClient(m *machine.Machine, proc *cnk.Process, name string) (*Client, error) {
	if m == nil || proc == nil {
		return nil, fmt.Errorf("core: nil machine or process")
	}
	return &Client{
		name:             name,
		mach:             m,
		proc:             proc,
		tele:             m.Telemetry().Group("core"),
		EagerThreshold:   DefaultEagerThreshold,
		UnexpectedBudget: DefaultUnexpectedBudget,
	}, nil
}

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Machine returns the machine the client runs on.
func (c *Client) Machine() *machine.Machine { return c.mach }

// Process returns the process the client is bound to.
func (c *Client) Process() *cnk.Process { return c.proc }

// Task returns the client's global task rank.
func (c *Client) Task() int { return c.proc.TaskRank() }

// MaxContexts returns how many contexts a process may hold across all its
// clients: one per application core share, up to 16 with one process per
// node (paper §I: "with one MPI process per node we can have up to sixteen
// contexts").
func (c *Client) MaxContexts() int {
	n := cnk.AppCores / c.proc.Node().PPN()
	if n < 1 {
		n = 1
	}
	return n
}

// CreateContexts creates n communication contexts. Context ordinals are
// allocated process-wide (clients coexisting on a process share the
// endpoint space), and context ordinal i is bound to the process's i-th
// hardware thread: its work queue and reception FIFOs signal that hardware
// thread's wakeup region, so a commthread on the same hardware thread
// sleeps on exactly the right address.
func (c *Client) CreateContexts(n int) ([]*Context, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one context")
	}
	node := c.proc.Node()
	fabric := c.mach.Fabric()
	created := make([]*Context, 0, n)
	for i := 0; i < n; i++ {
		ord, err := c.proc.AllocContextSlot()
		if err != nil {
			return nil, err
		}
		if ord >= c.MaxContexts() {
			return nil, fmt.Errorf("core: context ordinal %d exceeds the per-process limit of %d at PPN=%d",
				ord, c.MaxContexts(), c.proc.Node().PPN())
		}
		hwThread := c.proc.HWThreads()[ord]
		region := node.Wakeup.Region(hwThread)
		res, err := fabric.Node(node.Rank).AllocContext(injFIFOsPerContext, region)
		if err != nil {
			return nil, err
		}
		addr := Endpoint{Task: c.proc.TaskRank(), Ctx: ord}
		shmDev, err := c.mach.Shmem(node.Rank).Register(addr, shmemSlots, region)
		if err != nil {
			return nil, err
		}
		ctx := &Context{
			client:    c,
			addr:      addr,
			hwThread:  hwThread,
			region:    region,
			work:      lockless.NewQueue[func()](workQueueSlots),
			muRes:     res,
			shmDev:    shmDev,
			dispatch:  make(map[uint16]DispatchFn),
			reasm:     make(map[reasmKey]*reasmState),
			pending:   make(map[uint64]*pendingSend),
			deferred:  make(map[Endpoint][]SendParams),
			inbox:     make(map[inboxKey][]byte),
			workBatch: make([]func(), advanceBatch),
			pktBatch:  make([]mu.Packet, advanceBatch),
			stats:     newCtxStats(c.tele.Group(fmt.Sprintf("task%d", addr.Task)).Group(fmt.Sprintf("ctx%d", ord))),
		}
		// Idle progress parks are legitimately indefinite: pinned
		// observe-only so an armed sentinel never escalates them.
		idle := c.mach.Sentinel().Site("core.ctx.idle")
		idle.SetDeadline(-1)
		idle.Attach(&ctx.idlePark, nil)
		c.mach.Sentinel().Site("core.deferred.send").Attach(&ctx.deferredPark, ctx.Abort)
		fabric.RegisterContext(addr, res.Rec)
		c.contexts = append(c.contexts, ctx)
		created = append(created, ctx)
	}
	return created, nil
}

// Contexts returns the client's contexts in creation order.
func (c *Client) Contexts() []*Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Context(nil), c.contexts...)
}

// Context returns context ordinal i.
func (c *Client) Context(i int) *Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.contexts[i]
}

// EnableCommThreads starts one commthread per context (paper §III.C).
// Each commthread runs on the hardware thread its context is bound to
// and, while it runs, waits in the context's progress loop on its shared
// path: it advances the context under the context lock and sleeps on the
// wakeup unit when the context is drained.
func (c *Client) EnableCommThreads() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cts) > 0 {
		return
	}
	node := c.proc.Node()
	for _, ctx := range c.contexts {
		ct := node.StartCommThread(ctx.hwThread, func(running func() bool) {
			ctx.advanceUntil(func() bool { return !running() }, &ctx.idlePark, true)
		})
		c.cts = append(c.cts, ct)
	}
	c.commThreaded.Store(len(c.cts) > 0)
}

// CommThreadsEnabled reports whether commthreads are running. It is read
// several times per MPI call, so it answers from an atomic, not c.mu.
func (c *Client) CommThreadsEnabled() bool { return c.commThreaded.Load() }

// DisableCommThreads stops the client's commthreads.
func (c *Client) DisableCommThreads() {
	c.mu.Lock()
	cts := c.cts
	c.cts = nil
	c.commThreaded.Store(false)
	c.mu.Unlock()
	for _, ct := range cts {
		ct.Stop()
	}
}

// Destroy stops commthreads and deregisters the client's endpoints.
func (c *Client) Destroy() {
	c.DisableCommThreads()
	c.mu.Lock()
	defer c.mu.Unlock()
	node := c.proc.Node()
	for _, ctx := range c.contexts {
		c.mach.Shmem(node.Rank).Deregister(ctx.addr)
		ctx.idlePark.Detach()
		ctx.deferredPark.Detach()
	}
	c.contexts = nil
	c.proc.FreeContextSlots()
}

// Tunables for context resource sizing.
const (
	injFIFOsPerContext = 4
	shmemSlots         = 256
	workQueueSlots     = 256
)
