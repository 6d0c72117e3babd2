// Package mpilib is the MPI layer over PAMI (paper §IV): the analogue of
// MPICH2 with the pamid device. It provides tag matching with posted and
// unexpected queues, blocking and nonblocking point-to-point operations
// with MPI ordering, communicators with split/dup, the hardware-accelerated
// collectives, and the MPIX classroute optimize/deoptimize extensions.
//
// Two library builds are modeled, matching the paper's evaluation:
//
//	Classic          — one global lock around every MPI call (the default
//	                   MPICH2 approach); lowest overhead when initialized
//	                   MPI_THREAD_SINGLE because the lock is then elided.
//	ThreadOptimized  — fine-grained: the receive queues are serialized by a
//	                   low-overhead L2-atomic mutex (wildcards make fully
//	                   parallel receive queues unprofitable, §IV.A), sends
//	                   hash (destination, communicator) onto a PAMI context
//	                   so traffic to different destinations proceeds in
//	                   parallel, and with commthreads enabled MPI_Isend
//	                   hands descriptor construction off to them.
//
// Requests complete through counters polled by the two-phase Waitall of
// §IV.A.
package mpilib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/abort"
	"pamigo/internal/cnk"
	"pamigo/internal/core"
	"pamigo/internal/l2atomic"
	"pamigo/internal/machine"
	"pamigo/internal/telemetry"
	"pamigo/internal/watchdog"
)

// ThreadMode is the MPI_Init_thread level.
type ThreadMode int

// Thread levels (MPI 2.2).
const (
	ThreadSingle ThreadMode = iota
	ThreadFunneled
	ThreadSerialized
	ThreadMultiple
)

// String names the thread mode.
func (m ThreadMode) String() string {
	switch m {
	case ThreadSingle:
		return "MPI_THREAD_SINGLE"
	case ThreadFunneled:
		return "MPI_THREAD_FUNNELED"
	case ThreadSerialized:
		return "MPI_THREAD_SERIALIZED"
	case ThreadMultiple:
		return "MPI_THREAD_MULTIPLE"
	}
	return fmt.Sprintf("ThreadMode(%d)", int(m))
}

// Library selects the MPI build.
type Library int

// The two builds evaluated in the paper (Table 2).
const (
	Classic Library = iota
	ThreadOptimized
)

// String names the library build.
func (l Library) String() string {
	if l == Classic {
		return "classic"
	}
	return "thread-optimized"
}

// Options configures Init.
type Options struct {
	// ThreadMode is the requested MPI thread level.
	ThreadMode ThreadMode
	// Library selects the classic or thread-optimized build.
	Library Library
	// Contexts is the number of PAMI contexts to create (0 = one, or the
	// per-process maximum when CommThreads is set).
	Contexts int
	// CommThreads enables communication threads. As in the paper,
	// MPI_THREAD_MULTIPLE enables them automatically; this flag is the
	// "environment variable" override for other modes.
	CommThreads bool
	// DisableCommThreads suppresses the automatic enablement.
	DisableCommThreads bool
	// EagerLimit overrides the eager/rendezvous crossover in bytes.
	EagerLimit int
}

// worldStats is the MPI layer's telemetry slot set: the receive-queue
// depths of §IV.A (whose high-water marks expose matching pressure) and
// the match-attempt/hit counters that measure queue-scan work.
type worldStats struct {
	posted        *telemetry.Gauge // posted-receive queue depth
	unexpected    *telemetry.Gauge // unexpected-message queue depth
	matchAttempts *telemetry.Counter
	matchHits     *telemetry.Counter
}

func newWorldStats(reg *telemetry.Registry) worldStats {
	return worldStats{
		posted:        reg.Gauge("posted_depth"),
		unexpected:    reg.Gauge("unexpected_depth"),
		matchAttempts: reg.Counter("match_attempts"),
		matchHits:     reg.Counter("match_hits"),
	}
}

// World is one process's MPI library instance.
type World struct {
	mach   *machine.Machine
	proc   *cnk.Process
	client *core.Client
	ctxs   []*core.Context
	opts   Options

	rank int
	size int

	globalMu sync.Mutex     // Classic build: the per-call global lock
	queueMu  l2atomic.Mutex // receive-queue mutex (paper §IV.A); guards the three below
	posted   postedQueue
	unex     unexpectedQueue
	unexFree *unexpectedMsg // recycled unexpected entries, linked by next
	tele     worldStats

	// reqPool is the thread-private request allocator of the
	// thread-optimized build ("We extended request allocators by creating
	// thread private pools to minimize locking overheads", §IV.A).
	// sync.Pool has exactly the per-thread caching semantics.
	reqPool sync.Pool

	commMu     sync.Mutex
	comms      map[uint64]*Comm
	nextCommID uint64
	world      *Comm

	// site is the sentinel site a stalled wait parks at (World.wait);
	// cause is the first stall abort of any of its waits (World.latch),
	// and every wait returns it from then on.
	site  *watchdog.Site
	cause atomic.Pointer[abort.Cause]

	finalized bool
}

// Init boots MPI for one process. Collective: every process of the
// machine must call it (it creates COMM_WORLD's geometry).
func Init(m *machine.Machine, p *cnk.Process, opts Options) (*World, error) {
	client, err := core.NewClient(m, p, "MPI")
	if err != nil {
		return nil, err
	}
	if opts.EagerLimit > 0 {
		client.EagerThreshold = opts.EagerLimit
	}
	nctx := opts.Contexts
	if nctx == 0 {
		nctx = 1
		if opts.CommThreads || (opts.ThreadMode == ThreadMultiple && !opts.DisableCommThreads) {
			nctx = client.MaxContexts()
		}
	}
	if max := client.MaxContexts(); nctx > max {
		nctx = max
	}
	ctxs, err := client.CreateContexts(nctx)
	if err != nil {
		return nil, err
	}
	w := &World{
		mach:   m,
		proc:   p,
		client: client,
		ctxs:   ctxs,
		opts:   opts,
		rank:   p.TaskRank(),
		size:   m.Tasks(),
		comms:  make(map[uint64]*Comm),
		// Communicator IDs grow deterministically and identically on every
		// process; 1 is COMM_WORLD.
		nextCommID: 2,
		site:       m.Sentinel().Site("mpilib.wait"),
	}
	w.tele = newWorldStats(m.Telemetry().Group("mpi").Group(fmt.Sprintf("rank%d", w.rank)))
	for _, ctx := range ctxs {
		ctx := ctx
		if err := ctx.RegisterDispatch(dispatchMPI, w.onMessage); err != nil {
			return nil, err
		}
	}
	geom, err := client.WorldGeometry(ctxs[0])
	if err != nil {
		return nil, err
	}
	w.world = newComm(w, worldCommID, geom, identityGroup(m.Tasks()))
	w.comms[worldCommID] = w.world
	// Paper §IV.A: "If MPI_THREAD_MULTIPLE is requested, communication
	// threads are automatically enabled to speedup message rate. There is
	// also an environment variable available..."
	if opts.CommThreads || (opts.ThreadMode == ThreadMultiple && !opts.DisableCommThreads) {
		client.EnableCommThreads()
	}
	return w, nil
}

const worldCommID uint64 = 1

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// Rank returns this process's COMM_WORLD rank.
func (w *World) Rank() int { return w.rank }

// Size returns the COMM_WORLD size.
func (w *World) Size() int { return w.size }

// CommWorld returns the predefined world communicator.
func (w *World) CommWorld() *Comm { return w.world }

// ThreadMode returns the granted thread level.
func (w *World) ThreadMode() ThreadMode { return w.opts.ThreadMode }

// Library returns the active build.
func (w *World) Library() Library { return w.opts.Library }

// CommThreadsEnabled reports whether commthreads drive progress.
func (w *World) CommThreadsEnabled() bool { return w.client.CommThreadsEnabled() }

// Client exposes the underlying PAMI client (for MPIX-style extensions
// and the benchmarks).
func (w *World) Client() *core.Client { return w.client }

// Finalize shuts the library down.
func (w *World) Finalize() {
	if w.finalized {
		return
	}
	w.finalized = true
	w.world.Barrier()
	w.client.DisableCommThreads()
	w.client.Destroy()
}

// enter/exit model the classic build's global lock: every MPI call takes
// it unless the library was initialized MPI_THREAD_SINGLE, in which case
// it is elided (paper Table 2: classic + THREAD_SINGLE is the fastest
// configuration because "the global locks are disabled").
func (w *World) enter() {
	if w.opts.Library == Classic && w.opts.ThreadMode != ThreadSingle {
		w.globalMu.Lock()
	}
}

func (w *World) exit() {
	if w.opts.Library == Classic && w.opts.ThreadMode != ThreadSingle {
		w.globalMu.Unlock()
	}
}

// contextForDest hashes (destination world rank, communicator) onto one of
// the process's contexts — the paper's scheme that gives concurrency
// across destinations while pinning each (peer, communicator) pair to one
// context pair so MPI ordering is inherited from PAMI ordering (§IV.A).
func (w *World) contextForDest(destWorld int, commID uint64) *core.Context {
	return w.ctxs[(uint64(destWorld)+commID)%uint64(len(w.ctxs))]
}

// contextOrdinalForSrc is the receiving half of the same hash: the sender
// addresses the destination context computed from its own rank.
func (w *World) contextOrdinalForSrc(srcWorld int, commID uint64) int {
	return int((uint64(srcWorld) + commID) % uint64(len(w.ctxs)))
}

// progress advances every context once, unless commthreads own progress,
// and reports how many items were processed. It skips a context another
// thread holds; the wait's idle yield lets that thread run.
func (w *World) progress() int {
	worked := 0
	if w.client.CommThreadsEnabled() {
		return 0
	}
	for _, ctx := range w.ctxs {
		if ctx.TryLock() {
			worked += ctx.Advance(64)
			ctx.Unlock()
		}
	}
	return worked
}
