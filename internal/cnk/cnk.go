// Package cnk models the slice of the Blue Gene/Q Compute Node Kernel that
// PAMI depends on (paper §II.D):
//
//   - the node/process/hardware-thread layout: 16 application cores with 4
//     hardware threads each (the 17th core runs CNK, the 18th is spare), and
//     1..64 processes per node, each owning an equal share of the hardware
//     threads;
//   - commthreads: one special pthread per hardware thread with extended
//     priorities, reserved for messaging software, which suspend on the
//     wakeup unit when no communication is in flight and voluntarily yield
//     whenever an application thread wants the hardware thread;
//   - the global virtual address space within a node, which lets any
//     process read its peers' memory in place. It is modelled by the
//     per-task memregion table (package mu): a node peer resolves a
//     registered buffer there and copies straight out of it.
package cnk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/torus"
	"pamigo/internal/wakeup"
)

// Hardware layout constants (paper §II.A).
const (
	// AppCores is the number of cores available to applications (one more
	// core runs CNK and one is spare).
	AppCores = 16
	// ThreadsPerCore is the number of hardware threads per A2 core.
	ThreadsPerCore = 4
	// HWThreads is the number of application hardware threads per node.
	HWThreads = AppCores * ThreadsPerCore
)

// ValidPPN reports whether a processes-per-node count is supported: a
// power of two between 1 and 64 so hardware threads divide evenly.
func ValidPPN(ppn int) bool {
	switch ppn {
	case 1, 2, 4, 8, 16, 32, 64:
		return true
	}
	return false
}

// Node is one BG/Q compute node as CNK presents it to PAMI.
type Node struct {
	// Rank is the node's position in the torus.
	Rank torus.Rank
	// Wakeup is the node's wakeup unit, one watched region per hardware
	// thread.
	Wakeup *wakeup.Unit

	procs []*Process

	ctMu        sync.Mutex
	commthreads []*CommThread
}

// NewNode builds a node with ppn processes. Global task ranks are assigned
// contiguously starting at rankBase (rank order is node-major, matching
// the default BG/Q mapping).
func NewNode(rank torus.Rank, ppn, rankBase int) (*Node, error) {
	if !ValidPPN(ppn) {
		return nil, fmt.Errorf("cnk: unsupported processes-per-node %d", ppn)
	}
	n := &Node{
		Rank:   rank,
		Wakeup: wakeup.NewUnit(HWThreads),
	}
	per := HWThreads / ppn
	for p := 0; p < ppn; p++ {
		threads := make([]int, per)
		for i := range threads {
			threads[i] = p*per + i
		}
		n.procs = append(n.procs, &Process{
			node:      n,
			localID:   p,
			taskRank:  rankBase + p,
			hwThreads: threads,
		})
	}
	return n, nil
}

// PPN returns the number of processes on the node.
func (n *Node) PPN() int { return len(n.procs) }

// Proc returns the local process with index i (0 <= i < PPN).
func (n *Node) Proc(i int) *Process { return n.procs[i] }

// Procs returns all processes on the node.
func (n *Node) Procs() []*Process { return n.procs }

// Process is one application process (an MPI task) on a node.
type Process struct {
	node      *Node
	localID   int
	taskRank  int
	hwThreads []int

	ctxSlots atomic.Int32
}

// AllocContextSlot hands out the process's next communication-context
// ordinal; each slot is bound to the hardware thread with the same index.
// PAMI clients on the same process share this space, which is what keeps
// endpoint addresses (task, context) unique across coexisting clients.
func (p *Process) AllocContextSlot() (int, error) {
	n := int(p.ctxSlots.Add(1)) - 1
	if n >= len(p.hwThreads) {
		p.ctxSlots.Add(-1)
		return 0, fmt.Errorf("cnk: process %d out of context slots (%d hardware threads)", p.taskRank, len(p.hwThreads))
	}
	return n, nil
}

// FreeContextSlots releases every context slot (client teardown).
func (p *Process) FreeContextSlots() { p.ctxSlots.Store(0) }

// Node returns the process's node.
func (p *Process) Node() *Node { return p.node }

// LocalID returns the process index on its node (0..PPN-1).
func (p *Process) LocalID() int { return p.localID }

// TaskRank returns the process's global task rank.
func (p *Process) TaskRank() int { return p.taskRank }

// HWThreads returns the hardware thread IDs the process owns.
func (p *Process) HWThreads() []int { return p.hwThreads }

// IsNodeMaster reports whether the process is the designated master of its
// node; shared-address collectives funnel network operations through it.
func (p *Process) IsNodeMaster() bool { return p.localID == 0 }

// CommThread state values.
const (
	ctRunning int32 = iota
	ctSuspended
	ctStopped
)

// CommThread is CNK's special messaging pthread bound to one hardware
// thread (paper §II.D). CNK keeps its binding and lifecycle; what it runs
// is the messaging software's: a function that makes progress, sleeps on
// the hardware thread's wakeup region when there is none to make, and
// returns once the thread stops running. Suspend/Resume model the
// priority dance: at lowest priority the commthread is "completely out of
// the way" of application threads on the same hardware thread.
type CommThread struct {
	region *wakeup.Region
	state  atomic.Int32
	done   chan struct{}
}

// StartCommThread launches a commthread on the given hardware thread. It
// calls run while it is running; run sleeps on the hardware thread's
// wakeup region, which Suspend, Resume and Stop touch, and returns once
// running reports false. If run returns early, the thread sleeps until
// the next touch before calling it again.
func (n *Node) StartCommThread(hwThread int, run func(running func() bool)) *CommThread {
	if hwThread < 0 || hwThread >= HWThreads {
		panic(fmt.Sprintf("cnk: hardware thread %d out of range", hwThread))
	}
	ct := &CommThread{
		region: n.Wakeup.Region(hwThread),
		done:   make(chan struct{}),
	}
	n.ctMu.Lock()
	n.commthreads = append(n.commthreads, ct)
	n.ctMu.Unlock()
	go ct.loop(run)
	return ct
}

func (ct *CommThread) loop(run func(running func() bool)) {
	defer close(ct.done)
	running := func() bool { return ct.state.Load() == ctRunning }
	for {
		gen := ct.region.Gen()
		switch ct.state.Load() {
		case ctStopped:
			return
		case ctRunning:
			run(running)
		}
		// Suspended (yielded to an application thread), or run came back:
		// sleep until Resume, Stop or the next touch.
		ct.region.Wait(gen)
	}
}

// Suspend lowers the commthread's priority so an application thread on the
// same hardware thread runs instead; progress stops until Resume.
func (ct *CommThread) Suspend() {
	ct.state.CompareAndSwap(ctRunning, ctSuspended)
	ct.region.Touch()
}

// Resume restores the commthread after a Suspend.
func (ct *CommThread) Resume() {
	ct.state.CompareAndSwap(ctSuspended, ctRunning)
	ct.region.Touch()
}

// Stop terminates the commthread and waits for it to exit.
func (ct *CommThread) Stop() {
	ct.state.Store(ctStopped)
	ct.region.Touch()
	<-ct.done
}

// StopCommThreads stops every commthread started on the node.
func (n *Node) StopCommThreads() {
	n.ctMu.Lock()
	cts := append([]*CommThread(nil), n.commthreads...)
	n.commthreads = nil
	n.ctMu.Unlock()
	for _, ct := range cts {
		ct.Stop()
	}
}
