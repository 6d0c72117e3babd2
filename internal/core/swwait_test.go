package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// softwareWorld builds the calling task's client, one context and the
// all-tasks geometry without Optimize, the way ARMCI, UPC and chare build
// theirs: every collective on it runs the software algorithms.
func softwareWorld(m *machine.Machine, p *cnk.Process) (*Client, *Geometry) {
	c, err := NewClient(m, p, "sw")
	if err != nil {
		panic(err)
	}
	ctxs, err := c.CreateContexts(1)
	if err != nil {
		panic(err)
	}
	tasks := make([]int, m.Tasks())
	for i := range tasks {
		tasks[i] = i
	}
	g, err := c.CreateGeometry(ctxs[0], 1, tasks)
	if err != nil {
		panic(err)
	}
	return c, g
}

// TestSoftwareCollectiveStallAborts: a software collective waits the
// classroute way, so the stall sentinel cuts it loose. One member sleeps,
// alive, far past the stall deadline; every other member's Barrier must
// fail with a KindDeadline abort in under a second, and its next
// Allreduce must fail at the entry gate with the same cause. The test
// bounds itself: a wait the sentinel cannot reach returns only when the
// sleeper arrives, two seconds in, and completes both collectives.
func TestSoftwareCollectiveStallAborts(t *testing.T) {
	const deadline, bound, sleeper = 100 * time.Millisecond, time.Second, 5
	m, err := machine.New(machine.Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 2, StallDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	type outcome struct {
		task       int
		barrier    any
		took, gate time.Duration
		next       error
	}
	results := make(chan outcome, m.Tasks())
	wake := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			_, g := softwareWorld(m, p)
			if p.TaskRank() == sleeper {
				<-wake
			}
			o := outcome{task: p.TaskRank()}
			start := time.Now()
			func() {
				defer func() { o.barrier = recover() }()
				g.Barrier()
			}()
			o.took = time.Since(start)
			start = time.Now()
			o.next = g.Allreduce(make([]byte, 8), make([]byte, 8), collnet.OpAdd, collnet.Int64)
			o.gate = time.Since(start)
			if p.TaskRank() != sleeper {
				results <- o
			}
		})
	}()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	for got := 0; got < m.Tasks()-1; {
		select {
		case o := <-results:
			got++
			err, _ := o.barrier.(error)
			var c *abort.Cause
			if !errors.As(err, &c) || c.Kind != abort.KindDeadline {
				t.Errorf("task %d: Barrier ended with %v after %v, want a KindDeadline abort", o.task, o.barrier, o.took)
				continue
			}
			if o.took > bound {
				t.Errorf("task %d: Barrier aborted after %v, want under %v", o.task, o.took, bound)
			}
			if !errors.Is(o.next, err) || o.gate >= deadline {
				t.Errorf("task %d: next Allreduce returned %v after %v, want the barrier's cause at once", o.task, o.next, o.gate)
			}
		case <-timer.C:
			if wake != nil {
				close(wake)
				wake = nil
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d members still in their collectives", m.Tasks()-1-got)
		}
	}
	if wake != nil {
		close(wake)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the sleeper never returned from its Barrier")
	}
}

// TestDrainParksAtIdle: a context with a rendezvous ack outstanding is
// quiet but not quiescent. Drain sleeps on its wakeup region as one
// waiter at core.ctx.idle, where a hang dump shows it, and returns once
// the receiver pulls and the ack arrives.
func TestDrainParksAtIdle(t *testing.T) {
	a, b := pair(t)
	var got capture
	b.RegisterDispatch(5, got.handler(false))
	if err := a.Send(SendParams{Dest: b.Endpoint(), Dispatch: 5, Data: make([]byte, 4096), Mode: ModeRendezvous}); err != nil {
		t.Fatal(err)
	}
	for b.Advance(16) > 0 {
	}
	d := got.delivery
	if d == nil {
		t.Fatal("the RTS was not delivered")
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		a.Drain()
	}()
	m := a.Client().Machine()
	for start := time.Now(); parked(m, "core.ctx.idle") != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("Drain with an ack outstanding: %d waiters at core.ctx.idle, want 1", parked(m, "core.ctx.idle"))
		}
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with the rendezvous ack outstanding")
	default:
	}
	if err := d.Receive(make([]byte, d.Size), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the receiver pulled")
	}
	if n := len(a.pending); n != 0 {
		t.Fatalf("%d rendezvous sends pending after Drain", n)
	}
}

// TestSoftwareBarriersUnderCommThreads: 2,000 software barriers on
// contexts that commthreads advance too. A commthread may file a
// member's fragment and touch the region just before the member reads
// its generation; a member whose poll skipped the claim because the lock
// was taken would then sleep on a filed fragment.
func TestSoftwareBarriersUnderCommThreads(t *testing.T) {
	const barriers = 2000
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 2)
	defer m.Shutdown()
	var wg sync.WaitGroup
	wg.Add(m.Tasks())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			c, g := softwareWorld(m, p)
			c.EnableCommThreads()
			wg.Done()
			wg.Wait()
			send, recv := make([]byte, 8), make([]byte, 8)
			for i := 0; i < barriers; i++ {
				g.Barrier()
			}
			binary.LittleEndian.PutUint64(send, 1)
			if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Int64); err != nil {
				t.Error(err)
			} else if n := binary.LittleEndian.Uint64(recv); n != uint64(m.Tasks()) {
				t.Errorf("allreduce after the barriers: %d, want %d", n, m.Tasks())
			}
			c.DisableCommThreads()
		})
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("a member is asleep on a fragment its commthread filed")
	}
}
