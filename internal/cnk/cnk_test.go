package cnk

import (
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/wakeup"
)

func TestValidPPN(t *testing.T) {
	for _, ppn := range []int{1, 2, 4, 8, 16, 32, 64} {
		if !ValidPPN(ppn) {
			t.Errorf("ValidPPN(%d) = false", ppn)
		}
	}
	for _, ppn := range []int{0, 3, 5, 6, 7, 128, -1} {
		if ValidPPN(ppn) {
			t.Errorf("ValidPPN(%d) = true", ppn)
		}
	}
}

func TestNewNodeLayout(t *testing.T) {
	n, err := NewNode(3, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n.PPN() != 4 {
		t.Fatalf("PPN = %d", n.PPN())
	}
	if n.Wakeup.Regions() != HWThreads {
		t.Fatalf("wakeup regions = %d, want %d", n.Wakeup.Regions(), HWThreads)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		p := n.Proc(i)
		if p.LocalID() != i {
			t.Fatalf("proc %d LocalID = %d", i, p.LocalID())
		}
		if p.TaskRank() != 100+i {
			t.Fatalf("proc %d TaskRank = %d", i, p.TaskRank())
		}
		if got := len(p.HWThreads()); got != HWThreads/4 {
			t.Fatalf("proc %d owns %d hw threads", i, got)
		}
		for _, h := range p.HWThreads() {
			if seen[h] {
				t.Fatalf("hardware thread %d assigned twice", h)
			}
			seen[h] = true
		}
		if p.Node() != n {
			t.Fatal("Node back-pointer wrong")
		}
	}
	if len(seen) != HWThreads {
		t.Fatalf("only %d of %d hw threads assigned", len(seen), HWThreads)
	}
	if !n.Proc(0).IsNodeMaster() || n.Proc(1).IsNodeMaster() {
		t.Fatal("node master designation wrong")
	}
}

func TestNewNodeRejectsBadPPN(t *testing.T) {
	if _, err := NewNode(0, 3, 0); err == nil {
		t.Fatal("PPN=3 accepted")
	}
}

// serve is run the way the messaging software writes it: process
// pending work, and with none left sleep on the hardware thread's region
// until it is touched; return once the thread stops running. loops
// counts its looks.
func serve(r *wakeup.Region, pending, completed, loops *atomic.Int64) func(func() bool) {
	return func(running func() bool) {
		for {
			gen := r.Gen()
			if !running() {
				return
			}
			loops.Add(1)
			if pending.Load() > 0 {
				pending.Add(-1)
				completed.Add(1)
				continue
			}
			r.Wait(gen)
		}
	}
}

func TestCommThreadProcessesWork(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	r := n.Wakeup.Region(0)
	var pending, completed, loops atomic.Int64
	ct := n.StartCommThread(0, serve(r, &pending, &completed, &loops))
	defer ct.Stop()
	const items = 1000
	for i := 0; i < items; i++ {
		pending.Add(1)
		r.Touch()
	}
	deadline := time.After(10 * time.Second)
	for completed.Load() < items {
		select {
		case <-deadline:
			t.Fatalf("commthread completed %d of %d", completed.Load(), items)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestCommThreadSleepsWhenIdle: without touches the thread stays asleep,
// whether its run sleeps itself or returns at once.
func TestCommThreadSleepsWhenIdle(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	var pending, completed, loops, calls atomic.Int64
	ct := n.StartCommThread(1, serve(n.Wakeup.Region(1), &pending, &completed, &loops))
	defer ct.Stop()
	quick := n.StartCommThread(2, func(func() bool) { calls.Add(1) })
	defer quick.Stop()
	time.Sleep(50 * time.Millisecond)
	loops1, calls1 := loops.Load(), calls.Load()
	time.Sleep(100 * time.Millisecond)
	// An idle commthread must be suspended on the wakeup unit, not
	// spinning: the counts stay (nearly) flat without touches.
	if d := loops.Load() - loops1; d > 2 {
		t.Fatalf("idle commthread spun %d looks", d)
	}
	if d := calls.Load() - calls1; d > 2 {
		t.Fatalf("commthread whose run returns at once called it %d times while idle", d)
	}
}

func TestCommThreadSuspendResume(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	r := n.Wakeup.Region(2)
	var pending, completed, loops atomic.Int64
	ct := n.StartCommThread(2, serve(r, &pending, &completed, &loops))
	defer ct.Stop()
	ct.Suspend()
	// Let run notice the suspension, then verify no progress while yielded.
	time.Sleep(20 * time.Millisecond)
	before := loops.Load()
	for i := 0; i < 10; i++ {
		pending.Add(1)
		r.Touch() // wakeups must NOT run a suspended thread's work
	}
	time.Sleep(50 * time.Millisecond)
	if got := loops.Load(); got > before {
		t.Fatalf("suspended commthread made progress (%d -> %d)", before, got)
	}
	ct.Resume()
	deadline := time.After(5 * time.Second)
	for completed.Load() < 10 {
		select {
		case <-deadline:
			t.Fatalf("resumed commthread completed %d of the 10 items queued while suspended", completed.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestCommThreadStop(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	var pending, completed, loops atomic.Int64
	ct := n.StartCommThread(3, serve(n.Wakeup.Region(3), &pending, &completed, &loops))
	done := make(chan struct{})
	go func() { ct.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate the commthread")
	}
}

func TestStopCommThreads(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	var pending, completed, loops atomic.Int64
	for i := 0; i < 4; i++ {
		n.StartCommThread(i, serve(n.Wakeup.Region(i), &pending, &completed, &loops))
	}
	done := make(chan struct{})
	go func() { n.StopCommThreads(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StopCommThreads hung")
	}
}

func TestStartCommThreadRejectsBadThread(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range hardware thread accepted")
		}
	}()
	n.StartCommThread(HWThreads, func(func() bool) {})
}
