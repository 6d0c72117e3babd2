package cnk

import (
	"sync/atomic"
	"testing"
	"time"
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

func TestCommThreadProcessesWork(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	var pending, completed atomic.Int64
	ct := n.StartCommThread(0, func() int {
		if pending.Load() > 0 {
			pending.Add(-1)
			completed.Add(1)
			return 1
		}
		return 0
	})
	defer ct.Stop()
	const items = 1000
	for i := 0; i < items; i++ {
		pending.Add(1)
		ct.Region().Touch()
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

func TestCommThreadSleepsWhenIdle(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	ct := n.StartCommThread(1, func() int { return 0 })
	defer ct.Stop()
	time.Sleep(50 * time.Millisecond)
	iters1, _ := ct.Stats()
	time.Sleep(100 * time.Millisecond)
	iters2, _ := ct.Stats()
	// An idle commthread must be suspended on the wakeup unit, not
	// spinning: iteration count stays (nearly) flat without touches.
	if iters2-iters1 > 2 {
		t.Fatalf("idle commthread spun %d iterations", iters2-iters1)
	}
}

func TestCommThreadSuspendResume(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	var work atomic.Int64
	ct := n.StartCommThread(2, func() int {
		work.Add(1)
		return 0
	})
	defer ct.Stop()
	ct.Suspend()
	// Drain any in-flight iteration, then verify no progress while yielded.
	time.Sleep(20 * time.Millisecond)
	before := work.Load()
	for i := 0; i < 10; i++ {
		ct.Region().Touch() // wakeups must NOT run a suspended thread's work
	}
	time.Sleep(50 * time.Millisecond)
	if got := work.Load(); got > before {
		t.Fatalf("suspended commthread made progress (%d -> %d)", before, got)
	}
	ct.Resume()
	ct.Region().Touch()
	time.Sleep(50 * time.Millisecond)
	if got := work.Load(); got == before {
		t.Fatal("resumed commthread made no progress")
	}
}

func TestCommThreadStop(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	ct := n.StartCommThread(3, func() int { return 0 })
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
	for i := 0; i < 4; i++ {
		n.StartCommThread(i, func() int { return 0 })
	}
	done := make(chan struct{})
	go func() { n.StopCommThreads(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StopCommThreads hung")
	}
}

func TestCommThreadStats(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	var fed atomic.Int64
	fed.Store(5)
	ct := n.StartCommThread(0, func() int {
		if fed.Load() > 0 {
			fed.Add(-1)
			return 1
		}
		return 0
	})
	defer ct.Stop()
	deadline := time.After(5 * time.Second)
	for {
		_, workDone := ct.Stats()
		if workDone == 5 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("workDone = %d, want 5", workDone)
		default:
			ct.Region().Touch()
			time.Sleep(time.Millisecond)
		}
	}
}

func TestStartCommThreadRejectsBadThread(t *testing.T) {
	n, _ := NewNode(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range hardware thread accepted")
		}
	}()
	n.StartCommThread(HWThreads, func() int { return 0 })
}
