package machine

import (
	"sync/atomic"
	"testing"

	"pamigo/internal/cnk"
	"pamigo/internal/torus"
)

func TestNewMachineLayout(t *testing.T) {
	m, err := New(Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 4 || m.Tasks() != 16 {
		t.Fatalf("nodes=%d tasks=%d", m.Nodes(), m.Tasks())
	}
	// Node-major rank order.
	for task := 0; task < m.Tasks(); task++ {
		p := m.Task(task)
		if p.TaskRank() != task {
			t.Fatalf("task %d has rank %d", task, p.TaskRank())
		}
		wantNode := torus.Rank(task / 4)
		if p.Node().Rank != wantNode {
			t.Fatalf("task %d on node %d, want %d", task, p.Node().Rank, wantNode)
		}
		if got, ok := m.Fabric().TaskNode(task); !ok || got != wantNode {
			t.Fatalf("fabric maps task %d to %d", task, got)
		}
	}
}

func TestNewMachineRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Dims: torus.Dims{0, 1, 1, 1, 1}, PPN: 1}); err == nil {
		t.Fatal("invalid dims accepted")
	}
	if _, err := New(Config{Dims: torus.Dims{2, 1, 1, 1, 1}, PPN: 3}); err == nil {
		t.Fatal("invalid PPN accepted")
	}
}

func TestSameNode(t *testing.T) {
	m, err := New(Config{Dims: torus.Dims{2, 1, 1, 1, 1}, PPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.SameNode(0, 1) {
		t.Fatal("tasks 0,1 should share node 0")
	}
	if m.SameNode(1, 2) {
		t.Fatal("tasks 1,2 should be on different nodes")
	}
}

func TestRunLaunchesEveryProcess(t *testing.T) {
	m, err := New(Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seen [8]atomic.Bool
	m.Run(func(p *cnk.Process) {
		if seen[p.TaskRank()].Swap(true) {
			t.Errorf("task %d launched twice", p.TaskRank())
		}
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("task %d never ran", i)
		}
	}
}

func TestSharedStateSingleton(t *testing.T) {
	m, err := New(Config{Dims: torus.Dims{1, 1, 1, 1, 1}, PPN: 4})
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int32
	mk := func() any { built.Add(1); return new(int) }
	var got [4]any
	m.Run(func(p *cnk.Process) {
		got[p.LocalID()] = m.SharedState(42, mk)
	})
	if built.Load() != 1 {
		t.Fatalf("shared state built %d times", built.Load())
	}
	for i := 1; i < 4; i++ {
		if got[i] != got[0] {
			t.Fatal("processes saw different shared state")
		}
	}
	m.DropSharedState(42)
	m.SharedState(42, mk)
	if built.Load() != 2 {
		t.Fatal("dropped state not rebuilt")
	}
}

func TestShutdownStopsCommThreads(t *testing.T) {
	m, err := New(Config{Dims: torus.Dims{2, 1, 1, 1, 1}, PPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Node(0).StartCommThread(0, func(func() bool) {})
	m.Shutdown() // must not hang
}
