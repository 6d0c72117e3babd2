package core

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/torus"
)

func TestPutGetRoundTrip(t *testing.T) {
	a, b := pair(t)
	window := make([]byte, 64)
	mr := b.RegisterMemory(window)
	// a puts into b's window.
	var putDone bool
	if err := a.Put(b.Endpoint().Task, mr.ID(), 8, []byte("one-sided"), func() { putDone = true }); err != nil {
		t.Fatal(err)
	}
	if !putDone {
		t.Fatal("put completion not signalled")
	}
	if string(window[8:17]) != "one-sided" {
		t.Fatalf("window = %q", window[8:17])
	}
	// a gets it back.
	out := make([]byte, 9)
	var getDone bool
	if err := a.Get(b.Endpoint().Task, mr.ID(), 8, out, func() { getDone = true }); err != nil {
		t.Fatal(err)
	}
	if !getDone || !bytes.Equal(out, []byte("one-sided")) {
		t.Fatalf("get = %q done=%v", out, getDone)
	}
}

func TestMemregionDeregister(t *testing.T) {
	a, b := pair(t)
	mr := b.RegisterMemory(make([]byte, 8))
	if mr.Len() != 8 {
		t.Fatalf("Len = %d", mr.Len())
	}
	mr.Deregister()
	if err := a.Put(b.Endpoint().Task, mr.ID(), 0, []byte{1}, nil); err == nil {
		t.Fatal("put to deregistered region succeeded")
	}
	if err := a.Get(b.Endpoint().Task, mr.ID(), 0, make([]byte, 1), nil); err == nil {
		t.Fatal("get from deregistered region succeeded")
	}
}

func TestPutGetUnknownTask(t *testing.T) {
	a, _ := pair(t)
	if err := a.Put(99, 1, 0, []byte{1}, nil); err == nil {
		t.Fatal("put to unknown task succeeded")
	}
	if err := a.Get(99, 1, 0, make([]byte, 1), nil); err == nil {
		t.Fatal("get from unknown task succeeded")
	}
}

func TestMemregionIDsUnique(t *testing.T) {
	a, _ := pair(t)
	m1 := a.RegisterMemory(make([]byte, 4))
	m2 := a.RegisterMemory(make([]byte, 4))
	if m1.ID() == m2.ID() {
		t.Fatal("memregion IDs collide")
	}
}

// RegisterMemory numbers regions per context: a fresh machine hands out
// the same IDs whatever ran before it in the process, and two contexts of
// one task never hand out the same one.
func TestMemregionIDsPerContext(t *testing.T) {
	ids := func() []uint64 {
		m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 1)
		c, err := NewClient(m, m.Task(0), "mr")
		if err != nil {
			t.Fatal(err)
		}
		ctxs, err := c.CreateContexts(2)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, ctx := range ctxs {
			for range 2 {
				out = append(out, ctx.RegisterMemory(make([]byte, 4)).ID())
			}
		}
		return out
	}
	first, second := ids(), ids()
	if !slices.Equal(first, second) {
		t.Fatalf("two fresh machines handed out %#x and %#x", first, second)
	}
	seen := map[uint64]bool{}
	for _, id := range first {
		if seen[id] || id&mrSendIDBase != 0 {
			t.Fatalf("IDs %#x: %#x repeats or sits in the publication space", first, id)
		}
		seen[id] = true
	}
}

func TestCommThreadDrivesProgress(t *testing.T) {
	// Paper §III.C / figure 2: the main thread posts work to the context
	// and computes; the commthread wakes, advances the context, executes
	// the work, and the main thread polls a completion flag.
	m := newTestMachine(t, torus.Dims{2, 1, 1, 1, 1}, 1)
	ca, a := newClientCtx(t, m, 0)
	_, b := newClientCtx(t, m, 1)

	var received atomic.Int64
	b.RegisterDispatch(1, func(ctx *Context, d *Delivery) {
		received.Add(1)
	})

	ca.EnableCommThreads()
	if !ca.CommThreadsEnabled() {
		t.Fatal("commthreads not enabled")
	}
	defer ca.DisableCommThreads()
	cb := b.Client()
	cb.EnableCommThreads()
	defer cb.DisableCommThreads()

	const posts = 200
	var completed atomic.Int64
	for i := 0; i < posts; i++ {
		a.Post(func() {
			// Executed by the commthread that owns context a.
			if err := a.SendImmediate(b.Endpoint(), 1, nil, []byte("w")); err != nil {
				t.Error(err)
			}
			completed.Add(1)
		})
	}
	deadline := time.After(10 * time.Second)
	for received.Load() < posts {
		select {
		case <-deadline:
			t.Fatalf("commthreads delivered %d of %d (posted work done: %d)",
				received.Load(), posts, completed.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestCommThreadsIdleWithoutTraffic(t *testing.T) {
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 1)
	c, _ := newClientCtx(t, m, 0)
	c.EnableCommThreads()
	defer c.DisableCommThreads()
	time.Sleep(50 * time.Millisecond)
	node := m.Task(0).Node()
	_ = node
	// Enabling twice is a no-op.
	c.EnableCommThreads()
}

func TestDisableCommThreadsStops(t *testing.T) {
	m := newTestMachine(t, torus.Dims{1, 1, 1, 1, 1}, 1)
	c, _ := newClientCtx(t, m, 0)
	c.EnableCommThreads()
	done := make(chan struct{})
	go func() { c.DisableCommThreads(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DisableCommThreads hung")
	}
	if c.CommThreadsEnabled() {
		t.Fatal("still enabled after disable")
	}
}
