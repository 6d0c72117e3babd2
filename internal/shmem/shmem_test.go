package shmem

import (
	"bytes"
	"sync"
	"testing"

	"pamigo/internal/bufpool"
	"pamigo/internal/mu"
)

func TestSendReceive(t *testing.T) {
	n := NewNode(0)
	dev, err := n.Register(mu.TaskAddr{Task: 1, Ctx: 0}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := mu.Header{Dispatch: 4, Origin: mu.TaskAddr{Task: 0, Ctx: 0}, Seq: 3, Meta: []byte("env")}
	if err := n.Send(mu.TaskAddr{Task: 1, Ctx: 0}, hdr, []byte("intranode")); err != nil {
		t.Fatal(err)
	}
	m, ok := dev.Poll()
	if !ok {
		t.Fatal("no message delivered")
	}
	h := m.Header()
	if h.Dispatch != 4 || h.Seq != 3 || string(h.Meta) != "env" || !m.Whole() {
		t.Fatalf("header mangled: %+v", h)
	}
	if string(m.Payload()) != "intranode" || h.Total != 9 {
		t.Fatalf("payload mangled: %q total=%d", m.Payload(), h.Total)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	n := NewNode(0)
	dev, _ := n.Register(mu.TaskAddr{Task: 1}, 4, nil)
	buf := []byte("before")
	if err := n.Send(mu.TaskAddr{Task: 1}, mu.Header{}, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "after!")
	m, _ := dev.Poll()
	if string(m.Payload()) != "before" {
		t.Fatalf("payload aliases sender buffer: %q", m.Payload())
	}
}

func TestSendUnknownEndpoint(t *testing.T) {
	n := NewNode(0)
	if err := n.Send(mu.TaskAddr{Task: 5}, mu.Header{}, nil); err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	n := NewNode(0)
	if _, err := n.Register(mu.TaskAddr{Task: 1}, 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(mu.TaskAddr{Task: 1}, 4, nil); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
}

func TestDeregister(t *testing.T) {
	n := NewNode(0)
	addr := mu.TaskAddr{Task: 2, Ctx: 1}
	if _, err := n.Register(addr, 4, nil); err != nil {
		t.Fatal(err)
	}
	n.Deregister(addr)
	if err := n.Send(addr, mu.Header{}, nil); err == nil {
		t.Fatal("send after deregistration succeeded")
	}
}

func TestWakeupTouchedOnSend(t *testing.T) {
	n := NewNode(0)
	dev, _ := n.Register(mu.TaskAddr{Task: 1}, 4, nil)
	before, _ := dev.Region().Stats()
	if err := n.Send(mu.TaskAddr{Task: 1}, mu.Header{}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	after, _ := dev.Region().Stats()
	if after != before+1 {
		t.Fatalf("send touched region %d times", after-before)
	}
}

func TestZeroByteMessage(t *testing.T) {
	n := NewNode(0)
	dev, _ := n.Register(mu.TaskAddr{Task: 1}, 4, nil)
	if err := n.Send(mu.TaskAddr{Task: 1}, mu.Header{Seq: 1}, nil); err != nil {
		t.Fatal(err)
	}
	m, ok := dev.Poll()
	if !ok || m.Payload() != nil || m.Header().Total != 0 || !m.Whole() {
		t.Fatalf("zero-byte message mangled: %+v", m.Header())
	}
}

func TestConcurrentProducersPerSourceFIFO(t *testing.T) {
	n := NewNode(0)
	dst := mu.TaskAddr{Task: 0}
	dev, _ := n.Register(dst, 8, nil) // small array: exercise overflow
	const producers = 8
	const per = 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				hdr := mu.Header{Origin: mu.TaskAddr{Task: p + 1}, Seq: i}
				if err := n.Send(dst, hdr, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	last := make([]int64, producers+2)
	for i := range last {
		last[i] = -1
	}
	got := 0
	for got < producers*per {
		m, ok := dev.Poll()
		if !ok {
			continue
		}
		h := m.Header()
		src := h.Origin.Task
		if int64(h.Seq) != last[src]+1 {
			t.Fatalf("per-producer order broken for %d: seq %d after %d", src, h.Seq, last[src])
		}
		last[src] = int64(h.Seq)
		got++
	}
	wg.Wait()
	if !dev.Empty() {
		t.Fatal("device not empty after drain")
	}
	if dev.Received() != producers*per {
		t.Fatalf("Received = %d", dev.Received())
	}
}

// Both cuts of the inline rule on the shared-memory leg: a message of
// mu.InlineMax bytes of metadata and payload is copied into its element
// and the relinquished slab goes back on the spot; one byte more and the
// element views the slab, plus a copy of the metadata if there is any,
// until the consumer releases it.
func TestInlineCut(t *testing.T) {
	n := NewNode(0)
	dev, _ := n.Register(mu.TaskAddr{Task: 1}, 4, nil)
	live := func() int64 { l, _ := bufpool.Live(); return l }
	for _, c := range []struct{ meta, payload, slabs int }{
		{mu.InlineMax, 0, 0}, {16, mu.InlineMax - 16, 0}, {0, mu.InlineMax, 0},
		{mu.InlineMax + 1, 0, 1}, {16, mu.InlineMax - 15, 2}, {0, mu.InlineMax + 1, 1},
	} {
		meta, payload := bytes.Repeat([]byte{'m'}, c.meta), bytes.Repeat([]byte{'p'}, c.payload)
		live0 := live()
		if err := n.SendBufTo(dev, mu.Header{Meta: meta}, bufpool.GetCopy(payload)); err != nil {
			t.Fatal(err)
		}
		if held := live() - live0; held != int64(c.slabs) {
			t.Errorf("%d+%d B: the queued element holds %d slabs, want %d", c.meta, c.payload, held, c.slabs)
		}
		m, _ := dev.Poll()
		if !m.Whole() || !bytes.Equal(m.Meta(), meta) || !bytes.Equal(m.Payload(), payload) {
			t.Errorf("%d+%d B: delivered %q / %q", c.meta, c.payload, m.Meta(), m.Payload())
		}
		m.Release()
		if live() != live0 {
			t.Errorf("%d+%d B: %d slabs live after the release", c.meta, c.payload, live()-live0)
		}
	}
}
