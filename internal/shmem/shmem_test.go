package shmem

import (
	"sync"
	"testing"

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
	if m.Hdr.Dispatch != 4 || m.Hdr.Seq != 3 || string(m.Hdr.Meta) != "env" {
		t.Fatalf("header mangled: %+v", m.Hdr)
	}
	if string(m.Payload) != "intranode" || m.Hdr.Total != 9 {
		t.Fatalf("payload mangled: %q total=%d", m.Payload, m.Hdr.Total)
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
	if string(m.Payload) != "before" {
		t.Fatalf("payload aliases sender buffer: %q", m.Payload)
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
	if !ok || m.Payload != nil || m.Hdr.Total != 0 {
		t.Fatalf("zero-byte message mangled: %+v", m)
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
		src := m.Hdr.Origin.Task
		if int64(m.Hdr.Seq) != last[src]+1 {
			t.Fatalf("per-producer order broken for %d: seq %d after %d", src, m.Hdr.Seq, last[src])
		}
		last[src] = int64(m.Hdr.Seq)
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
