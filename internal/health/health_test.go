package health

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
)

func TestMonitorDetectsSilentNode(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	m, err := NewMonitor(Config{Nodes: 4, BeatInterval: 200 * time.Microsecond, PhiThreshold: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var died atomic.Int64
	var victim atomic.Int64
	m.OnDeath(func(n torus.Rank) {
		died.Add(1)
		victim.Store(int64(n))
	})
	m.Start()
	defer m.Stop()

	if m.Epoch() != 0 {
		t.Fatalf("boot epoch = %d, want 0", m.Epoch())
	}
	m.Silence(2)
	deadline := time.Now().Add(5 * time.Second)
	for m.Alive(2) {
		if time.Now().After(deadline) {
			t.Fatalf("node 2 never confirmed dead (phi=%v)", m.Phi(2))
		}
		time.Sleep(100 * time.Microsecond)
	}
	if died.Load() != 1 || victim.Load() != 2 {
		t.Fatalf("deaths=%d victim=%d, want 1 death of node 2", died.Load(), victim.Load())
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d after one death, want 1", m.Epoch())
	}
	for _, n := range []torus.Rank{0, 1, 3} {
		if !m.Alive(n) {
			t.Fatalf("node %d wrongly declared dead", n)
		}
	}
	if got := m.DeadNodes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadNodes = %v, want [2]", got)
	}
}

func TestMonitorSurvivorsKeepBeating(t *testing.T) {
	m, err := NewMonitor(Config{Nodes: 2, BeatInterval: 200 * time.Microsecond, PhiThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()
	time.Sleep(20 * time.Millisecond) // many threshold windows
	if !m.Alive(0) || !m.Alive(1) {
		t.Fatal("heartbeating node declared dead")
	}
	if m.Epoch() != 0 {
		t.Fatalf("epoch = %d with no deaths, want 0", m.Epoch())
	}
}

func TestDeclareDeadImmediateAndReplay(t *testing.T) {
	m, err := NewMonitor(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	// No Start: DeclareDead must work without the scanner.
	m.DeclareDead(1)
	m.DeclareDead(1) // idempotent
	if m.Alive(1) || m.Epoch() != 1 {
		t.Fatalf("alive=%v epoch=%d after DeclareDead, want dead/1", m.Alive(1), m.Epoch())
	}
	var replayed []torus.Rank
	m.OnDeath(func(n torus.Rank) { replayed = append(replayed, n) })
	if len(replayed) != 1 || replayed[0] != 1 {
		t.Fatalf("late subscriber replay = %v, want [1]", replayed)
	}
	m.Stop() // Stop without Start must not hang
}

func TestTypedErrors(t *testing.T) {
	if !errors.Is(ErrPeerDead, ErrPeerDead) || errors.Is(ErrPeerDead, ErrEpochChanged) {
		t.Fatal("typed errors are not distinct sentinels")
	}
}

func TestExternalBeatLifecycle(t *testing.T) {
	// A wide silence tolerance (BeatInterval*PhiThreshold = 16ms) keeps
	// the race detector's scheduling jitter from outrunning the beater
	// goroutine below.
	m, err := NewMonitor(Config{Nodes: 2, BeatInterval: 2 * time.Millisecond, PhiThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.SetExternal(1)
	var died atomic.Int64
	m.OnDeath(func(torus.Rank) { died.Add(1) })
	m.Start()
	defer m.Stop()

	// Bootstrap grace: an external node whose process has not joined yet
	// cannot be declared dead — suspicion needs a first beat to anchor.
	time.Sleep(10 * time.Millisecond) // many threshold windows
	if !m.Alive(1) {
		t.Fatal("external node declared dead before its first beat")
	}
	if m.Phi(1) != 0 {
		t.Fatalf("phi=%v accrued during bootstrap grace", m.Phi(1))
	}

	// Beats flowing: stays alive.
	stop := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		for {
			select {
			case <-stop:
				return
			default:
				m.Beat(1)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if !m.Alive(1) {
		t.Fatal("beating external node declared dead")
	}

	// Beats stop (the process was SIGKILLed): suspicion accrues and the
	// death is confirmed without any Silence call.
	close(stop)
	<-beatDone
	deadline := time.Now().Add(5 * time.Second)
	for m.Alive(1) {
		if time.Now().After(deadline) {
			t.Fatalf("external node never confirmed dead after beats stopped (phi=%v)", m.Phi(1))
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The scanner flips the node dead before it runs the death callbacks.
	for died.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if died.Load() != 1 || !m.Alive(0) {
		t.Fatalf("deaths=%d alive(0)=%v, want exactly the external node dead", died.Load(), m.Alive(0))
	}
}

// TestScannerPauseIsNotPeerSilence drives the scanner by hand on a fake
// clock: a pass that runs ten intervals late (this process was paused,
// the peer's beats sat unread) must not kill an external node, and the
// node's real silence afterwards still must.
func TestScannerPauseIsNotPeerSilence(t *testing.T) {
	const ms = int64(time.Millisecond)
	m, err := NewMonitor(Config{Nodes: 2, BeatInterval: time.Millisecond, PhiThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	var clk int64
	m.now = func() int64 { return clk }
	m.SetExternal(1)
	m.Beat(1) // joined: silence counts from here
	last := clk
	scanAt := func(at int64) {
		clk = at
		m.scanOnce(last, at)
		last = at
	}
	scanAt(1 * ms)
	scanAt(2 * ms)
	scanAt(12 * ms) // the scanner's own 10-interval gap
	if !m.Alive(1) {
		t.Fatal("a late scanner pass killed a peer that had no chance to be heard")
	}
	if phi := m.Phi(1); phi > 4 {
		t.Fatalf("phi %.1f after the pause: the scanner's lateness accrued as the peer's silence", phi)
	}
	// A beat that lands during the pass is not overwritten by the credit.
	m.Beat(1)
	scanAt(13 * ms)
	if phi := m.Phi(1); phi != 1 {
		t.Fatalf("phi %.1f one interval after a beat, want 1", phi)
	}
	// On-time passes from here, and the peer stays silent: it dies within
	// the threshold, not later.
	for at := 14 * ms; m.Alive(1); at += ms {
		if at > 12*ms+8*ms+2*ms {
			t.Fatalf("peer still alive at %d ms: real silence after a pause no longer kills", at/ms)
		}
		scanAt(at)
	}
	if !m.Alive(0) {
		t.Fatal("the in-process node died with it")
	}
}
