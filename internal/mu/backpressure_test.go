package mu

import (
	"errors"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/fault"
	"pamigo/internal/watchdog"
)

// sendSeqs injects one 8-byte message per sequence number in [from, to)
// from task 0 to task 1 and returns the first error.
func sendSeqs(f *Fabric, src *ContextResources, from, to int) error {
	for seq := from; seq < to; seq++ {
		hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: uint64(seq)}
		if err := f.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, []byte("8 bytes!")); err != nil {
			return err
		}
	}
	return nil
}

// waitCounter polls a reliable-layer counter until it reaches want.
func waitCounter(t *testing.T, f *Fabric, name string, want int64) {
	t.Helper()
	for stop := time.Now().Add(5 * time.Second); relCounter(t, f, name) < want; time.Sleep(time.Millisecond) {
		if time.Now().After(stop) {
			t.Fatalf("reliable.%s never reached %d", name, want)
		}
	}
}

// TestLiveSilentPeerKeepsFlow silences a destination the health monitor
// calls alive throughout — a consumer that stops polling while its full
// reception FIFO refuses a sender the link holds, a stall window that
// refuses the first 400 tries of a packet — and checks the flow
// survives: the silence ends, the blocked send completes, a new send
// succeeds, every message arrives exactly once, in order, and no send
// failed as dead. Who is dead is the monitor's to say.
func TestLiveSilentPeerKeepsFlow(t *testing.T) {
	const stallAttempts = 400 // at the 500 us backoff cap: 200 ms of silence or more
	cases := []struct {
		name        string
		plan        fault.Plan
		overflowCap int           // reception FIFO overflow cap; 0 keeps the default
		msgs        int           // messages sent before the silence ends
		pause       time.Duration // how long the consumer ignores a waiting sender
	}{
		// The shard's 64 slots and its 2 overflow hold 66 messages, so
		// the sender waits only past that.
		{name: "paused consumer", overflowCap: 8, msgs: 256, pause: 700 * time.Millisecond},
		{name: "stall that ends", plan: fault.Plan{Stalls: []fault.Stall{{Node: 1, From: 0, To: stallAttempts + 1}}}, msgs: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFabric(t)
			src := setupEndpoint(t, f, 0, 0, 0)
			dst := setupEndpoint(t, f, 1, 1, 0)
			hmon := watchHealth(t, f)
			installPlan(t, f, tc.plan, 3)
			if tc.overflowCap > 0 {
				dst.Rec.SetOverflowCap(tc.overflowCap)
			}
			sent := make(chan error, 1)
			go func() { sent <- sendSeqs(f, src, 0, tc.msgs) }()
			if tc.pause > 0 {
				waitCounter(t, f, "link_stalls", 1)
				select {
				case err := <-sent:
					t.Fatalf("sender returned %v before the consumer drained", err)
				case <-time.After(tc.pause):
				}
			}
			got := drainPackets(t, dst.Rec, tc.msgs, 5*time.Second)
			if err := <-sent; err != nil {
				t.Fatalf("send across the silence: %v", err)
			}
			if err := sendSeqs(f, src, tc.msgs, tc.msgs+1); err != nil {
				t.Fatalf("send after the silence: %v", err)
			}
			got = append(got, drainPackets(t, dst.Rec, 1, 5*time.Second)...)
			mustQuiesce(t, f, tc.name)
			if p, ok := dst.Rec.Poll(); ok {
				t.Fatalf("extra packet after the last message: seq %d", p.Header().Seq)
			}
			for i, p := range got {
				if seq := p.Header().Seq; seq != uint64(i) {
					t.Fatalf("arrival %d is message %d, want %d", i, seq, i)
				}
				p.Release()
			}
			if n := relCounter(t, f, "peer_dead_fails"); n != 0 {
				t.Fatalf("peer_dead_fails = %d for a live peer", n)
			}
			if hmon.Dead(1) {
				t.Fatal("the health monitor calls the destination dead")
			}
			if tc.pause == 0 {
				if n := relCounter(t, f, "stall_drops"); n != stallAttempts {
					t.Fatalf("stall_drops = %d, want %d", n, stallAttempts)
				}
			}
		})
	}
}

// TestSentinelEscalatesWindowStall covers the one bound left on a sender
// the link holds: with the fabric's wait site registered on an armed
// stall sentinel and the consumer paused, the full reception FIFO
// refuses and the waiting sender returns the sentinel's typed abort
// within the deadline plus scan slack. The cause is the flow's: later
// sends on it fail with the same cause, even once the consumer drains,
// until a revival gives the endpoints a fresh flow.
func TestSentinelEscalatesWindowStall(t *testing.T) {
	const deadline, scan = 50 * time.Millisecond, 10 * time.Millisecond
	f := newTestFabric(t)
	src := setupEndpoint(t, f, 0, 0, 0)
	dst := setupEndpoint(t, f, 1, 1, 0)
	hmon := watchHealth(t, f)
	sent := watchdog.NewSentinel(nil)
	f.SetSentinel(sent)
	sent.Arm(deadline, scan)
	defer sent.Stop()
	installPlan(t, f, fault.Plan{}, 3)
	dst.Rec.SetOverflowCap(8)

	done := make(chan error, 1)
	go func() { done <- sendSeqs(f, src, 0, 256) }() // past the 66 the shard holds
	waitCounter(t, f, "link_stalls", 1)
	stalled := time.Now()
	// A scan stamps the wait, a later one escalates it; the second of
	// slack absorbs a loaded scheduler (the race detector).
	limit := deadline + 2*scan + time.Second
	var err error
	select {
	case err = <-done:
	case <-time.After(limit):
		t.Fatalf("the waiting sender still waits %v after the stall", limit)
	}
	if took := time.Since(stalled); took > limit {
		t.Fatalf("sender returned %v after the stall, want within %v", took, limit)
	}
	var c *abort.Cause
	if !errors.Is(err, abort.ErrAborted) || !errors.As(err, &c) || c.Kind != abort.KindDeadline || c.Site != "mu.link.stall" {
		t.Fatalf("the waiting sender returned %v, want a mu.link.stall deadline abort", err)
	}
	fl := f.rel.Load().flowFor(flowKey{src: TaskAddr{0, 0}, dst: TaskAddr{1, 0}})
	if fc := fl.cause.Load(); fc != c {
		t.Fatalf("flow carries cause %v, want the sentinel's %v", fc, c)
	}

	for p, ok := dst.Rec.Poll(); ok; p, ok = dst.Rec.Poll() {
		p.Release()
	}
	var later *abort.Cause
	if err := sendSeqs(f, src, 256, 257); !errors.As(err, &later) || later != c {
		t.Fatalf("a later send on the flow returned %v, want the sentinel's cause %v", err, c)
	}
	hmon.DeclareDead(1)
	f.ReviveNode(1)
	hmon.Revive(1)
	if err := sendSeqs(f, src, 257, 258); err != nil {
		t.Fatalf("first send after the revival: %v", err)
	}
	p := drainPackets(t, dst.Rec, 1, time.Second)[0]
	if h := p.Header(); h.Seq != 257 || h.PktSeq != 1 {
		t.Fatalf("delivered message %d at flow sequence %d, want message 257 at sequence 1", h.Seq, h.PktSeq)
	}
	p.Release()
}
