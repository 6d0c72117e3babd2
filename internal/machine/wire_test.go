package machine_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/health"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
	"pamigo/internal/wire"
)

var wireDims = torus.Dims{2, 1, 1, 1, 1}

// wirePair boots a 2-task partition split across two machines in this
// test process, connected over loopback TCP — the in-test stand-in for
// two OS processes.
func wirePair(t *testing.T, opts wire.Options) (ma, mb *machine.Machine) {
	t.Helper()
	return wirePairBeating(t, opts, 0)
}

// wirePairBeating is wirePair with the health monitors' beat interval
// set by hand (0 leaves it to the machine).
func wirePairBeating(t *testing.T, opts wire.Options, heartbeat time.Duration) (ma, mb *machine.Machine) {
	t.Helper()
	optsA := opts
	optsA.Listen = "127.0.0.1:0"
	ma, err := machine.New(machine.Config{
		Dims: wireDims, PPN: 1,
		HostedLo: 0, HostedHi: 1,
		Wire: &optsA, HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatalf("machine a: %v", err)
	}
	t.Cleanup(ma.Shutdown)
	optsB := opts
	optsB.Join = []string{ma.Wire().Addr()}
	mb, err = machine.New(machine.Config{
		Dims: wireDims, PPN: 1,
		HostedLo: 1, HostedHi: 2,
		Wire: &optsB, HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatalf("machine b: %v", err)
	}
	t.Cleanup(mb.Shutdown)
	if err := ma.WaitWire(5 * time.Second); err != nil {
		t.Fatalf("a incomplete: %v", err)
	}
	if err := mb.WaitWire(5 * time.Second); err != nil {
		t.Fatalf("b incomplete: %v", err)
	}
	return ma, mb
}

func wireCtx(t *testing.T, m *machine.Machine, task int) *core.Context {
	t.Helper()
	c, err := core.NewClient(m, m.Task(task), "wiretest")
	if err != nil {
		t.Fatal(err)
	}
	ctxs, err := c.CreateContexts(1)
	if err != nil {
		t.Fatal(err)
	}
	return ctxs[0]
}

func fastBeats() wire.Options {
	return wire.Options{
		Partition:    7,
		BeatInterval: 500 * time.Microsecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		Seed:         99,
	}
}

// TestCrossProcessEagerSend pushes core sends across the wire in both
// directions: a small eager message and one far above the eager
// threshold, which auto-mode must still send eagerly because rendezvous
// RDMA cannot reach another process's memory.
func TestCrossProcessEagerSend(t *testing.T) {
	ma, mb := wirePair(t, fastBeats())
	ca := wireCtx(t, ma, 0)
	cb := wireCtx(t, mb, 1)

	type got struct {
		meta, data []byte
		rendez     bool
	}
	recv := make(map[string]*got)
	cb.RegisterDispatch(1, func(_ *core.Context, d *core.Delivery) {
		recv[string(d.Meta)] = &got{
			meta:   append([]byte(nil), d.Meta...),
			data:   append([]byte(nil), d.Data...),
			rendez: d.IsRendezvous(),
		}
	})

	small := []byte("across the wire")
	big := make([]byte, 3*core.DefaultEagerThreshold+13)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := ca.Send(core.SendParams{Dest: cb.Endpoint(), Dispatch: 1, Meta: []byte("m1"), Data: small}); err != nil {
		t.Fatalf("small send: %v", err)
	}
	if err := ca.Send(core.SendParams{Dest: cb.Endpoint(), Dispatch: 1, Meta: []byte("m2"), Data: big}); err != nil {
		t.Fatalf("big send: %v", err)
	}
	cb.AdvanceUntil(func() bool { return len(recv) == 2 })
	bodies := map[string][]byte{}
	for key, g := range recv {
		if g.rendez {
			t.Fatalf("message %q crossed processes as rendezvous", key)
		}
		bodies[key] = g.data
	}
	if string(bodies["m1"]) != string(small) {
		t.Fatalf("small payload mangled: %d bytes", len(bodies["m1"]))
	}
	if len(bodies["m2"]) != len(big) {
		t.Fatalf("big payload %d bytes, want %d", len(bodies["m2"]), len(big))
	}
	for i := range big {
		if bodies["m2"][i] != big[i] {
			t.Fatalf("big payload byte %d: %02x want %02x", i, bodies["m2"][i], big[i])
		}
	}

	// Reverse direction: the acceptor-side machine sends too.
	var back []byte
	ca.RegisterDispatch(2, func(_ *core.Context, d *core.Delivery) {
		back = append([]byte(nil), d.Data...)
	})
	if err := cb.Send(core.SendParams{Dest: ca.Endpoint(), Dispatch: 2, Data: []byte("reply")}); err != nil {
		t.Fatalf("reverse send: %v", err)
	}
	ca.AdvanceUntil(func() bool { return back != nil })
	if string(back) != "reply" {
		t.Fatalf("reverse payload: %q", back)
	}
}

// TestWireDeathDetection kills machine b without ceremony and asserts
// machine a's phi-accrual detector confirms the death from heartbeat
// silence alone, after which sends fail typed with ErrPeerDead.
func TestWireDeathDetection(t *testing.T) {
	opts := fastBeats()
	ma, mb := wirePair(t, opts)
	ca := wireCtx(t, ma, 0)

	// The monitor needs at least one real beat before silence counts
	// (bootstrap grace); WaitWire guarantees the join, beats follow.
	deadline := time.Now().Add(5 * time.Second)
	for step := int64(0); ma.Health().Phi(1) == 0 && ma.Alive(1); step++ {
		if time.Now().After(deadline) {
			break // no suspicion at all — beats flowing, which is what we want
		}
		time.Sleep(fault.Jitter(99, step, time.Millisecond))
	}
	if !ma.Alive(1) {
		t.Fatal("node 1 declared dead while its process was healthy")
	}

	// The "SIGKILL": b's process stops existing. No goodbye, no FIN
	// ordering guarantees — just silence.
	mb.Shutdown()

	// Wait on what is asserted, not on Alive: Alive flips when the monitor
	// confirms the death, the transport refuses sends only once the death
	// callbacks that follow have reached it.
	refused := func() bool {
		return errors.Is(ma.Wire().Send(core.Endpoint{Task: 1}, wireTestHeader(1), []byte("x")), health.ErrPeerDead)
	}
	deadline = time.Now().Add(10 * time.Second)
	for step := int64(0); !refused(); step++ {
		if time.Now().After(deadline) {
			t.Fatalf("the wire never refused a send to node 1 with ErrPeerDead (alive=%v phi=%v)", ma.Alive(1), ma.Health().Phi(1))
		}
		time.Sleep(fault.Jitter(99, step, time.Millisecond))
	}
	if ma.Alive(1) || ma.Epoch() == 0 {
		t.Fatalf("send refused but alive=%v epoch=%d", ma.Alive(1), ma.Epoch())
	}
	for _, pi := range ma.Wire().Peers() {
		if pi.TaskLo == 1 && !pi.Dead {
			t.Fatal("peer record of the dead range not marked dead")
		}
	}
	// Core sends to the dead range fail typed, immediately.
	err := ca.Send(core.SendParams{Dest: core.Endpoint{Task: 1}, Dispatch: 1, Data: []byte("x")})
	if !errors.Is(err, health.ErrPeerDead) {
		t.Fatalf("send to dead peer: %v, want ErrPeerDead", err)
	}

	// Survivor recovers by checkpoint-restart: drain, pass the quiescence
	// precondition, boot a fresh machine whose transports start clean.
	ca.Drain()
	if err := ma.Quiesced(); err != nil {
		t.Fatalf("not quiescent after death and drain: %v", err)
	}
	if dead := ma.Health().DeadNodes(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("dead set %v, want [1]", dead)
	}
	m2, err := machine.New(machine.Config{Dims: wireDims, PPN: 1})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Shutdown()
	if m2.Tasks() != 2 || m2.Epoch() != 0 {
		t.Fatalf("restarted machine: tasks=%d epoch=%d", m2.Tasks(), m2.Epoch())
	}
}

// TestWireMonitorIntervalMatchesBeat asserts the failure detector counts
// suspicion in the beats the wire actually sends: with no explicit
// HeartbeatInterval the monitor runs at the wire's beat interval, not at
// the health default — "phi 8" must mean eight missed beats.
func TestWireMonitorIntervalMatchesBeat(t *testing.T) {
	cases := []struct {
		wireBeat, heartbeat, want time.Duration
	}{
		{0, 0, wire.DefaultBeatInterval},
		{7 * time.Millisecond, 0, 7 * time.Millisecond},
		{7 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond}, // said by hand: kept
	}
	for _, tc := range cases {
		opts := wire.Options{Partition: 7, Listen: "127.0.0.1:0", BeatInterval: tc.wireBeat}
		m, err := machine.New(machine.Config{
			Dims: wireDims, PPN: 1, HostedLo: 0, HostedHi: 1,
			Wire: &opts, HeartbeatInterval: tc.heartbeat,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Health().BeatInterval()
		m.Shutdown()
		if got != tc.want {
			t.Fatalf("wire beat %v, heartbeat %v: monitor interval %v, want %v", tc.wireBeat, tc.heartbeat, got, tc.want)
		}
	}
}

// TestAnyFrameIsLiveness turns the beat frames off (one an hour) and
// streams data: every valid frame proves its sender alive, so neither
// side suspects the other while the stream (and its acks) flow, for five
// detection thresholds on end. When the stream stops there is nothing
// left to fill the silence, and the detector confirms the death.
func TestAnyFrameIsLiveness(t *testing.T) {
	const heartbeat = 20 * time.Millisecond // threshold 8: 160 ms of silence kills (a loaded -race run stalls a goroutine for tens)
	opts := fastBeats()
	opts.BeatInterval = time.Hour
	ma, mb := wirePairBeating(t, opts, heartbeat)
	wireCtx(t, ma, 0) // a reception FIFO for the stream to land in
	start := time.Now()
	sent := 0
	for time.Since(start) < 40*heartbeat {
		if err := mb.Wire().Send(core.Endpoint{Task: 0}, mu.Header{Dispatch: 1, Origin: mu.TaskAddr{Task: 1}, Seq: uint64(sent), Total: 8}, make([]byte, 8)); err != nil {
			t.Fatalf("send %d: %v", sent, err)
		}
		sent++
		if !ma.Alive(1) || !mb.Alive(0) {
			t.Fatalf("a streaming peer was confirmed dead %v into the stream (phi a->b %.1f, b->a %.1f)",
				time.Since(start), ma.Health().Phi(1), mb.Health().Phi(0))
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d data frames kept both sides alive for %v with no beat frame", sent, time.Since(start))
	stopped := time.Now()
	for step := int64(0); ma.Alive(1); step++ {
		if time.Since(stopped) > 5*time.Second {
			t.Fatalf("stream stopped, no beats, and the peer was never suspected (phi=%v)", ma.Health().Phi(1))
		}
		time.Sleep(fault.Jitter(99, step, time.Millisecond))
	}
	if took := time.Since(stopped); took < 4*heartbeat {
		t.Fatalf("death confirmed %v after the last frame: under half the threshold of silence", took)
	}
}

// TestWireBurstIntoFullFIFO streams far more than the receiver's FIFO
// holds at a consumer that parks whenever it finds the FIFO empty. The
// wire reader queues a burst without waking it, so when the FIFO
// refuses, the wake-up the burst owes has to go out before the reader
// sleeps on the refusal — or both sleep for good.
func TestWireBurstIntoFullFIFO(t *testing.T) {
	const n = 3000
	optsA := fastBeats()
	optsA.Listen = "127.0.0.1:0"
	// No failure detection here: a sender this tight can keep a reader
	// goroutine off its core for a scheduler time slice, which is longer
	// than eight 500 us beats.
	ma, err := machine.New(machine.Config{Dims: wireDims, PPN: 1, HostedLo: 0, HostedHi: 1, Wire: &optsA, RecFIFOSlots: 8, PhiThreshold: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ma.Shutdown)
	// The FIFO is shrunk before the peer joins: the reader goroutine that
	// fills it does not exist yet.
	ca := wireCtx(t, ma, 0)
	fifo, ok := ma.Fabric().RecFIFOOf(mu.TaskAddr{Task: 0})
	if !ok {
		t.Fatal("no reception FIFO for task 0")
	}
	fifo.SetOverflowCap(4)
	optsB := fastBeats()
	optsB.Join = []string{ma.Wire().Addr()}
	mb, err := machine.New(machine.Config{Dims: wireDims, PPN: 1, HostedLo: 1, HostedHi: 2, Wire: &optsB, PhiThreshold: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mb.Shutdown)
	if err := mb.WaitWire(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := 0
	ca.RegisterDispatch(1, func(_ *core.Context, d *core.Delivery) { got++ })
	var seen atomic.Int64
	done := make(chan struct{})
	go func() {
		ca.AdvanceUntil(func() bool { seen.Store(int64(got)); return got == n })
		close(done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	wedged := func() {
		t.Helper()
		if time.Now().After(deadline) {
			t.Fatalf("the stream wedged with %d of %d delivered: reader asleep on a full FIFO, consumer parked", seen.Load(), n)
		}
	}
	for i := 0; i < n; i++ {
		for step := int64(0); ; step++ {
			err := mb.Wire().Send(core.Endpoint{Task: 0}, mu.Header{Dispatch: 1, Origin: mu.TaskAddr{Task: 1}, Seq: uint64(i), Total: 8}, make([]byte, 8))
			if err == nil {
				break
			}
			if !errors.Is(err, wire.ErrBackpressure) {
				t.Fatalf("send %d: %v", i, err)
			}
			wedged()
			time.Sleep(fault.Jitter(99, step, 100*time.Microsecond))
		}
	}
	for step := int64(0); ; step++ {
		select {
		case <-done:
		default:
			wedged()
			time.Sleep(fault.Jitter(99, step, time.Millisecond))
			continue
		}
		break
	}
	snap := ma.Telemetry().Snapshot()
	if stalls, _ := snap.Counter("wire.deliver_stalls"); stalls == 0 {
		t.Log("the FIFO never refused a burst on this run")
	}
}

// TestHangDumpListsLinks: a wire-mode machine adds its link table to the
// process hang dump — every peer, its state, why its connection last
// broke — and takes it out again at shutdown.
func TestHangDumpListsLinks(t *testing.T) {
	// Detection counted in seconds: a reconnect under -race can outlast
	// eight 500 us beats, and a dead peer is never redialed.
	ma, mb := wirePairBeating(t, fastBeats(), time.Second)
	mb.Wire().SeverConnections()
	deadline := time.Now().Add(5 * time.Second)
	for step := int64(0); ; step++ {
		if pi := mb.Wire().Peers()[0]; pi.Reconnects > 0 && pi.Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect after the cut: %+v", mb.Wire().Peers())
		}
		time.Sleep(fault.Jitter(99, step, time.Millisecond))
	}
	var dump strings.Builder
	watchdog.DumpTo(&dump, "test")
	for _, want := range []string{
		"wire links of tasks [0,1)", "wire links of tasks [1,2)",
		fmt.Sprintf("peer [0,1) addr=%q connected=true dead=false reconnects=1 last disconnect", ma.Wire().Addr()),
	} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("hang dump lacks %q:\n%s", want, dump.String())
		}
	}
	ma.Shutdown()
	mb.Shutdown()
	dump.Reset()
	watchdog.DumpTo(&dump, "test")
	if strings.Contains(dump.String(), "wire links") {
		t.Fatal("a machine that was shut down is still in the hang dump")
	}
}

// TestHostedRangeValidation asserts wire-mode boot rejects bad ranges
// with messages that say what to fix.
func TestHostedRangeValidation(t *testing.T) {
	opts := fastBeats()
	cases := []struct {
		lo, hi int
		ppn    int
		want   string
	}{
		{lo: 1, hi: 2, ppn: 2, want: "splits a node"},
		{lo: 0, hi: 6, ppn: 2, want: "outside the partition"},
		{lo: 2, hi: 2, ppn: 2, want: "empty"},
	}
	for _, tc := range cases {
		_, err := machine.New(machine.Config{
			Dims: wireDims, PPN: tc.ppn,
			HostedLo: tc.lo, HostedHi: tc.hi,
			Wire: &opts,
		})
		if err == nil {
			t.Fatalf("range [%d,%d) ppn %d accepted", tc.lo, tc.hi, tc.ppn)
		}
		if !contains(err.Error(), tc.want) {
			t.Fatalf("range [%d,%d): error %q does not explain %q", tc.lo, tc.hi, err, tc.want)
		}
	}
}

// TestCheckpointRefusedWhileWireBusy asserts the wire transport's
// unacknowledged frames block a checkpoint — the cross-process half of
// the "checkpoints hold no transport state" invariant.
func TestCheckpointRefusedWhileWireBusy(t *testing.T) {
	ma, mb := wirePair(t, fastBeats())
	// A reception FIFO must exist on b's side for the frame to land in;
	// the ack returns once it does (no handler dispatch required).
	wireCtx(t, mb, 1)
	// A frame the peer will deliver but whose ack may not have returned
	// yet: immediately after Send, the outbound window is non-empty.
	if err := ma.Wire().Send(core.Endpoint{Task: 1}, wireTestHeader(4), []byte("busy")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := ma.Wire().Quiesced(); err == nil {
		// The ack can race in before we check; only assert the refusal
		// when the window is demonstrably still open.
		t.Skip("ack arrived before the quiescence check; nothing to refuse")
	}
	if err := ma.Quiesced(); err == nil || !contains(err.Error(), "wire transport not quiescent") {
		t.Fatalf("Quiesced with unacknowledged wire frames: %v, want a refusal naming the wire transport", err)
	}
	// Once acknowledged, the checkpoint goes through.
	deadline := time.Now().Add(5 * time.Second)
	for step := int64(0); ma.Wire().Quiesced() != nil; step++ {
		if time.Now().After(deadline) {
			t.Fatalf("wire never quiesced: %v", ma.Wire().Quiesced())
		}
		time.Sleep(fault.Jitter(99, step, time.Millisecond))
	}
	if err := ma.Quiesced(); err != nil {
		t.Fatalf("Quiesced after the ack: %v", err)
	}
}

func wireTestHeader(n int) mu.Header {
	return mu.Header{Dispatch: 1, Origin: mu.TaskAddr{Task: 0}, Seq: 1, Total: n}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

var _ = fmt.Sprintf
