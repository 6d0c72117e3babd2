package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/fault"
	"pamigo/internal/health"
	"pamigo/internal/lockless"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/recovery"
	"pamigo/internal/torus"
	"pamigo/internal/wire"
)

// TestTypedErrorVocabulary is the errors.Is audit in executable form:
// every typed error of the stack, wrapped through the same %w layering
// the real code paths use, must still classify by errors.Is — and must
// not classify as any of the others. Sentinels that are re-exports of
// another layer's error (mu.ErrPeerDead, wire.ErrBackpressure) must
// stay identical, not merely similar, so a caller matching against
// either vocabulary sees the same truth.
func TestTypedErrorVocabulary(t *testing.T) {
	// Aliases across layers are the same object.
	if mu.ErrPeerDead != health.ErrPeerDead || wire.ErrPeerDead != health.ErrPeerDead {
		t.Fatal("ErrPeerDead aliases diverged across layers")
	}
	if mu.ErrEpochChanged != health.ErrEpochChanged {
		t.Fatal("ErrEpochChanged aliases diverged across layers")
	}
	if wire.ErrBackpressure != lockless.ErrBackpressure {
		t.Fatal("ErrBackpressure aliases diverged across layers")
	}

	roots := []error{
		mu.ErrPeerDead,
		mu.ErrEpochChanged,
		mu.ErrNoRoute,
		mu.ErrFabricClosed,
		collnet.ErrNoClassRoute,
		lockless.ErrBackpressure,
		ErrThrottled,
		ErrNotRectangular,
		wire.ErrNoPeer,
		wire.ErrFrameCorrupt,
		recovery.ErrCorruptSnapshot,
	}
	cases := []struct {
		name string
		err  error
		want error
	}{
		{
			// mu link's dead-endpoint failure -> core rendezvous cancellation layering.
			name: "peer death through flow failure and send cancellation",
			err: fmt.Errorf("core: rendezvous send %d to %v cancelled: %w", 7, Endpoint{Task: 3},
				fmt.Errorf("mu: flow %v -> %v: node %d: %w",
					Endpoint{Task: 0}, Endpoint{Task: 3}, 3, mu.ErrPeerDead)),
			want: mu.ErrPeerDead,
		},
		{
			name: "epoch change through collnet session failure",
			err: fmt.Errorf("core: allreduce: %w",
				fmt.Errorf("collnet: node %d died during session %d: %w", 2, 9, health.ErrEpochChanged)),
			want: mu.ErrEpochChanged,
		},
		{
			name: "throttle through immediate send",
			err: fmt.Errorf("core: immediate send %v -> %v: inbound queue at %d of budget %d: %w",
				Endpoint{}, Endpoint{Task: 1}, 96, 64, ErrThrottled),
			want: ErrThrottled,
		},
		{
			name: "backpressure through wire send queue",
			err: fmt.Errorf("wire: send to task %d via %s: queue full at %d frames: %w",
				5, "10.0.0.2:7117", 4096, wire.ErrBackpressure),
			want: lockless.ErrBackpressure,
		},
		{
			name: "classroute shortage through Optimize",
			err:  fmt.Errorf("core: optimize geometry %d: %w", 4, collnet.ErrNoClassRoute),
			want: collnet.ErrNoClassRoute,
		},
		{
			name: "corrupt replica through recovery ingest",
			err: fmt.Errorf("machine: replica from peer: %w",
				fmt.Errorf("%w: crc 00000000, want deadbeef", recovery.ErrCorruptSnapshot)),
			want: recovery.ErrCorruptSnapshot,
		},
		{
			name: "no route through fabric injection",
			err: fmt.Errorf("core: send %v -> %v: %w", Endpoint{}, Endpoint{Task: 2},
				fmt.Errorf("%w", mu.ErrNoRoute)),
			want: mu.ErrNoRoute,
		},
		{
			name: "retry timeout preserves the cause",
			err: fmt.Errorf("core: task %d not revived within %v: %w", 3, time.Second,
				fmt.Errorf("core: rendezvous send cancelled: %w", mu.ErrPeerDead)),
			want: mu.ErrPeerDead,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !errors.Is(tc.err, tc.want) {
				t.Fatalf("errors.Is lost the root through wrapping:\n  %v\nwant %v", tc.err, tc.want)
			}
			for _, other := range roots {
				if other == tc.want {
					continue
				}
				// ErrPeerDead/ErrEpochChanged are distinct sentinels; no
				// chain may match a root it does not contain.
				if errors.Is(tc.err, other) {
					t.Fatalf("chain for %v also matches unrelated %v", tc.want, other)
				}
			}
		})
	}
}

// TestCollectiveDeathSurfacesTypedError runs a real collective across a
// real crash: a fault plan kills node 1 mid-allreduce-loop, and the
// survivor must see the failure as a typed error classified by
// errors.Is — not by message text — however many layers wrapped it.
func TestCollectiveDeathSurfacesTypedError(t *testing.T) {
	dims := torus.Dims{2, 1, 1, 1, 1}
	plan, err := fault.ParsePlan("crash@pkt=200,node=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(dims); err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{
		Dims: dims, PPN: 1,
		Faults:            &plan,
		FaultSeed:         42,
		HeartbeatInterval: 200 * time.Microsecond,
		PhiThreshold:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	var typed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			cl, err := NewClient(m, p, "typederr")
			if err != nil {
				panic(err)
			}
			ctxs, err := cl.CreateContexts(1)
			if err != nil {
				panic(err)
			}
			tasks := []int{0, 1}
			g, err := cl.CreateGeometry(ctxs[0], 1, tasks)
			if err != nil {
				panic(err)
			}
			send := make([]byte, 8)
			recv := make([]byte, 8)
			for step := 0; step < 400; step++ {
				if m.Crashed(p.TaskRank()) {
					return
				}
				binary.LittleEndian.PutUint64(send, uint64(step))
				if err := g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64); err != nil {
					if !Recoverable(err) {
						panic(fmt.Sprintf("rank %d: failure not classified by errors.Is: %v", p.TaskRank(), err))
					}
					typed.Add(1)
					return
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish: survivor hung instead of failing typed")
	}
	if typed.Load() == 0 {
		t.Fatal("survivor never observed a typed failure from the collective")
	}
}
