package integration

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"pamigo/internal/abort"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// TestStallSentinelAbortsPermanentStall injects the failure no detector
// catches: a peer that stays alive but never joins the collective. With
// no heartbeat monitor armed (nothing dies), the survivor's network wait
// would block forever; the armed stall sentinel must convert the park
// into a typed abort — errors.Is(err, abort.ErrAborted) with a deadline
// cause — well within the escalation deadline plus scan slack. The abort
// is terminal and latched once: a second collective on the same geometry
// fails fast with the same cause, without parking for a second escalation.
func TestStallSentinelAbortsPermanentStall(t *testing.T) {
	const stallDeadline = 200 * time.Millisecond
	dims := torus.Dims{2, 1, 1, 1, 1}
	m, err := machine.New(machine.Config{
		Dims: dims, PPN: 1,
		StallDeadline: stallDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()

	var mu_ sync.Mutex
	var stallErr, againErr error
	var stallTook, againTook time.Duration
	var escBefore, escAfter int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *cnk.Process) {
			cl, err := core.NewClient(m, p, "stall")
			if err != nil {
				panic(err)
			}
			ctxs, err := cl.CreateContexts(1)
			if err != nil {
				panic(err)
			}
			g, err := cl.WorldGeometry(ctxs[0])
			if err != nil {
				panic(err)
			}
			if !g.Optimized() {
				panic("world geometry did not take the classroute")
			}
			if p.TaskRank() == 1 {
				// The stalled peer: alive, reachable, and absent — it simply
				// never enters the collective.
				return
			}
			send := make([]byte, 8)
			recv := make([]byte, 8)
			binary.LittleEndian.PutUint64(send, 42)
			mu_.Lock()
			defer mu_.Unlock()
			start := time.Now()
			stallErr = g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64)
			stallTook = time.Since(start)
			escBefore = machineCounter(t, m, "sentinel.escalations")
			start = time.Now()
			againErr = g.Allreduce(send, recv, collnet.OpAdd, collnet.Uint64)
			againTook = time.Since(start)
			escAfter = machineCounter(t, m, "sentinel.escalations")
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivor hung: the sentinel never escalated the stall")
	}

	if stallErr == nil {
		t.Fatal("the stalled collective completed; it must fail typed")
	}
	if !errors.Is(stallErr, abort.ErrAborted) {
		t.Fatalf("stall surfaced as %v, want an ErrAborted wrap", stallErr)
	}
	var c *abort.Cause
	if !errors.As(stallErr, &c) || c.Kind != abort.KindDeadline {
		t.Fatalf("stall cause = %v, want KindDeadline", stallErr)
	}
	// Deadline + scanner period + generous scheduling slack; far below
	// the old behavior (forever).
	if limit := 10 * stallDeadline; stallTook > limit {
		t.Fatalf("escalation took %v, want under %v", stallTook, limit)
	}
	var c2 *abort.Cause
	if !errors.As(againErr, &c2) || c2 != c {
		t.Fatalf("second collective after the abort returned %v, want the same cause %v", againErr, c)
	}
	if againTook >= stallDeadline {
		t.Fatalf("second collective took %v, want a fail-fast return under the %v deadline", againTook, stallDeadline)
	}
	if escAfter != escBefore {
		t.Fatalf("sentinel escalations went %d -> %d across the second collective; nothing may re-park", escBefore, escAfter)
	}
	if escBefore == 0 {
		t.Fatal("sentinel.escalations is 0 after a deadline abort")
	}
	if st := m.Sentinel().Table(); len(st) == 0 {
		t.Fatal("sentinel table is empty; wait sites never registered")
	}
}
