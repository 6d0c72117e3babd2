package integration

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"pamigo/internal/cnk"
	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mu"
	"pamigo/internal/torus"
)

// TestOverloadFlood drives a sustained many-to-one eager flood, the
// overload scenario of paper §III.E: senders blast tiny payloads at one
// victim endpoint under a deliberately small unexpected-message budget,
// and the victim verifies every payload byte-for-byte. Each case names
// its victim; a drop/dup/corrupt storm riding along, or the zero fault
// plan installed before traffic, arms the reliable layer underneath the
// flood, proving the two protections compose. Every payload must
// arrive, the victim's queue high-water mark must stay near the budget
// instead of absorbing the whole flood, and the run leaks no goroutines
// (bounded).
func TestOverloadFlood(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		dims                      torus.Dims
		plan                      string
		seed                      int64
		victim                    int
		reliable                  bool // install the zero fault plan before traffic
		senders, messages, budget int
		// slack is each sender's allowance over the budget in the victim's
		// queue high-water mark.
		slack int
		// degrades requires the budget to have throttled an immediate send
		// and degraded an eager one to rendezvous.
		degrades bool
	}{
		// Gate checks race with in-flight deliveries, so allow one message
		// of overshoot per concurrent sender — but nothing near the
		// un-budgeted flood depth.
		{name: "bounded", dims: torus.Dims{2, 2, 2, 2, 1}, seed: 1,
			senders: 15, messages: 200, budget: 64, slack: 1, degrades: true},
		{name: "32 senders", dims: torus.Dims{3, 3, 2, 2, 2}, seed: 1, reliable: true,
			senders: 32, messages: 300, budget: 64, slack: 1, degrades: true},
		// Under the storm a message's resends and refusal waits happen in
		// the reliable link, after the sender-side budget gate has passed
		// it, so the gate's view of the queue is older than under no
		// faults; 64 packets per sender bounds that slack.
		{name: "storm", dims: torus.Dims{2, 2, 2, 1, 1}, plan: "drop=0.10,dup=0.05,corrupt=0.05", seed: 7, victim: 2,
			senders: 7, messages: 120, budget: 48, slack: 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.Config{Dims: tc.dims, PPN: 1, FaultSeed: tc.seed}
			if tc.plan != "" {
				cfg.Faults = mustPlan(t, tc.plan, tc.dims)
			}
			var inj *fault.Injector
			if tc.reliable {
				var err error
				if inj, err = fault.NewInjector(tc.dims, fault.Plan{}, tc.seed); err != nil {
					t.Fatal(err)
				}
			}
			var rep floodReport
			m := runMachineJob(t, "flood", chaosDeadline, cfg, func(m *machine.Machine) {
				if inj != nil {
					m.Fabric().InstallFaults(inj)
				}
				rep = flood(t, m, core.Endpoint{Task: tc.victim}, tc.senders, tc.messages, tc.budget)
			})
			t.Logf("%d senders x %d msgs, budget %d: %+v", tc.senders, tc.messages, tc.budget, rep)
			if armed := inj != nil || tc.plan != ""; armed && machineCounter(t, m, "mu.reliable.flows") == 0 {
				t.Error("the reliable layer carried none of the flood")
			}
			if rep.delivered != int64(tc.senders*tc.messages) || rep.corrupt != 0 {
				t.Fatalf("integrity: %+v", rep)
			}
			if tc.degrades && rep.throttled == 0 {
				t.Errorf("budget %d never throttled an immediate send", tc.budget)
			}
			if tc.degrades && rep.fallbacks == 0 {
				t.Errorf("budget %d never degraded an eager send to rendezvous", tc.budget)
			}
			if max := int64(tc.budget + tc.senders*tc.slack); rep.queueHWM > max {
				t.Errorf("victim queue HWM %d exceeds budget %d + %d senders x %d", rep.queueHWM, tc.budget, tc.senders, tc.slack)
			}
			// The mark is sampled, not kept per delivery; the pressure probe
			// that saw the budget reached must have ratcheted it.
			if rep.throttled > 0 && rep.queueHWM < int64(tc.budget) {
				t.Errorf("senders were throttled %d times but the victim queue HWM is %d, below budget %d", rep.throttled, rep.queueHWM, tc.budget)
			}
		})
	}
}

// floodReport is what one flood did to its victim.
type floodReport struct {
	delivered int64 // well-formed payloads the victim absorbed
	corrupt   int64 // payload-pattern mismatches
	throttled int64 // ErrThrottled refusals the senders retried through
	fallbacks int64 // eager sends degraded to rendezvous
	queueHWM  int64 // victim reception-FIFO occupancy high-water mark
}

// flood runs the overload workload on m, every client under the given
// unexpected-message budget: senders tasks other than the victim send it
// messages 8 B payloads each (sender id, sequence), alternating the two
// guarded paths — windowed Send (ModeAuto, so congestion degrades it to
// rendezvous) and SendImmediate retried through ErrThrottled.
func flood(t *testing.T, m *machine.Machine, victim core.Endpoint, senders, messages, budget int) floodReport {
	want := int64(senders) * int64(messages)
	var got, corrupt, throttled atomic.Int64
	// senderID maps world ranks onto 1..senders skipping the victim.
	senderID := func(task int) int {
		if task > victim.Task {
			return task
		}
		return task + 1
	}

	const dispatch = 1
	const window = 64
	m.Run(func(p *cnk.Process) {
		client, err := core.NewClient(m, p, "flood")
		if err != nil {
			t.Error(err)
			return
		}
		client.UnexpectedBudget = budget
		ctxs, err := client.CreateContexts(1)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := ctxs[0]
		ctx.RegisterDispatch(dispatch, func(_ *core.Context, d *core.Delivery) {
			check := func(payload []byte) {
				if len(payload) == 8 {
					sid := int(binary.LittleEndian.Uint32(payload[0:4]))
					seq := binary.LittleEndian.Uint32(payload[4:8])
					if sid >= 1 && sid <= senders && seq < uint32(messages) {
						got.Add(1)
						return
					}
				}
				corrupt.Add(1)
			}
			if d.IsRendezvous() {
				buf := make([]byte, d.Size)
				if err := d.Receive(buf, func() { check(buf) }); err != nil {
					t.Error(err)
				}
				return
			}
			check(d.Data)
		})
		g, err := client.WorldGeometry(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		g.Barrier()
		me := p.TaskRank()
		switch {
		case me == victim.Task:
			ctx.AdvanceUntil(func() bool {
				return got.Load()+corrupt.Load() >= want || t.Failed()
			})
		case senderID(me) <= senders:
			var outstanding atomic.Int64
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint32(payload[0:4], uint32(senderID(me)))
			for seq := 0; seq < messages && !t.Failed(); seq++ {
				binary.LittleEndian.PutUint32(payload[4:8], uint32(seq))
				if seq%4 == 3 {
					// The single-packet path has no fallback: spin through
					// ErrThrottled, advancing our own context between tries
					// (the PAMI_EAGAIN idiom).
					for {
						err := ctx.SendImmediate(victim, dispatch, nil, payload)
						if err == nil {
							break
						}
						if !errors.Is(err, core.ErrThrottled) {
							t.Error(err)
							return
						}
						throttled.Add(1)
						ctx.Advance(window)
						runtime.Gosched()
					}
					continue
				}
				for outstanding.Load() >= window {
					ctx.Advance(window)
					runtime.Gosched()
				}
				outstanding.Add(1)
				err := ctx.Send(core.SendParams{
					Dest:     victim,
					Dispatch: dispatch,
					Data:     append([]byte(nil), payload...),
					OnDone:   func() { outstanding.Add(-1) },
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
			ctx.AdvanceUntil(func() bool { return outstanding.Load() == 0 || t.Failed() })
		}
		g.Barrier()
	})

	rep := floodReport{delivered: got.Load(), corrupt: corrupt.Load(), throttled: throttled.Load()}
	if fifo, ok := m.Fabric().RecFIFOOf(mu.TaskAddr{Task: victim.Task, Ctx: victim.Ctx}); ok {
		_, rep.queueHWM = fifo.Occupancy()
	}
	counters, _ := m.Telemetry().Snapshot().Totals()
	rep.fallbacks = counters["eager_fallbacks"]
	return rep
}
