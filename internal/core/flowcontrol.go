package core

import "errors"

// Sender-side flow control (overload protection for the data plane).
//
// The reliable-delivery layer holds a sender while a full reception FIFO
// refuses it, but it is armed only when faults are installed; this file
// is the layer above it, always on, and protocol-level rather than
// packet-level: an unexpected-message budget. Every client bounds how
// deep a destination's inbound queue may grow before its senders stop
// committing eager payloads to it. At half the budget Send (ModeAuto)
// falls back to rendezvous — the payload stays in the sender's memory
// until the receiver pulls it, so receiver-side memory stays bounded —
// and at the full budget SendImmediate, which has no rendezvous to fall
// back to, fails fast with ErrThrottled (the PAMI_EAGAIN idiom: advance
// your own context and retry) while Send parks in the deferred queue.
//
// Pressure is read from the destination's actual inbound queue (the
// reception FIFO off node, the shared-memory queue on node), on every
// send, rather than tracked with explicit credit messages or inferred
// from past refusals: in this model senders can read the receiver's
// occupancy as cheaply as hardware reads its FIFO free space, and the
// figure is exact and per destination, so congestion at one destination
// never changes the protocol toward another.

// ErrThrottled reports that a send was refused because the destination's
// inbound queue is over the client's unexpected-message budget. The
// overload is transient by construction — the receiver is alive, just
// behind — so callers advance their own context (draining acks and
// handlers that free the receiver) and retry.
var ErrThrottled = errors.New("core: destination over the unexpected-message budget")

const (
	// DefaultUnexpectedBudget is the per-destination inbound-queue depth,
	// in messages, at which senders stop committing eager traffic.
	// Generous: a healthy receiver drains its queue within one advance,
	// so thousands of parked messages already signal a many-to-one storm.
	DefaultUnexpectedBudget = 16384
)

// destPressure reads the destination endpoint's inbound-queue occupancy
// through whichever transport a send would take. ok is false when the
// destination is unknown (bootstrap races resolve on the send itself,
// which has the authoritative error). It resolves through the context's
// destination cache — sends probe pressure per message, so this sits on
// the hot path with transportSend and shares its owner-thread-only
// contract.
func (ctx *Context) destPressure(dst Endpoint) (occ int64, ok bool) {
	e := ctx.destResolve(dst)
	if e.sameNode {
		if e.dev == nil {
			return 0, false
		}
		return e.dev.Pressure(), true
	}
	if e.fifo == nil {
		return 0, false
	}
	occ, _ = e.fifo.Occupancy()
	return occ, true
}

// destCongested reports whether eager traffic to dst should degrade to
// rendezvous: the destination's inbound queue has reached half the
// client's unexpected-message budget. The half is deliberate — it puts
// graceful degradation (rendezvous keeps completing once matched, the
// payload just stays at the sender) well before SendImmediate's hard
// refusal at the full budget, and far above any backlog a healthy
// receiver accumulates. Mere array spill is NOT congestion: programs
// legitimately flood thousands of small unexpected messages and drain
// them later, and an eager send must still complete locally then.
func (ctx *Context) destCongested(dst Endpoint) bool {
	budget := int64(ctx.client.UnexpectedBudget)
	if budget <= 0 {
		return false
	}
	occ, ok := ctx.destPressure(dst)
	return ok && occ >= budget/2
}

// overBudget reports whether the destination sits at or over the full
// unexpected-message budget, never at mere array spill. It is
// SendImmediate's refusal, which keeps the immediate path usable under
// ordinary bursts, and the point where Send stops emitting even
// rendezvous RTS packets and parks the send in the deferred queue, so
// the destination's inbound packet queue itself stays bounded by the
// budget.
func (ctx *Context) overBudget(dst Endpoint) (occ, budget int64, over bool) {
	budget = int64(ctx.client.UnexpectedBudget)
	if budget <= 0 {
		return 0, 0, false
	}
	occ, ok := ctx.destPressure(dst)
	return occ, budget, ok && occ >= budget
}
