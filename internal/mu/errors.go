package mu

import (
	"errors"

	"pamigo/internal/health"
	"pamigo/internal/lockless"
)

// Typed fabric errors. Send paths wrap these with %w so callers can
// classify failures with errors.Is instead of matching message text.
var (
	// ErrNoSuchContext means no reception FIFO is registered for the
	// destination endpoint.
	ErrNoSuchContext = errors.New("mu: no reception FIFO registered for endpoint")
	// ErrNoSuchMemregion means an RDMA operation named a memregion the
	// target task never registered.
	ErrNoSuchMemregion = errors.New("mu: memregion not registered")
	// ErrMemregionBounds means an RDMA operation overruns the registered
	// memregion.
	ErrMemregionBounds = errors.New("mu: access overruns memregion")
	// ErrNoInjFIFO means the node's injection-FIFO pool is exhausted.
	ErrNoInjFIFO = errors.New("mu: out of injection FIFOs")
	// ErrNoRecFIFO means the node's reception-FIFO pool is exhausted.
	ErrNoRecFIFO = errors.New("mu: out of reception FIFOs")
	// ErrNoRoute means failed links partition the torus between source
	// and destination: no route-around exists.
	ErrNoRoute = errors.New("mu: no route to destination (failed links partition the torus)")
	// ErrFabricClosed means the fabric was shut down while an operation
	// was in flight.
	ErrFabricClosed = errors.New("mu: fabric closed")
	// ErrCrossProcessRDMA means an RDMA operation named a task hosted by
	// another OS process: memregions are process memory, so puts and
	// remote gets cannot cross the wire transport. Senders use eager
	// memory-FIFO messages between processes instead.
	ErrCrossProcessRDMA = errors.New("mu: RDMA cannot reach a task in another process")
	// ErrTooLarge means a message cannot be described by the packet's
	// narrow header: 4 GiB or more of payload or metadata, or an origin
	// outside 32-bit task / 16-bit context space. Refused at injection.
	ErrTooLarge = errors.New("mu: message exceeds the packet header's field widths")
)

// Membership and backpressure errors re-exported from the layers that
// own them, so mu callers can errors.Is against mu's own vocabulary.
var (
	// ErrPeerDead means the destination task's node has been confirmed
	// dead; the operation will never complete.
	ErrPeerDead = health.ErrPeerDead
	// ErrEpochChanged means cluster membership changed mid-operation.
	ErrEpochChanged = health.ErrEpochChanged
	// ErrBackpressure means a reception FIFO refused delivery because its
	// overflow reached cap (the consumer has fallen hopelessly behind).
	ErrBackpressure = lockless.ErrBackpressure
)
