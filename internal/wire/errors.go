package wire

import (
	"errors"

	"pamigo/internal/health"
	"pamigo/internal/lockless"
)

// Typed transport errors. Dial, handshake, and send paths wrap these
// with %w plus the peer address and task-range context, so callers can
// classify failures with errors.Is instead of matching message text —
// the same convention mu and core use.
var (
	// ErrDialTimeout means a dial attempt to a peer's listen address did
	// not complete within Options.DialTimeout. Dials are retried with
	// capped exponential backoff; the error surfaces from WaitComplete
	// when the partition never assembles.
	ErrDialTimeout = errors.New("wire: dial timed out")

	// ErrHandshakeMismatch means the join handshake disagreed on the
	// protocol version, torus shape, PPN or task range — the two
	// processes are not describing the same partition. Terminal: the
	// dialer stops retrying, because no amount of backoff repairs a
	// mis-launched process.
	ErrHandshakeMismatch = errors.New("wire: join handshake mismatch")

	// ErrPartitionIDMismatch means the peer is running a different
	// partition (its -partition flag differs). Terminal, like
	// ErrHandshakeMismatch, but distinguished because it is the one
	// operators hit by crossing the streams of two concurrent jobs.
	ErrPartitionIDMismatch = errors.New("wire: partition ID mismatch")

	// ErrNoPeer means no connected process hosts the destination task:
	// the partition has not finished assembling (WaitComplete gates
	// traffic) or the peer's process was never launched.
	ErrNoPeer = errors.New("wire: no peer hosts task")

	// ErrClosed means the transport was shut down.
	ErrClosed = errors.New("wire: transport closed")

	// ErrFrameTooLarge means a frame header claimed a length beyond
	// MaxFrame. The decoder refuses it before allocating, so a corrupt
	// or hostile length prefix can never balloon memory.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")

	// ErrFrameCorrupt means a frame failed its CRC-32C or structural
	// decode. The connection carrying it is torn down and re-established;
	// the resend window replays anything unacknowledged, exactly once.
	ErrFrameCorrupt = errors.New("wire: corrupt frame")

	// ErrShortFrame means the buffer ends before the frame does — a
	// truncated read, not an error on a live connection (the reader
	// blocks for the rest).
	ErrShortFrame = errors.New("wire: truncated frame")

	// ErrStaleCursor means the peer's welcome advertised a receive
	// cursor ahead of our send cursor: the peer is still holding the
	// sequence state of a PREVIOUS incarnation of this process. For
	// incarnation 0 that is a genuine identity collision and terminal;
	// for a respawned process (incarnation > 0) it is the expected
	// transient while the peer's phi detector confirms the old
	// incarnation dead, and the dialer retries until the rejoin path
	// admits it.
	ErrStaleCursor = errors.New("wire: peer holds a previous incarnation's cursor")
)

// Membership and backpressure errors re-exported from the layers that
// own them, so wire callers can errors.Is against wire's vocabulary.
var (
	// ErrPeerDead means the peer process hosting the destination has
	// been confirmed dead by the phi-accrual detector; sends fail fast
	// instead of queueing for a process that will never drain them.
	ErrPeerDead = health.ErrPeerDead

	// ErrBackpressure means the peer's bounded outbound queue is full —
	// the peer is alive but not draining (or the link is down and the
	// resend window is at cap). The transport never buffers unboundedly;
	// callers advance their contexts and retry.
	ErrBackpressure = lockless.ErrBackpressure
)
