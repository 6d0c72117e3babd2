package scenario

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"pamigo/internal/fault"
	"pamigo/internal/mu"
)

// barrier is a reusable barrier of this process's tasks over the
// out-of-band control network (the real machine's service network, which
// does not ride the torus). Await fails instead of blocking forever once
// moved reports that the membership epoch left the one the generation
// started at: a dead task is never going to arrive. Earlier deaths are
// history — a post-recovery generation starts at a nonzero epoch.
type barrier struct {
	parties int
	seed    int64
	moved   func() bool

	mu      sync.Mutex
	arrived int
	ch      chan struct{}
}

func newBarrier(parties int, seed int64, moved func() bool) *barrier {
	return &barrier{parties: parties, seed: seed, moved: moved, ch: make(chan struct{})}
}

func (b *barrier) Await() error {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.parties {
		close(b.ch)
		b.arrived = 0
		b.ch = make(chan struct{})
		b.mu.Unlock()
		return nil
	}
	ch := b.ch
	ord := int64(b.arrived)
	b.mu.Unlock()
	// The epoch polling cadence comes from the fault-plan seed, salted by
	// arrival order: deterministic for a given plan, and the parties never
	// poll in lockstep (a wall-clock cadence flaked when synchronized polls
	// all sampled the epoch just before the flip).
	for step := int64(1); ; step++ {
		select {
		case <-ch:
			return nil
		case <-time.After(fault.Jitter(b.seed, ord<<32|step, 100*time.Microsecond)):
			if b.moved() {
				return fmt.Errorf("membership changed at the control barrier: %w", mu.ErrEpochChanged)
			}
		}
	}
}

// encodeWords is the application state codec — a checkpoint's payload, a
// buddy replica's, and the allreduce's buffers on the wire: little-endian
// 64-bit words. Which round the state belongs to travels beside it, as
// the recovery.Snapshot's version.
func encodeWords(words []uint64) []byte {
	b := make([]byte, len(words)*8)
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	return b
}

func decodeWords(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("malformed state blob: %d bytes is not a whole number of 64-bit words", len(b))
	}
	words := make([]uint64, len(b)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return words, nil
}

// foldWords reduces a task's state to the one word its digest line
// prints; a one-word state is its own digest.
func foldWords(words []uint64) uint64 {
	var h uint64
	for _, w := range words {
		h = h*1099511628211 ^ w
	}
	return h
}
