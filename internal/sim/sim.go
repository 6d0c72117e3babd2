// Package sim is the one discrete-event engine of the repository: a
// sequential event heap plus first-come-first-served resources, which the
// packet-level torus model (internal/netsim) runs on.
//
// The functional PAMI runtime in this repository executes for real on Go
// goroutines; sim is only used where the paper reports *hardware timing* at
// scales we cannot run (2048 nodes, 128K threads). Events carry simulated
// time in picoseconds so that BG/Q cycle quantities (0.625 ns at 1.6 GHz)
// are exactly representable.
package sim

import (
	"fmt"
)

// Time is simulated time in picoseconds.
type Time int64

// Convenient units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns the time as nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time in microseconds, the paper's usual unit.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

type event struct {
	at  Time
	seq int64 // tie-break: events at equal times fire in schedule order
	fn  func()
}

// eventHeap is a binary min-heap stored inline in a slice. The heap is
// hand-rolled rather than built on container/heap: that interface boxes
// every Push argument and Pop result into an `any`, which costs one
// allocation per scheduled event. Models schedule millions of events, so
// the engine keeps the backing array across Run calls and moves events
// by value only.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Engine is a single-threaded discrete-event executor. The zero value is a
// ready-to-use engine at time 0.
type Engine struct {
	now   Time
	seq   int64
	queue eventHeap
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at the given absolute simulated time. Scheduling in the
// past panics: it would silently corrupt causality in a model. Apart from
// backing-array growth, scheduling allocates nothing.
//
// Tie-breaking is part of the engine's contract: events at equal times
// fire in Schedule order. Every event carries a monotone sequence number
// and the heap orders by (time, seq), so same-time ordering is total and
// deterministic — never dependent on heap insertion shape. A model's
// output is a function of that order (two packets reaching one link at
// the same picosecond are served in it), so the contract is what makes a
// simulation reproducible bit for bit; TestEngineTieBreakIsScheduleOrder
// is its regression test.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue = append(e.queue, event{at: at, seq: e.seq, fn: fn})
	e.queue.siftUp(len(e.queue) - 1)
}

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for len(e.queue) > 0 {
		e.step()
	}
	return e.now
}

func (e *Engine) step() {
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = event{} // drop the func reference for GC
	e.queue = e.queue[:n]
	if n > 1 {
		e.queue.siftDown(0)
	}
	e.now = ev.at
	ev.fn()
}

// Resource models a serially shared unit — a torus link, a DMA engine, a
// memory port — with first-come-first-served occupancy. Reserve books a
// service interval and returns when the request starts and completes;
// requests queue behind earlier reservations.
type Resource struct {
	freeAt Time
	busy   Time // total busy time, for utilization reporting
}

// Reserve books service time starting no earlier than at.
func (r *Resource) Reserve(at, service Time) (start, done Time) {
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	done = start + service
	r.freeAt = done
	r.busy += service
	return start, done
}

// Utilization returns busy time as a fraction of the elapsed horizon.
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busy) / float64(horizon)
}

// BytesTime converts a byte count moved at rate bytes/second into a
// simulated duration, rounding up to whole picoseconds.
func BytesTime(bytes int64, bytesPerSecond float64) Time {
	if bytes <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	ps := float64(bytes) / bytesPerSecond * float64(Second)
	t := Time(ps)
	if float64(t) < ps {
		t++
	}
	return t
}
