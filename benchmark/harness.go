package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/cnk"
	"pamigo/internal/core"
	"pamigo/internal/machine"
	"pamigo/internal/telemetry"
)

// account is the failure accounting of one process. It is shared by every
// instance the process runs (set-up repeats, warm-up, timed window) and by
// the deadline watchdog, which reads it from another goroutine.
type account struct {
	attempted atomic.Int64 // ops started, counted a batch at a time
	completed atomic.Int64 // ops of batches that ended
	failed    atomic.Int64

	mu     sync.Mutex
	notes  []string
	broken chan struct{} // closed by the first failure
	once   sync.Once
}

func newAccount() *account { return &account{broken: make(chan struct{})} }

// fail counts n failed ops and keeps the first few reasons.
func (a *account) fail(n int64, format string, args ...any) {
	a.failed.Add(n)
	a.mu.Lock()
	if len(a.notes) < 8 {
		a.notes = append(a.notes, fmt.Sprintf(format, args...))
	}
	a.mu.Unlock()
	a.once.Do(func() { close(a.broken) })
}

func (a *account) reasons() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.notes...)
}

// rankAbort is what a rank function panics with to leave the workload after
// it has already recorded its failure.
type rankAbort struct{}

// gate is a reusable barrier for the rank goroutines of one instance. The
// workloads use it, not a PAMI barrier, around the telemetry snapshots: a
// snapshot taken between two gates sees a machine no rank is driving.
type gate struct {
	mu    sync.Mutex
	n     int
	count int
	ch    chan struct{}
}

func newGate(n int) *gate { return &gate{n: n, ch: make(chan struct{})} }

func (g *gate) wait() {
	g.mu.Lock()
	g.count++
	if g.count == g.n {
		g.count = 0
		close(g.ch)
		g.ch = make(chan struct{})
		g.mu.Unlock()
		return
	}
	ch := g.ch
	g.mu.Unlock()
	<-ch
}

// env is one instance of one workload: a boot, a fixed-count warm-up and,
// when window > 0, a timed window. The leader rank drives it through
// stopNow/begin/sample/done/finish; every rank reports failures through it.
type env struct {
	w      *workload
	seed   int64
	window time.Duration // timed window; 0 makes a set-up-only instance
	warmup int           // warm-up batches
	div    int           // divides the ops of a batch (-quick)
	acct   *account
	traced bool

	start    time.Time // the workload's first call
	setup    time.Duration
	winStart time.Time
	elapsed  time.Duration
	batch    int       // batches started
	every    int       // sample calls per latency sample; 0 means 1
	calls    int       // sample calls since the last latency sample
	pending  int       // ops since the last latency sample
	last     time.Time // when the last latency sample ended
	lat      []float64 // µs per op, one per latency sample of the window
	ops      int64     // ops completed in the timed window
	total    int64     // ops of the whole instance, warm-up included
	control  int64     // control messages the drivers sent beside the ops

	throttled atomic.Int64 // ErrThrottled returns the drivers saw

	sync     *gate
	machines []*machine.Machine
	base     []telemetry.Snapshot // one per machine, before the first op
	end      []telemetry.Snapshot // one per machine, after the last op
	missBase int64
	missEnd  int64
	memBase  runtime.MemStats
	memEnd   runtime.MemStats

	trMu   sync.Mutex
	traces []*rankTrace
}

// maxSamples bounds the latency samples of one window; the slice is
// allocated up front so that recording a sample never allocates inside the
// window. The finest-grained workload takes about 150 000 samples a second.
const maxSamples = 1 << 21

func newEnv(w *workload, seed int64, window time.Duration, o options, acct *account, traced bool) *env {
	e := &env{w: w, seed: seed, window: window, warmup: o.warmup, div: o.div, acct: acct, traced: traced}
	if window > 0 {
		e.lat = make([]float64, 0, maxSamples)
	}
	return e
}

// boot starts the clock of the instance and boots one machine.
func (e *env) boot(cfg machine.Config) *machine.Machine {
	if e.start.IsZero() {
		e.start = time.Now()
	}
	m, err := machine.New(cfg)
	if err != nil {
		e.acct.fail(1, "%s: machine.New: %v", e.w.name, err)
		return nil
	}
	e.machines = append(e.machines, m)
	return m
}

// rank wraps a rank function so that a panic in it becomes failed ops
// instead of taking the process down without a result.
func (e *env) rank(fn func(p *cnk.Process)) func(p *cnk.Process) {
	return func(p *cnk.Process) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(rankAbort); !ok {
					e.acct.fail(1, "%s: rank %d panicked: %v", e.w.name, p.TaskRank(), r)
					os.Stderr.Write(debug.Stack())
				}
			}
		}()
		fn(p)
	}
}

// must records err as a failure and leaves the rank function.
func (e *env) must(err error, what string) {
	if err != nil {
		e.acct.fail(1, "%s: %s: %v", e.w.name, what, err)
		panic(rankAbort{})
	}
}

// check records a failed op when ok is false.
func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.acct.fail(1, "%s: "+format, append([]any{e.w.name}, args...)...)
	}
}

// pamiSetup is the set-up every core-level rank does: client, one context
// and the world geometry.
func (e *env) pamiSetup(m *machine.Machine, p *cnk.Process) (*core.Context, *core.Geometry) {
	client, err := core.NewClient(m, p, "benchmark")
	e.must(err, "NewClient")
	ctxs, err := client.CreateContexts(1)
	e.must(err, "CreateContexts")
	g, err := client.WorldGeometry(ctxs[0])
	e.must(err, "WorldGeometry")
	return ctxs[0], g
}

// quiesce runs fn on the leader while every other rank of the instance
// waits, so fn sees a machine at rest.
func (e *env) quiesce(leader bool, fn func()) {
	e.sync.wait()
	if leader {
		fn()
	}
	e.sync.wait()
}

func (e *env) snapBase() {
	for _, m := range e.machines {
		e.base = append(e.base, m.Telemetry().Snapshot())
	}
	e.missBase = bufpool.Misses()
}

func (e *env) snapEnd() {
	for _, m := range e.machines {
		e.end = append(e.end, m.Telemetry().Snapshot())
	}
	e.missEnd = bufpool.Misses()
}

// stopNow reports whether the leader has run its last batch: the warm-up is
// over and either there is no timed window or its time is up.
func (e *env) stopNow() bool {
	if e.batch < e.warmup {
		return false
	}
	if e.window == 0 {
		return true
	}
	return e.batch > e.warmup && time.Since(e.winStart) >= e.window
}

// begin opens a batch of ops operations. The batch after the last warm-up
// batch is the first timed one: set-up ends and the window starts there.
func (e *env) begin(ops int) {
	if e.batch == e.warmup {
		e.setup = time.Since(e.start)
		runtime.ReadMemStats(&e.memBase)
		e.winStart = time.Now()
		e.last, e.calls, e.pending = e.winStart, 0, 0
	}
	e.batch++
	e.acct.attempted.Add(int64(ops))
}

// sample notes that n more ops have completed and, on every e.every-th
// call, takes one latency sample over the ops since the last one. It costs
// one clock read, so a driver may call it every few ops of a batch; the
// batch is only the unit of warm-up, accounting and the stop check.
func (e *env) sample(n int) {
	e.pending += n
	if e.calls++; e.calls < e.every || e.batch <= e.warmup {
		return
	}
	now := time.Now()
	if len(e.lat) < cap(e.lat) {
		e.lat = append(e.lat, float64(now.Sub(e.last).Nanoseconds())/1e3/float64(e.pending))
	}
	e.last, e.calls, e.pending = now, 0, 0
}

// done closes the batch of ops operations that begin opened.
func (e *env) done(ops int) {
	e.acct.completed.Add(int64(ops))
	e.total += int64(ops)
	if e.batch > e.warmup {
		e.ops += int64(ops)
	}
}

// finish closes the window (or, without one, the set-up).
func (e *env) finish() {
	if e.window == 0 {
		e.setup = time.Since(e.start)
		return
	}
	e.elapsed = time.Since(e.winStart)
	runtime.ReadMemStats(&e.memEnd)
}

// tracer hands a rank its span ring, or nil on an untraced instance.
func (e *env) tracer(rank int) *rankTrace {
	if !e.traced {
		return nil
	}
	t := newRankTrace(rank)
	e.trMu.Lock()
	e.traces = append(e.traces, t)
	e.trMu.Unlock()
	return t
}

// groupTotals sums one telemetry group over the instance's machines.
func groupTotals(snaps []telemetry.Snapshot, group string) (map[string]int64, map[string]telemetry.GaugeTotal) {
	counters := make(map[string]int64)
	gauges := make(map[string]telemetry.GaugeTotal)
	for _, s := range snaps {
		g, ok := s.Group(group)
		if !ok {
			continue
		}
		c, gg := g.Totals()
		for k, v := range c {
			counters[k] += v
		}
		for k, v := range gg {
			t := gauges[k]
			t.Value += v.Value
			if v.HighWater > t.HighWater {
				t.HighWater = v.HighWater
			}
			gauges[k] = t
		}
	}
	return counters, gauges
}

// delta is the growth of one group's counter between the two snapshots.
func (e *env) delta(group, counter string) int64 {
	b, _ := groupTotals(e.base, group)
	a, _ := groupTotals(e.end, group)
	return a[counter] - b[counter]
}

func (e *env) gauge(group, name string) telemetry.GaugeTotal {
	_, g := groupTotals(e.end, group)
	return g[name]
}

// checkAtRest is the satellite check on a finished instance: nothing is
// left in a queue, and on a lossless memory-FIFO workload every packet put
// on the torus was received.
func (e *env) checkAtRest(packetsBalance bool) {
	if packetsBalance {
		sent, recv := e.delta("mu", "packets"), e.delta("mu", "packets_received")
		e.check(sent == recv, "packets %d != packets_received %d", sent, recv)
	}
	for _, g := range [][2]string{{"mu", "occupancy"}, {"core", "rdv_inflight"}, {"mpi", "posted_depth"}, {"mpi", "unexpected_depth"}} {
		v := e.gauge(g[0], g[1]).Value
		e.check(v == 0, "gauge %s.%s is %d at rest, want 0", g[0], g[1], v)
	}
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance spread is defined on.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		rem := k * (n + 1) % 4
		if j < 1 {
			j, rem = 1, 0
		}
		if j > n-1 {
			j, rem = n-1, 4
		}
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(3)
}
