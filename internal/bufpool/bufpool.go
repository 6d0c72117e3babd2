package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pamigo/internal/l2atomic"
	"pamigo/internal/telemetry"
)

// Size classes, in bytes. The 512-byte class matches mu.MaxPayload, so
// every torus packet payload is served from one class; the small classes
// serve header metadata (MPI envelopes, RTS blobs, acks); the large ones
// serve eager reassembly buffers up to the 1 MiB the throughput
// workloads move. Buffers beyond the last class are not pooled.
var classSizes = [...]int{64, 512, 4 << 10, 64 << 10, 1 << 20}

// class is one size-classed slab pool. Get and Release each write one
// counter, the buffer's class's gets or puts; the package totals are
// folded from them when read. The counters are cache-line padded, so
// neighboring classes never false-share.
type class struct {
	size int
	pool sync.Pool

	gets   *telemetry.Counter
	puts   *telemetry.Counter
	misses *telemetry.Counter
}

// Buf is one reference-counted buffer drawn from a slab pool. The zero
// value is not usable; obtain buffers with Get.
type Buf struct {
	data []byte
	n    int
	cls  *class // nil for oversize buffers (not pooled)
	refs atomic.Int32
}

// Bytes returns the buffer's payload view: length as requested from Get,
// backed by the class-sized slab. Valid until the last Release.
func (b *Buf) Bytes() []byte {
	debugCheckUsable(b)
	return b.data[:b.n]
}

// Cap returns the slab capacity backing the buffer.
func (b *Buf) Cap() int { return cap(b.data) }

// Retain adds a reference. Every layer that stores the buffer beyond its
// current call frame must Retain before storing.
func (b *Buf) Retain() { b.RetainN(1) }

// RetainN adds n references in one atomic add: a layer that hands the
// buffer to n holders at once pays one read-modify-write, not n.
func (b *Buf) RetainN(n int32) {
	if b == nil {
		return
	}
	if b.refs.Add(n) <= n {
		debugViolation(b, "Retain of a released buffer")
		panic("bufpool: Retain of a released buffer")
	}
}

// Release drops one reference; the last release returns the slab to its
// pool. Releasing more times than retained panics — a double release
// would hand the same slab to two owners.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	r := b.refs.Add(-1)
	if r > 0 {
		return
	}
	if r < 0 {
		debugViolation(b, "double Release")
		panic("bufpool: Release of a released buffer")
	}
	if b.cls == nil {
		unpooled.puts.Inc()
		return // oversize: let the GC take it
	}
	if debugQuarantine(b) {
		return // bufpooldebug: never repool, so stale handles are caught
	}
	b.cls.puts.Inc()
	b.cls.pool.Put(b)
}

// Refs reports the current reference count (diagnostics and tests).
func (b *Buf) Refs() int32 { return b.refs.Load() }

var (
	reg = telemetry.NewRegistry("bufpool")

	// unpooled counts the buffers beyond the largest class, which bypass
	// the pools (allocated fresh, dropped on release): its gets are the
	// oversize counter, its puts the drops.
	unpooled = class{gets: reg.Counter("oversize"), puts: new(telemetry.Counter)}

	classes [len(classSizes)]*class

	// liveHWM is the peak of the folded live count, ratcheted wherever
	// the count is read (Live, and so every snapshot).
	liveHWM l2atomic.Counter
)

func init() {
	for i, sz := range classSizes {
		c := &class{
			size:   sz,
			gets:   reg.Counter(fmt.Sprintf("class%d_gets", sz)),
			puts:   reg.Counter(fmt.Sprintf("class%d_puts", sz)),
			misses: reg.Counter(fmt.Sprintf("class%d_misses", sz)),
		}
		sz := sz
		c.pool.New = func() any {
			c.misses.Inc()
			return &Buf{data: make([]byte, sz), cls: c}
		}
		classes[i] = c
	}
	reg.CounterFunc("gets", gets)
	reg.CounterFunc("misses", Misses)
	reg.GaugeFunc("live", Live)
}

// Telemetry returns the package's counter registry; the machine layer
// adopts it into the job-wide tree. The pools — and therefore these
// instruments — are process-global.
func Telemetry() *telemetry.Registry { return reg }

// Live returns the number of buffers currently checked out and the peak
// (the bufpool.live gauge): Gets minus Releases that returned a slab,
// folded over the classes and the oversize count, less the slabs the
// bufpooldebug quarantine kept. Exact once Get and Release callers are
// quiescent; the peak is sampled at each call and each snapshot.
func Live() (cur, highWater int64) {
	// Each class's puts are read just before its gets, so a concurrent
	// Get+Release pair can read high for a moment, never negative.
	cur = -debugQuarantined()
	for _, c := range classes {
		cur += c.outstanding()
	}
	cur += unpooled.outstanding()
	liveHWM.StoreMax(cur)
	return cur, liveHWM.Load()
}

// outstanding is the class's Gets not yet matched by a Release that
// returned the slab.
func (c *class) outstanding() int64 {
	puts := c.puts.Load()
	return c.gets.Load() - puts
}

// gets is the number of Get calls, folded from the per-class counts.
func gets() int64 {
	n := unpooled.gets.Load()
	for _, c := range classes {
		n += c.gets.Load()
	}
	return n
}

// Misses returns how many Gets required a fresh allocation.
func Misses() int64 {
	var n int64
	for _, c := range classes {
		n += c.misses.Load()
	}
	return n
}

// Get returns a buffer whose Bytes() has length n, drawn from the
// smallest size class that fits, with reference count 1. Requests beyond
// the largest class are served by the regular allocator and are not
// pooled on Release.
func Get(n int) *Buf {
	for _, c := range classes {
		if n <= c.size {
			c.gets.Inc()
			b := c.pool.Get().(*Buf)
			b.n = n
			b.refs.Store(1)
			return b
		}
	}
	unpooled.gets.Inc()
	b := &Buf{data: make([]byte, n), n: n}
	b.refs.Store(1)
	return b
}

// GetCopy returns a pooled buffer holding a copy of src (refs = 1).
// It is the idiom for taking ownership of caller-owned bytes at an
// injection boundary.
func GetCopy(src []byte) *Buf {
	b := Get(len(src))
	copy(b.data, src)
	return b
}
