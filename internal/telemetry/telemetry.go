// Package telemetry is the messaging stack's counter subsystem — the
// software analogue of the Blue Gene/Q universal performance counter
// (UPC) unit the paper's evaluation (§V) is built on.
// Message rates, FIFO occupancies and eager/rendezvous crossovers are
// observed there through hardware counters; this package gives every
// layer of the reproduction the same facility so experiments print
// measured counters instead of re-deriving them ad hoc.
//
// The design follows the L2-atomic discipline of internal/l2atomic:
//
//   - a Counter is one padded atomic word with, by policy, one writer:
//     the object that owns the event. An update is one uncontended atomic
//     add — no locks, no allocation — cheap enough to live on the eager
//     send path;
//   - a Gauge tracks a current level plus its high-water mark (queue
//     depth, messages in flight) with two padded words; its high-water
//     mark is exact per update;
//   - a count or level that a shared structure already keeps (a queue's
//     ticket counter, a sum of per-owner counts) is not mirrored by a
//     second counter every producer bumps: the owner registers it with
//     CounterFunc or GaugeFunc and the registry evaluates it at snapshot
//     time. FIFO occupancy, packets received and the buffer pool's live
//     count are read this way;
//   - a Registry names counters and gauges and arranges them in groups
//     (one per context, FIFO, rank...); get-or-create runs under a lock
//     but only at setup time — hot paths hold direct pointers;
//   - Snapshot walks the registry into an immutable tree that renders as
//     JSON or a text table, and Totals aggregates leaf names across
//     groups (counters sum; gauge high-water marks take the max), which
//     is how "packets received" over 272 reception FIFOs becomes one row.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count: one atomic word,
// padded to its own cache line so two counters never share one. The zero
// value is ready to use.
//
// A Counter is meant to have one writer, the object that owns the event
// it counts. A count that every producer of a shared queue would bump
// instead comes from state the queue keeps anyway (Registry.CounterFunc),
// so the per-message path pays no extra shared-line write for it.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level with a high-water mark: FIFO occupancy,
// queue depth, messages in flight. Update moves the level; the high-water
// mark ratchets up and never comes back down. The zero value is ready.
type Gauge struct {
	cur atomic.Int64
	hwm atomic.Int64
	_   [48]byte
}

// Update moves the level by delta (positive or negative) and raises the
// high-water mark if the new level exceeds it.
func (g *Gauge) Update(delta int64) {
	v := g.cur.Add(delta)
	if delta > 0 {
		g.raise(v)
	}
}

// Inc raises the level by one.
func (g *Gauge) Inc() { g.Update(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.Update(-1) }

// Set overwrites the level, raising the high-water mark as needed.
func (g *Gauge) Set(v int64) {
	g.cur.Store(v)
	g.raise(v)
}

func (g *Gauge) raise(v int64) {
	for {
		h := g.hwm.Load()
		if v <= h || g.hwm.CompareAndSwap(h, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.cur.Load() }

// HighWater returns the highest level the gauge ever reached.
func (g *Gauge) HighWater() int64 { return g.hwm.Load() }

// Registry names counters and gauges and arranges them in a tree of
// groups. Lookup/creation takes a mutex and may allocate; hot paths call
// it once at setup and keep the returned pointer. All methods are safe
// for concurrent use.
type Registry struct {
	name string

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	counterFns map[string]func() int64
	gaugeFns   map[string]func() (value, highWater int64)
	children   map[string]*Registry
	order      []string // child names in adoption/creation order
	refresh    []func() // run at the start of every Snapshot
}

// NewRegistry returns an empty registry with the given name (the name
// becomes the top of every snapshot path).
func NewRegistry(name string) *Registry {
	return &Registry{
		name:       name,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		counterFns: make(map[string]func() int64),
		gaugeFns:   make(map[string]func() (int64, int64)),
		children:   make(map[string]*Registry),
	}
}

// Name returns the registry's name.
func (r *Registry) Name() string { return r.name }

// Counter returns the counter with the given name, creating it on first
// use. A name registered as a gauge must not be reused as a counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// CounterFunc registers a counter whose value is fn(), evaluated at every
// Snapshot: the form for a count derived from state that already keeps
// it (a queue's ticket counter, a sum of per-owner counts), so no second
// counter is updated beside that state. fn must be safe to call from any
// goroutine and must not call into this registry (Snapshot holds its
// lock while evaluating). A later registration
// under the same name replaces the earlier one; a name must not also be
// used by Counter.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.counterFns[name] = fn
	r.mu.Unlock()
}

// GaugeFunc is CounterFunc for a gauge: fn returns the current level and
// the high-water mark, which the owner ratchets wherever it computes the
// level anyway.
func (r *Registry) GaugeFunc(name string, fn func() (value, highWater int64)) {
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Group returns the child registry with the given name, creating it on
// first use — one group per context, FIFO, rank, subsystem.
func (r *Registry) Group(name string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	child, ok := r.children[name]
	if !ok {
		child = NewRegistry(name)
		r.children[name] = child
		r.order = append(r.order, name)
	}
	return child
}

// Adopt attaches an independently created registry as a child group
// under its own name. The machine layer uses it to compose the fabric's
// and collective network's private registries into one tree without the
// substrates importing each other.
func (r *Registry) Adopt(child *Registry) {
	if child == nil || child == r {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.children[child.name]; !ok {
		r.order = append(r.order, child.name)
	}
	r.children[child.name] = child
}

// OnSnapshot registers fn to run at the start of every Snapshot of this
// registry, outside its lock: the place to set gauges that are derived
// from other state instead of being updated where that state changes.
func (r *Registry) OnSnapshot(fn func()) {
	r.mu.Lock()
	r.refresh = append(r.refresh, fn)
	r.mu.Unlock()
}

// Snapshot captures the registry tree at one instant. Counters and
// gauges within a snapshot are read individually (not atomically as a
// set), which is the same contract hardware counter reads give.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	refresh := r.refresh
	r.mu.Unlock()
	for _, fn := range refresh {
		fn()
	}
	r.mu.Lock()
	s := Snapshot{Name: r.name}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterStat{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeStat{Name: name, Value: g.Load(), HighWater: g.HighWater()})
	}
	for name, fn := range r.counterFns {
		s.Counters = append(s.Counters, CounterStat{Name: name, Value: fn()})
	}
	for name, fn := range r.gaugeFns {
		v, hwm := fn()
		s.Gauges = append(s.Gauges, GaugeStat{Name: name, Value: v, HighWater: hwm})
	}
	children := make([]*Registry, 0, len(r.children))
	for _, name := range r.order {
		children = append(children, r.children[name])
	}
	r.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for _, child := range children {
		s.Groups = append(s.Groups, child.Snapshot())
	}
	return s
}

// CounterStat is one counter's value in a snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeStat is one gauge's level and high-water mark in a snapshot.
type GaugeStat struct {
	Name      string `json:"name"`
	Value     int64  `json:"value"`
	HighWater int64  `json:"high_water"`
}

// Snapshot is an immutable capture of a registry subtree.
type Snapshot struct {
	Name     string        `json:"name"`
	Counters []CounterStat `json:"counters,omitempty"`
	Gauges   []GaugeStat   `json:"gauges,omitempty"`
	Groups   []Snapshot    `json:"groups,omitempty"`
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Group returns the direct child group with the given name.
func (s Snapshot) Group(name string) (Snapshot, bool) {
	for _, g := range s.Groups {
		if g.Name == name {
			return g, true
		}
	}
	return Snapshot{}, false
}

// Counter resolves a dotted path ("node0.rec0.packets") below this
// snapshot to a counter value.
func (s Snapshot) Counter(path string) (int64, bool) {
	sub, leaf, ok := s.resolve(path)
	if !ok {
		return 0, false
	}
	for _, c := range sub.Counters {
		if c.Name == leaf {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge resolves a dotted path below this snapshot to a gauge stat.
func (s Snapshot) Gauge(path string) (GaugeStat, bool) {
	sub, leaf, ok := s.resolve(path)
	if !ok {
		return GaugeStat{}, false
	}
	for _, g := range sub.Gauges {
		if g.Name == leaf {
			return g, true
		}
	}
	return GaugeStat{}, false
}

func (s Snapshot) resolve(path string) (Snapshot, string, bool) {
	parts := strings.Split(path, ".")
	cur := s
	for _, p := range parts[:len(parts)-1] {
		sub, ok := cur.Group(p)
		if !ok {
			return Snapshot{}, "", false
		}
		cur = sub
	}
	return cur, parts[len(parts)-1], true
}

// GaugeTotal is the aggregation of same-named gauges across groups: the
// levels sum (total queued entries) while the high-water mark takes the
// maximum (the deepest any single instance ever got).
type GaugeTotal struct {
	Value     int64
	HighWater int64
}

// Totals aggregates every leaf below the snapshot by its final name
// component: counters sum across all groups, gauges combine per
// GaugeTotal. This is how per-FIFO and per-context instruments roll up
// into the one-row-per-quantity tables the experiments print.
func (s Snapshot) Totals() (counters map[string]int64, gauges map[string]GaugeTotal) {
	counters = make(map[string]int64)
	gauges = make(map[string]GaugeTotal)
	s.total(counters, gauges)
	return counters, gauges
}

func (s Snapshot) total(counters map[string]int64, gauges map[string]GaugeTotal) {
	for _, c := range s.Counters {
		counters[c.Name] += c.Value
	}
	for _, g := range s.Gauges {
		t := gauges[g.Name]
		t.Value += g.Value
		if g.HighWater > t.HighWater {
			t.HighWater = g.HighWater
		}
		gauges[g.Name] = t
	}
	for _, sub := range s.Groups {
		sub.total(counters, gauges)
	}
}

// RenderTotals renders one aggregated table per direct child group (and
// one for the snapshot's own leaves, if any): counter rows as
// "name value", gauge rows as "name value (hwm N)". This is the table
// pamirun's -stats flag prints.
func (s Snapshot) RenderTotals() string {
	var b strings.Builder
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		renderGroupTotals(&b, s.Name, Snapshot{Counters: s.Counters, Gauges: s.Gauges})
	}
	for _, g := range s.Groups {
		renderGroupTotals(&b, s.Name+"."+g.Name, g)
	}
	return b.String()
}

func renderGroupTotals(b *strings.Builder, title string, s Snapshot) {
	counters, gauges := s.Totals()
	if len(counters) == 0 && len(gauges) == 0 {
		return
	}
	fmt.Fprintf(b, "%s\n", title)
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "  %-28s %12d\n", n, counters[n])
	}
	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := gauges[n]
		fmt.Fprintf(b, "  %-28s %12d  (hwm %d)\n", n, g.Value, g.HighWater)
	}
}
