// Package netsim is a packet-level discrete-event simulator of the BG/Q
// 5D torus data plane: deterministic dimension-ordered routes over
// per-direction link resources with finite bandwidth and per-hop router
// latency. Where internal/model uses closed-form cost equations, netsim
// *derives* link-level results — bandwidth sharing, neighbor-exchange
// scaling, route load balance — by actually moving packets through
// contended links, and the model tests cross-check the two.
//
// The simulator is intentionally at the granularity the MU presents to
// software: 512-byte payload packets with 32-byte headers, store-and-
// forward per hop (a conservative stand-in for the hardware's cut-through
// that preserves bandwidth results exactly and inflates only the
// per-packet latency term by hops×serialization).
//
// Execution is event-driven on one sequential internal/sim engine: every
// packet advances inject -> hop* -> arrive, one scheduled callback per
// step, each booking its resource at the engine's current time.
package netsim

import (
	"errors"
	"fmt"

	"pamigo/internal/mu"
	"pamigo/internal/sim"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
)

// ErrPartitioned means failed links disconnect source from destination:
// no route-around exists.
var ErrPartitioned = errors.New("netsim: failed links partition the torus")

// Params are the physical constants of the simulated fabric.
type Params struct {
	// LinkBytesPerSec is the per-link per-direction payload bandwidth.
	LinkBytesPerSec float64
	// HopLatency is the router traversal latency per hop.
	HopLatency sim.Time
	// InjectOverhead is the MU descriptor processing time per packet at
	// the source.
	InjectOverhead sim.Time
}

// DefaultParams matches the paper's fabric: 1.8 GB/s payload per link
// direction, ~40 ns routers.
func DefaultParams() Params {
	return Params{
		LinkBytesPerSec: 1.8e9,
		HopLatency:      40 * sim.Nanosecond,
		InjectOverhead:  25 * sim.Nanosecond,
	}
}

type linkKey struct {
	node torus.Rank
	link torus.Link
}

// message is one SendMessage call's run-time state. The route and its
// resources are resolved at SendMessage time, so route errors surface
// there and the run phase touches no map.
type message struct {
	size    int
	npkts   int
	inject  *sim.Resource
	links   []*sim.Resource // links[h] carries hop h
	onDone  func(sim.Time)
	arrived int
}

// Network is one simulated fabric instance. It is not safe for
// concurrent use.
type Network struct {
	dims   torus.Dims
	params Params
	eng    sim.Engine
	links  map[linkKey]*sim.Resource
	order  []*sim.Resource // links in creation order, for fixed-order sums
	inject map[linkKey]*sim.Resource
	down   map[linkKey]bool // failed directed links (cables fail both ways)

	tele      *telemetry.Registry
	packets   *telemetry.Counter
	bytes     *telemetry.Counter
	hops      *telemetry.Counter // per-packet route lengths, summed
	transfers *telemetry.Counter // individual link reservations
	reroutes  *telemetry.Counter // messages detoured around failed links
}

// New builds a fabric for the given torus shape.
func New(dims torus.Dims, p Params) (*Network, error) {
	if err := dims.Validate(); err != nil {
		return nil, err
	}
	if p.LinkBytesPerSec <= 0 {
		return nil, fmt.Errorf("netsim: non-positive link bandwidth")
	}
	tele := telemetry.NewRegistry("netsim")
	return &Network{
		dims:      dims,
		params:    p,
		links:     make(map[linkKey]*sim.Resource),
		inject:    make(map[linkKey]*sim.Resource),
		down:      make(map[linkKey]bool),
		tele:      tele,
		packets:   tele.Counter("packets"),
		bytes:     tele.Counter("payload_bytes"),
		hops:      tele.Counter("hops"),
		transfers: tele.Counter("link_transfers"),
		reroutes:  tele.Counter("reroutes"),
	}, nil
}

// Telemetry returns the fabric's counter registry, for adoption into a
// larger tree or direct snapshotting.
func (n *Network) Telemetry() *telemetry.Registry { return n.tele }

func (n *Network) linkFor(node torus.Rank, l torus.Link) *sim.Resource {
	k := linkKey{node, l}
	r, ok := n.links[k]
	if !ok {
		r = &sim.Resource{}
		n.links[k] = r
		n.order = append(n.order, r)
	}
	return r
}

// injectFor returns the injection engine serving a node's traffic onto
// one outgoing link: the MU has "multiple message engines that operate
// in parallel" (paper §II.C), so flows leaving on different links do not
// serialize against each other at injection.
func (n *Network) injectFor(node torus.Rank, first torus.Link) *sim.Resource {
	k := linkKey{node, first}
	r, ok := n.inject[k]
	if !ok {
		r = &sim.Resource{}
		n.inject[k] = r
	}
	return r
}

// FailLink marks the physical cable out of node across l as dead in both
// directions — the BG/Q control system's view of a link failure — so
// subsequent messages route around it.
func (n *Network) FailLink(node torus.Rank, l torus.Link) {
	nb := n.dims.Neighbor(node, l)
	n.down[linkKey{node, l}] = true
	n.down[linkKey{nb, torus.Link{Dim: l.Dim, Dir: -l.Dir}}] = true
}

// downFn returns the failed-link predicate, nil when the fabric is
// clean (torus.RouteAround's fast path).
func (n *Network) downFn() func(torus.Rank, torus.Link) bool {
	if len(n.down) == 0 {
		return nil
	}
	return func(r torus.Rank, l torus.Link) bool { return n.down[linkKey{r, l}] }
}

// hopLink picks the live cable carrying a route hop. In a size-2
// dimension the reverse-direction cable reaches the same neighbor, so a
// hop survives one of the pair failing.
func (n *Network) hopLink(cur, next torus.Rank) (torus.Link, error) {
	l, ok := n.dims.LinkBetween(cur, next)
	if !ok {
		return l, fmt.Errorf("netsim: %d and %d are not neighbors", cur, next)
	}
	if n.down[linkKey{cur, l}] {
		alt := torus.Link{Dim: l.Dim, Dir: -l.Dir}
		if n.dims[l.Dim] == 2 && !n.down[linkKey{cur, alt}] {
			return alt, nil
		}
		return l, fmt.Errorf("netsim: route crosses failed link %d:%s", cur, l)
	}
	return l, nil
}

// SendMessage schedules a message of the given size from src to dst at
// simulated time 'at'. The message is packetized; every packet follows
// the deterministic dimension-ordered route, serializing on the MU
// injection engine at the source and then on each directed link, hop by
// hop as simulation events. onDone (optional) fires when the last packet
// arrives. Call Run afterwards to execute the simulation.
func (n *Network) SendMessage(at sim.Time, src, dst torus.Rank, size int, onDone func(done sim.Time)) error {
	if src == dst {
		return fmt.Errorf("netsim: message to self")
	}
	down := n.downFn()
	path, ok := n.dims.RouteAround(src, dst, down)
	if !ok {
		return fmt.Errorf("%w: %d -> %d", ErrPartitioned, src, dst)
	}
	if down != nil {
		def := n.dims.Route(src, dst)
		rerouted := len(path) != len(def)
		for i := 0; !rerouted && i < len(path); i++ {
			rerouted = path[i] != def[i]
		}
		if rerouted {
			n.reroutes.Inc()
		}
	}
	npkts := (size + mu.MaxPayload - 1) / mu.MaxPayload
	if npkts == 0 {
		npkts = 1
	}
	m := &message{
		size:   size,
		npkts:  npkts,
		onDone: onDone,
		links:  make([]*sim.Resource, len(path)),
	}
	cur := src
	for h, next := range path {
		l, err := n.hopLink(cur, next)
		if err != nil {
			return err
		}
		m.links[h] = n.linkFor(cur, l)
		if h == 0 {
			m.inject = n.injectFor(src, l)
		}
		cur = next
	}
	n.packets.Add(int64(npkts))
	n.bytes.Add(int64(size))
	n.hops.Add(int64(npkts) * int64(len(path)))
	n.eng.Schedule(at, func() { n.injectPacket(m, 0) })
	return nil
}

// payload returns packet pkt's payload size (full packets, then the
// remainder; a zero-byte message still serializes one header byte).
func (m *message) payload(pkt int) int {
	p := m.size - pkt*mu.MaxPayload
	if p > mu.MaxPayload {
		p = mu.MaxPayload
	}
	if p < 1 {
		p = 1
	}
	return p
}

// injectPacket books the MU injection engine for packet pkt of m.
func (n *Network) injectPacket(m *message, pkt int) {
	_, done := m.inject.Reserve(n.eng.Now(), n.params.InjectOverhead)
	if pkt+1 < m.npkts {
		// The next packet enters the injection engine when this one
		// clears it, back to back.
		n.eng.Schedule(done, func() { n.injectPacket(m, pkt+1) })
	}
	n.eng.Schedule(done, func() { n.hop(m, pkt, 0) })
}

// hop books link h for packet pkt of m and forwards the packet.
func (n *Network) hop(m *message, pkt, h int) {
	// Serialize payload bytes at the payload rate: the 32B header's wire
	// time is already folded into the 1.8 GB/s payload figure (2 GB/s raw
	// minus header and protocol overhead, paper §II.B).
	ser := sim.BytesTime(int64(m.payload(pkt)), n.params.LinkBytesPerSec)
	_, done := m.links[h].Reserve(n.eng.Now(), ser)
	n.transfers.Inc()
	arr := done + n.params.HopLatency
	if h+1 < len(m.links) {
		n.eng.Schedule(arr, func() { n.hop(m, pkt, h+1) })
	} else {
		n.eng.Schedule(arr, func() { n.arrive(m) })
	}
}

// arrive counts a packet in at the destination. Events fire in time
// order, so the last packet counted is the message's completion time.
func (n *Network) arrive(m *message) {
	m.arrived++
	if m.arrived == m.npkts && m.onDone != nil {
		m.onDone(n.eng.Now())
	}
}

// Run executes all scheduled traffic and returns the completion time of
// the simulation: the latest packet arrival.
func (n *Network) Run() sim.Time {
	return n.eng.Run()
}

// Stats returns total packets and payload bytes moved.
func (n *Network) Stats() (packets, bytes int64) { return n.packets.Load(), n.bytes.Load() }

// LinkUtilization returns each used directed link's busy fraction over
// the horizon, keyed "node:linkname".
func (n *Network) LinkUtilization(horizon sim.Time) map[string]float64 {
	out := make(map[string]float64, len(n.links))
	for k, r := range n.links {
		out[fmt.Sprintf("%d:%s", k.node, k.link)] = r.Utilization(horizon)
	}
	return out
}

// ---------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------

// NeighborExchange simulates the Table 3 workload on the fabric: node 0
// exchanges `size`-byte messages bidirectionally with its first
// `neighbors` distinct torus neighbors, `iters` times back to back, and
// returns the aggregate throughput in MB/s. This is the rendezvous
// (RDMA) data path: no CPU copies, links are the only resource.
func NeighborExchange(dims torus.Dims, p Params, neighbors, size, iters int) (float64, error) {
	n, err := New(dims, p)
	if err != nil {
		return 0, err
	}
	seen := map[torus.Rank]bool{0: true}
	var nbs []torus.Rank
	for _, l := range torus.Links() {
		nb := dims.Neighbor(0, l)
		if !seen[nb] {
			seen[nb] = true
			nbs = append(nbs, nb)
			if len(nbs) == neighbors {
				break
			}
		}
	}
	if len(nbs) < neighbors {
		return 0, fmt.Errorf("netsim: shape %v has only %d distinct neighbors", dims, len(nbs))
	}
	for it := 0; it < iters; it++ {
		for _, nb := range nbs {
			if err := n.SendMessage(0, 0, nb, size, nil); err != nil {
				return 0, err
			}
			if err := n.SendMessage(0, nb, 0, size, nil); err != nil {
				return 0, err
			}
		}
	}
	end := n.Run()
	if end == 0 {
		return 0, fmt.Errorf("netsim: empty simulation")
	}
	totalBytes := float64(2*neighbors*size) * float64(iters)
	return totalBytes / end.Seconds() / 1e6, nil
}

// UniformAllToAll simulates every node sending one message to every
// other node and returns (completion time, max link utilization, mean
// link utilization). On a symmetric torus, dimension-ordered routing
// balances uniform traffic: max/mean stays near 1. The mean sums the
// links in creation order, so it is the same float on every call.
func UniformAllToAll(dims torus.Dims, p Params, size int) (sim.Time, float64, float64, error) {
	n, err := New(dims, p)
	if err != nil {
		return 0, 0, 0, err
	}
	nodes := dims.Nodes()
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			if err := n.SendMessage(0, torus.Rank(s), torus.Rank(d), size, nil); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	end := n.Run()
	var max, sum float64
	for _, r := range n.order {
		u := r.Utilization(end)
		if u > max {
			max = u
		}
		sum += u
	}
	mean := 0.0
	if len(n.order) > 0 {
		mean = sum / float64(len(n.order))
	}
	return end, max, mean, nil
}
