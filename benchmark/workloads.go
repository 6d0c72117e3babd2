package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pamigo/internal/bufpool"
	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/core"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/mpilib"
	"pamigo/internal/torus"
	"pamigo/internal/wire"
)

// workload is one closed-loop load shape. top names the highest layer its
// driver calls, which is where its p99 is reported.
type workload struct {
	name string
	why  string
	top  string
	run  func(e *env)
}

// workloads is the fixed set; BENCHMARK.json lists the same names.
var workloads = []*workload{
	{"pingpong_0b", "Table 1: 0 B core SendImmediate ping-pong, latency-bound, one message in flight", "core", runPingpong},
	{"mpi_pingpong_0b", "Table 2: the same ping-pong through mpilib Send/Recv; the difference is the MPI overhead", "mpilib", runMPIPingpong},
	{"msgrate_8b", "Fig 5: one sender streams 8 B messages to one receiver; bufpool, lockless batching and dispatch", "core", runMsgrate},
	{"fanin_4to1", "four neighbour nodes stream into one reception FIFO: the contended side of the msgrate path", "core", runFanin},
	{"lossy_4k", "4 KiB eager sends under 1% drop: the only workload with the reliable layer and multi-packet reassembly on", "core", runLossy},
	{"rdv_64k", "Table 3: 64 KiB mpilib rendezvous exchange, RTS, remote get and done at a size where the protocol still shows", "mpilib", runRdv},
	{"allreduce_8b", "Fig 7: 8-rank int64 allreduce over a classroute session and the L2 team barrier; the slowest rank sets the time", "mpilib", runAllreduce},
	{"wire_window_8b", "two machines over loopback TCP, 64-message windows: the only workload where the wire transport does the work", "wire", runWireWindow},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Dispatch IDs of the core-level drivers.
const (
	dispData uint16 = 1
	dispCtl  uint16 = 2 // stop, fin and window-ack messages
)

var twoNodes = torus.Dims{2, 1, 1, 1, 1}

// pattern is n seed-derived bytes (splitmix64). Offset 0..8 is overwritten
// with the sequence number of each message.
func pattern(seed int64, n int) []byte {
	out := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567
	for i := 0; i+8 <= n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out
}

// batchOps scales a batch for -quick and keeps it a multiple of unit.
func (e *env) batchOps(full, unit int) int {
	n := full / e.div / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// pingpongSample is the number of round trips in one latency sample of the
// ping-pongs: short enough that most samples hold no disturbed hop, long
// enough that the clock read is under 1% of it.
const pingpongSample = 8

// runPingpong: rank 0 sends a 0 B immediate message and waits for the echo.
// An op is one half round trip. The stop message rides the control dispatch.
func runPingpong(e *env) {
	m := e.boot(machine.Config{Dims: twoNodes, PPN: 1})
	if m == nil {
		return
	}
	defer m.Shutdown()
	e.sync = newGate(2)
	ops := e.batchOps(2048, 2*pingpongSample)
	var sent, echoed int64
	m.Run(e.rank(func(p *cnk.Process) {
		ctx, g := e.pamiSetup(m, p)
		me := p.TaskRank()
		tr := e.tracer(me)
		var got int64
		stop := false
		e.must(ctx.RegisterDispatch(dispData, func(_ *core.Context, _ *core.Delivery) { got++ }), "RegisterDispatch")
		e.must(ctx.RegisterDispatch(dispCtl, func(_ *core.Context, _ *core.Delivery) { stop = true }), "RegisterDispatch")
		g.Barrier()
		e.quiesce(me == 0, e.snapBase)
		peer := core.Endpoint{Task: 1 - me}
		var want int64
		cond := func() bool { return got >= want || stop }
		if me == 0 {
			for !e.stopNow() {
				e.begin(ops)
				tr.begin(spBatch, int64(e.batch))
				for i := 1; i <= ops/2; i++ {
					tr.begin(spSendImmediate, sent)
					err := ctx.SendImmediate(peer, dispData, nil, nil)
					tr.end()
					e.must(err, "SendImmediate")
					sent++
					want = got + 1
					tr.begin(spAdvanceUntil, sent)
					ctx.AdvanceUntil(cond)
					tr.end()
					if i%pingpongSample == 0 {
						e.sample(2 * pingpongSample)
					}
				}
				tr.end()
				e.done(ops)
			}
			e.finish()
			e.must(ctx.SendImmediate(peer, dispCtl, nil, nil), "stop")
			e.control++
			e.check(got == sent, "rank 0 got %d echoes for %d pings", got, sent)
		} else {
			for {
				want = got + 1
				tr.begin(spAdvanceUntil, got)
				ctx.AdvanceUntil(cond)
				tr.end()
				if stop {
					break
				}
				tr.begin(spSendImmediate, got)
				err := ctx.SendImmediate(peer, dispData, nil, nil)
				tr.end()
				e.must(err, "SendImmediate")
			}
			echoed = got
		}
		e.quiesce(me == 0, func() {
			e.snapEnd()
			e.check(echoed == sent, "rank 1 got %d pings of %d", echoed, sent)
			e.checkAtRest(true)
		})
	}))
}

// MPI tags of the mpilib drivers; tagLast marks the message after which
// the follower stops.
const (
	tagData = 0
	tagLast = 1
)

// runMPIPingpong is runPingpong through mpilib's blocking Send and Recv.
func runMPIPingpong(e *env) {
	m := e.boot(machine.Config{Dims: twoNodes, PPN: 1})
	if m == nil {
		return
	}
	defer m.Shutdown()
	e.sync = newGate(2)
	ops := e.batchOps(2048, 2*pingpongSample)
	var sent, echoed int64
	m.Run(e.rank(func(p *cnk.Process) {
		w, err := mpilib.Init(m, p, mpilib.Options{ThreadMode: mpilib.ThreadSingle, Library: mpilib.ThreadOptimized})
		e.must(err, "mpilib.Init")
		cw := w.CommWorld()
		me := w.Rank()
		tr := e.tracer(me)
		buf := make([]byte, 0)
		cw.Barrier()
		e.quiesce(me == 0, e.snapBase)
		if me == 0 {
			var got int64
			for !e.stopNow() {
				e.begin(ops)
				tr.begin(spBatch, int64(e.batch))
				for i := 1; i <= ops/2; i++ {
					tr.begin(spMPISend, sent)
					err := cw.Send(buf, 1, tagData)
					tr.end()
					e.must(err, "Send")
					sent++
					tr.begin(spMPIRecv, sent)
					_, err = cw.Recv(buf, 1, tagData)
					tr.end()
					e.must(err, "Recv")
					got++
					if i%pingpongSample == 0 {
						e.sample(2 * pingpongSample)
					}
				}
				tr.end()
				e.done(ops)
			}
			e.finish()
			e.must(cw.Send(buf, 1, tagLast), "stop")
			e.control++
			e.check(got == sent, "rank 0 got %d echoes for %d pings", got, sent)
		} else {
			for {
				tr.begin(spMPIRecv, echoed)
				st, err := cw.Recv(buf, 0, mpilib.AnyTag)
				tr.end()
				e.must(err, "Recv")
				if st.Tag == tagLast {
					break
				}
				echoed++
				tr.begin(spMPISend, echoed)
				err = cw.Send(buf, 0, tagData)
				tr.end()
				e.must(err, "Send")
			}
		}
		e.quiesce(me == 0, func() {
			e.snapEnd()
			e.check(echoed == sent, "rank 1 got %d pings of %d", echoed, sent)
			e.checkAtRest(true)
		})
	}))
}

// stream is the sender side of the streaming workloads: 8 B ownership-
// transfer sends carrying the sequence number, retried on ErrThrottled,
// until the receiver raises stop; then one fin message with the total.
func (e *env) stream(ctx *core.Context, tr *rankTrace, dst core.Endpoint, chunk int, stop *atomic.Bool) {
	var payload [8]byte
	var seq, throttled int64
	for !stop.Load() {
		for k := 0; k < chunk; k++ {
			binary.LittleEndian.PutUint64(payload[:], uint64(seq))
			tr.begin(spGetCopy, seq)
			buf := bufpool.GetCopy(payload[:])
			tr.end()
			for {
				tr.begin(spSendImmediateBuf, seq)
				err := ctx.SendImmediateBuf(dst, dispData, nil, buf)
				tr.end()
				if err == nil {
					break
				}
				if !errors.Is(err, core.ErrThrottled) {
					e.must(err, "SendImmediateBuf")
				}
				// The receiver is a full unexpected-message budget behind.
				// The caller still owns buf; advance, yield and retry.
				throttled++
				tr.begin(spAdvance, seq)
				ctx.Advance(64)
				tr.end()
				runtime.Gosched()
			}
			seq++
		}
	}
	binary.LittleEndian.PutUint64(payload[:], uint64(seq))
	for {
		err := ctx.SendImmediate(dst, dispCtl, nil, payload[:])
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrThrottled) {
			e.must(err, "fin")
		}
		ctx.Advance(64)
		runtime.Gosched()
	}
	e.throttled.Add(throttled)
}

// sink is the receiver side of the streaming workloads and their leader. It
// times batches of ops deliveries, then raises stop and drains until every
// sender's fin has arrived.
type sink struct {
	e       *env
	ctx     *core.Context
	tr      *rankTrace
	senders int
	ops     int
	stop    *atomic.Bool

	got, bad, fins, finTotal int64
}

// newSink registers the sink's handlers on ctx. Each message must be
// len(want) bytes: its origin's next sequence number, then want[8:].
func (e *env) newSink(m *machine.Machine, ctx *core.Context, tr *rankTrace, senders, ops int, stop *atomic.Bool, want []byte) *sink {
	s := &sink{e: e, ctx: ctx, tr: tr, senders: senders, ops: ops, stop: stop}
	next := make([]int64, m.Tasks()) // by origin task
	e.must(ctx.RegisterDispatch(dispData, func(_ *core.Context, d *core.Delivery) {
		if len(d.Data) != len(want) || int64(binary.LittleEndian.Uint64(d.Data)) != next[d.Origin.Task] || !bytes.Equal(d.Data[8:], want[8:]) {
			s.bad++
		}
		next[d.Origin.Task]++
		s.got++
	}), "RegisterDispatch")
	e.must(ctx.RegisterDispatch(dispCtl, func(_ *core.Context, d *core.Delivery) {
		s.fins++
		s.finTotal += int64(binary.LittleEndian.Uint64(d.Data))
	}), "RegisterDispatch")
	return s
}

func (s *sink) run() {
	e, tr := s.e, s.tr
	var want int64
	cond := func() bool { return s.got >= want }
	for !e.stopNow() {
		e.begin(s.ops)
		want += int64(s.ops)
		tr.begin(spBatch, int64(e.batch))
		tr.begin(spAdvanceUntil, want)
		s.ctx.AdvanceUntil(cond)
		tr.end()
		tr.end()
		e.sample(s.ops)
		e.done(s.ops)
	}
	e.finish()
	s.stop.Store(true)
	s.ctx.AdvanceUntil(func() bool { return s.fins == int64(s.senders) && s.got >= s.finTotal })
	e.total = s.got
	e.control += s.fins
	e.check(s.got == s.finTotal, "delivered %d of %d sent", s.got, s.finTotal)
	if s.bad > 0 {
		e.acct.fail(s.bad, "%s: %d messages out of sequence or mangled", e.w.name, s.bad)
	}
}

// runMsgrate: task 0 streams to task 1 on the neighbouring node; an op is
// one message delivered, timed at the receiver.
func runMsgrate(e *env) {
	m := e.boot(machine.Config{Dims: twoNodes, PPN: 1})
	if m == nil {
		return
	}
	defer m.Shutdown()
	e.streamOn(m, []int{0}, 1, e.batchOps(4096, 1))
}

// runFanin: the four distinct neighbour nodes of node 0 in a 3x3 torus
// stream into task 0; the other four nodes boot and then stay parked.
func runFanin(e *env) {
	m := e.boot(machine.Config{Dims: torus.Dims{3, 3, 1, 1, 1}, PPN: 1})
	if m == nil {
		return
	}
	defer m.Shutdown()
	e.streamOn(m, []int{1, 2, 3, 6}, 0, e.batchOps(4096, 4))
}

// streamOn runs the streaming shape: senders stream to the receiver task,
// every other task only takes part in set-up.
func (e *env) streamOn(m *machine.Machine, senders []int, receiver, ops int) {
	e.sync = newGate(m.Tasks())
	var stop atomic.Bool
	m.Run(e.rank(func(p *cnk.Process) {
		ctx, g := e.pamiSetup(m, p)
		me := p.TaskRank()
		sending := false
		for _, s := range senders {
			sending = sending || s == me
		}
		var tr *rankTrace
		if sending || me == receiver {
			tr = e.tracer(me)
		}
		var rx *sink
		if me == receiver {
			rx = e.newSink(m, ctx, tr, len(senders), ops, &stop, make([]byte, 8))
		}
		g.Barrier()
		e.quiesce(me == receiver, e.snapBase)
		switch {
		case me == receiver:
			rx.run()
		case sending:
			e.stream(ctx, tr, core.Endpoint{Task: receiver}, ops/len(senders), &stop)
		}
		e.quiesce(me == receiver, func() {
			e.snapEnd()
			e.checkAtRest(true)
		})
	}))
}

// lossySample is the number of lossy_4k batches in one latency sample. A
// dropped packet holds deliveries back until its resend and then releases
// them in a burst, so a single batch is either stalled or bursting and the
// median of single batches sits between two modes. Four batches (768
// messages, about 8 ms) span several resends and give one mode.
const lossySample = 4

// runLossy: task 0 streams 4 KiB eager messages (8 packets each) to task 1
// over links that drop 1% of the packets; the handler checks the whole
// pattern. Drop only: see README "Known defects".
func runLossy(e *env) {
	m := e.boot(machine.Config{Dims: twoNodes, PPN: 1, Faults: &fault.Plan{Drop: 0.01}, FaultSeed: e.seed})
	if m == nil {
		return
	}
	defer m.Shutdown()
	e.sync = newGate(2)
	e.every = lossySample
	ops := e.batchOps(192, 1)
	want := pattern(e.seed, 4096)
	var stop atomic.Bool
	m.Run(e.rank(func(p *cnk.Process) {
		ctx, g := e.pamiSetup(m, p)
		me := p.TaskRank()
		tr := e.tracer(me)
		var rx *sink
		if me == 1 {
			rx = e.newSink(m, ctx, tr, 1, ops, &stop, want)
		}
		g.Barrier()
		e.quiesce(me == 1, e.snapBase)
		if me == 0 {
			dst := core.Endpoint{Task: 1}
			// One send buffer, stamped per message: a forced-eager Send is
			// never deferred and copies Data out before it returns. DataBuf
			// is not used here: README "Known defects" (c).
			buf := append([]byte(nil), want...)
			var seq int64
			for !stop.Load() {
				for k := 0; k < ops; k++ {
					binary.LittleEndian.PutUint64(buf, uint64(seq))
					tr.begin(spSend, seq)
					err := ctx.Send(core.SendParams{Dest: dst, Dispatch: dispData, Data: buf, Mode: core.ModeEager})
					tr.end()
					e.must(err, "Send")
					seq++
				}
			}
			var total [8]byte
			binary.LittleEndian.PutUint64(total[:], uint64(seq))
			e.must(ctx.SendImmediate(dst, dispCtl, nil, total[:]), "fin")
		} else {
			rx.run()
		}
		e.quiesce(me == 1, func() {
			e.snapEnd()
			e.checkAtRest(false)
		})
	}))
}

// rdvBytes is the rendezvous message size; rdvChunks 512 B chunks make it.
const (
	rdvBytes  = 64 << 10
	rdvChunks = rdvBytes / 512
)

// runRdv: both ranks post Irecv, IsendMode(ModeRendezvous) and Waitall, so
// an exchange is two ops. Checking all 64 KiB of every message would cost a
// quarter of the exchange, so each message is checked on its sequence
// number, its tail and one 512 B chunk that rotates with the sequence
// number; the receiver wipes those before it posts the receive.
func runRdv(e *env) {
	m := e.boot(machine.Config{Dims: twoNodes, PPN: 1})
	if m == nil {
		return
	}
	defer m.Shutdown()
	e.sync = newGate(2)
	ops := e.batchOps(640, 2)
	want := pattern(e.seed, rdvBytes)
	var exchanges [2]int64
	m.Run(e.rank(func(p *cnk.Process) {
		w, err := mpilib.Init(m, p, mpilib.Options{})
		e.must(err, "mpilib.Init")
		cw := w.CommWorld()
		me := w.Rank()
		peer := 1 - me
		tr := e.tracer(me)
		sendBuf := append([]byte(nil), want...)
		recvBuf := make([]byte, rdvBytes)
		reqs := make([]*mpilib.Request, 2)
		var seq int64
		// exchange runs one exchange and reports the tag it received.
		exchange := func(tag int) int {
			at := int(seq%rdvChunks) * 512
			binary.LittleEndian.PutUint64(sendBuf[at:], uint64(seq))
			binary.LittleEndian.PutUint64(sendBuf, uint64(seq))
			clear(recvBuf[:8])
			clear(recvBuf[at : at+512])
			clear(recvBuf[rdvBytes-8:])
			tr.begin(spMPIIrecv, seq)
			r, err := cw.Irecv(recvBuf, peer, mpilib.AnyTag)
			tr.end()
			e.must(err, "Irecv")
			tr.begin(spMPIIsend, seq)
			s, err := cw.IsendMode(sendBuf, peer, tag, core.ModeRendezvous)
			tr.end()
			e.must(err, "IsendMode")
			reqs[0], reqs[1] = r, s
			tr.begin(spMPIWaitall, seq)
			w.Waitall(reqs)
			tr.end()
			st := r.Status()
			ok := st.Count == rdvBytes &&
				int64(binary.LittleEndian.Uint64(recvBuf)) == seq &&
				bytes.Equal(recvBuf[rdvBytes-8:], want[rdvBytes-8:]) &&
				(at == 0 || int64(binary.LittleEndian.Uint64(recvBuf[at:])) == seq) &&
				bytes.Equal(recvBuf[at+8:at+512], want[at+8:at+512])
			e.check(ok, "rank %d exchange %d: payload mangled", me, seq)
			copy(sendBuf[at:at+8], want[at:at+8])
			r.Free()
			s.Free()
			seq++
			return st.Tag
		}
		cw.Barrier()
		e.quiesce(me == 0, e.snapBase)
		if me == 0 {
			for stop := false; !stop; {
				e.begin(ops)
				tr.begin(spBatch, int64(e.batch))
				for i := 0; i < ops/2; i++ {
					tag := tagData
					if i == ops/2-1 && e.stopNow() {
						stop = true
						tag = tagLast
					}
					exchange(tag)
					e.sample(2)
				}
				tr.end()
				e.done(ops)
			}
			e.finish()
		} else {
			for exchange(tagData) != tagLast {
			}
		}
		exchanges[me] = seq
		e.quiesce(me == 0, func() {
			e.snapEnd()
			e.check(exchanges[0] == exchanges[1], "ranks ran %d and %d exchanges", exchanges[0], exchanges[1])
			done, started := e.delta("core", "rdv_completed"), e.delta("core", "sends_rendezvous")
			e.check(done == started && e.delta("core", "rdv_failed") == 0, "rendezvous completed %d of %d", done, started)
			e.checkAtRest(false)
		})
	}))
}

// allreduceStop is what rank 0 adds to its contribution to the last
// allreduce, so that every rank learns from the sum itself that it was the
// last: the stop costs no extra operation.
const allreduceStop = int64(1) << 40

// runAllreduce: eight ranks (2x2 nodes, PPN 2) sum one int64; op i's
// contribution of rank r is (r+1)*(i+1), so a stale result is caught.
func runAllreduce(e *env) {
	m := e.boot(machine.Config{Dims: torus.Dims{2, 2, 1, 1, 1}, PPN: 2})
	if m == nil {
		return
	}
	defer m.Shutdown()
	n := m.Tasks()
	e.sync = newGate(n)
	ops := e.batchOps(100, 1)
	rankSum := int64(n * (n + 1) / 2)
	m.Run(e.rank(func(p *cnk.Process) {
		w, err := mpilib.Init(m, p, mpilib.Options{})
		e.must(err, "mpilib.Init")
		cw := w.CommWorld()
		me := w.Rank()
		var tr *rankTrace
		if me == 0 {
			tr = e.tracer(me)
		}
		send := make([]byte, 8)
		recv := make([]byte, 8)
		var i int64
		// reduce runs one allreduce and reports whether it was the last.
		reduce := func(extra int64) bool {
			binary.LittleEndian.PutUint64(send, uint64(int64(me+1)*(i+1)+extra))
			tr.begin(spMPIAllreduce, i)
			err := cw.Allreduce(send, recv, collnet.OpAdd, collnet.Int64)
			tr.end()
			e.must(err, "Allreduce")
			sum := int64(binary.LittleEndian.Uint64(recv))
			last := sum >= allreduceStop
			if last {
				sum -= allreduceStop
			}
			e.check(sum == rankSum*(i+1), "rank %d allreduce %d: sum %d, want %d", me, i, sum, rankSum*(i+1))
			i++
			return last
		}
		cw.Barrier()
		e.quiesce(me == 0, e.snapBase)
		if me == 0 {
			for stop := false; !stop; {
				e.begin(ops)
				tr.begin(spBatch, int64(e.batch))
				for k := 0; k < ops; k++ {
					extra := int64(0)
					if k == ops-1 && e.stopNow() {
						stop = true
						extra = allreduceStop
					}
					reduce(extra)
					e.sample(1)
				}
				tr.end()
				e.done(ops)
			}
			e.finish()
		} else {
			for !reduce(0) {
			}
		}
		e.quiesce(me == 0, func() {
			e.snapEnd()
			e.checkAtRest(true)
		})
	}))
}

// wireWindow is the most messages the sender has in flight; see README
// "Known defects" for why it is never exceeded.
const wireWindow = 64

// runWireWindow: two machines in this process host task 0 and task 1 of
// one partition and talk over loopback TCP. The sender posts a window of
// 8 B messages and waits for the receiver's 0 B answer; an op is one
// message delivered across the socket.
func runWireWindow(e *env) {
	opts := wire.Options{Partition: uint64(e.seed)<<1 | 1, Seed: e.seed, Listen: "127.0.0.1:0"}
	// PhiThreshold: README "Known defects" (a).
	ma := e.boot(machine.Config{Dims: twoNodes, PPN: 1, HostedLo: 0, HostedHi: 1, Wire: &opts, PhiThreshold: 1e6})
	if ma == nil {
		return
	}
	defer ma.Shutdown()
	join := opts
	join.Listen = ""
	join.Join = []string{ma.Wire().Addr()}
	mb := e.boot(machine.Config{Dims: twoNodes, PPN: 1, HostedLo: 1, HostedHi: 2, Wire: &join, PhiThreshold: 1e6})
	if mb == nil {
		return
	}
	defer mb.Shutdown()
	for _, m := range []*machine.Machine{ma, mb} {
		if err := m.WaitWire(10 * time.Second); err != nil {
			e.acct.fail(1, "%s: WaitWire: %v", e.w.name, err)
			return
		}
	}
	e.sync = newGate(2)
	ops := e.batchOps(512, wireWindow)
	var sent, delivered, bad int64
	rank := func(m *machine.Machine, me int) func(p *cnk.Process) {
		return e.rank(func(p *cnk.Process) {
			client, err := core.NewClient(m, p, "benchmark")
			e.must(err, "NewClient")
			ctxs, err := client.CreateContexts(1)
			e.must(err, "CreateContexts")
			ctx := ctxs[0]
			tr := e.tracer(me)
			peer := core.Endpoint{Task: 1 - me}
			var got, ctl int64
			e.must(ctx.RegisterDispatch(dispData, func(_ *core.Context, d *core.Delivery) {
				if len(d.Data) != 8 || int64(binary.LittleEndian.Uint64(d.Data)) != got {
					bad++
				}
				got++
			}), "RegisterDispatch")
			e.must(ctx.RegisterDispatch(dispCtl, func(_ *core.Context, _ *core.Delivery) { ctl++ }), "RegisterDispatch")
			e.quiesce(me == 0, e.snapBase)
			if me == 0 {
				var payload [8]byte
				var acks int64
				cond := func() bool { return ctl >= acks }
				for !e.stopNow() {
					e.begin(ops)
					tr.begin(spBatch, int64(e.batch))
					for win := 0; win < ops/wireWindow; win++ {
						for k := 0; k < wireWindow; k++ {
							binary.LittleEndian.PutUint64(payload[:], uint64(sent))
							tr.begin(spGetCopy, sent)
							buf := bufpool.GetCopy(payload[:])
							tr.end()
							tr.begin(spSendImmediateBuf, sent)
							err := ctx.SendImmediateBuf(peer, dispData, nil, buf)
							tr.end()
							e.must(err, "SendImmediateBuf")
							sent++
						}
						acks++
						tr.begin(spAdvanceUntil, sent)
						ctx.AdvanceUntil(cond)
						tr.end()
					}
					tr.end()
					e.sample(ops)
					e.done(ops)
				}
				e.finish()
				e.must(ctx.SendImmediate(peer, dispCtl, nil, nil), "stop")
				e.control += acks + 1
			} else {
				var want int64
				cond := func() bool { return got >= want || ctl > 0 }
				for {
					want = got + wireWindow
					tr.begin(spAdvanceUntil, got)
					ctx.AdvanceUntil(cond)
					tr.end()
					if ctl > 0 {
						break
					}
					tr.begin(spSendImmediate, got)
					err := ctx.SendImmediate(peer, dispCtl, nil, nil)
					tr.end()
					e.must(err, "window answer")
				}
				delivered = got
			}
			e.quiesce(me == 0, func() {
				e.snapEnd()
				e.check(delivered == sent, "delivered %d of %d sent", delivered, sent)
				if bad > 0 {
					e.acct.fail(bad, "%s: %d messages out of sequence or mangled", e.w.name, bad)
				}
				e.checkAtRest(false)
			})
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ma.Run(rank(ma, 0)) }()
	go func() { defer wg.Done(); mb.Run(rank(mb, 1)) }()
	wg.Wait()
}
