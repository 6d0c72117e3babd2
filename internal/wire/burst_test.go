package wire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamigo/internal/fault"
	"pamigo/internal/mu"
)

// scriptConn is a net.Conn whose reads serve a scripted byte stream in
// chunks of a fixed size (never more than the reader asks for), so a test
// decides exactly where the stream is cut. Writes are discarded, or
// recorded if keep is set.
type scriptConn struct {
	mu      sync.Mutex
	stream  []byte
	pos     int
	chunk   int
	keep    bool
	written []byte
	// before, if set, runs (unlocked) ahead of every read, with the stream
	// offset the read will serve from.
	before func(pos int)
	// hold keeps the connection open once the script is exhausted (reads
	// block until Close) instead of reporting io.EOF.
	hold bool
	// sticky keeps serving the script after Close: the bytes a severed
	// connection's reader already holds.
	sticky bool
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(stream []byte, chunk int) *scriptConn {
	return &scriptConn{stream: stream, chunk: chunk, closed: make(chan struct{})}
}

func (c *scriptConn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

func (c *scriptConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	pos := c.pos
	c.mu.Unlock()
	if c.before != nil {
		c.before(pos)
	}
	if pos == len(c.stream) {
		if !c.hold {
			return 0, io.EOF
		}
		<-c.closed
	}
	if c.isClosed() && (!c.sticky || pos == len(c.stream)) {
		return 0, net.ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := min(c.chunk, len(b), len(c.stream)-c.pos)
	copy(b, c.stream[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

func (c *scriptConn) Write(b []byte) (int, error) {
	if c.isClosed() {
		return 0, net.ErrClosed
	}
	if c.keep {
		c.mu.Lock()
		c.written = append(c.written, b...)
		c.mu.Unlock()
	}
	return len(b), nil
}

func (c *scriptConn) wrote() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.written...)
}

func (c *scriptConn) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos == len(c.stream)
}

func (c *scriptConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// rxLog is a Deliver/OnReplica sink that records what arrived, in order.
type rxLog struct {
	mu     sync.Mutex
	events []string
}

func (l *rxLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *rxLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func pktEvent(pf *PacketFrame) string {
	return fmt.Sprintf("pkt seq=%d dst=%v disp=%d org=%v mseq=%d off=%d tot=%d meta=%q len=%d crc=%08x",
		pf.Seq, pf.Dst, pf.Hdr.Dispatch, pf.Hdr.Origin, pf.Hdr.Seq, pf.Hdr.Offset, pf.Hdr.Total, pf.Hdr.Meta,
		len(pf.Payload), crc32.ChecksumIEEE(pf.Payload))
}

func replicaEvent(blob []byte) string {
	return fmt.Sprintf("replica len=%d crc=%08x", len(blob), crc32.ChecksumIEEE(blob))
}

// deliver logs the segment under the wire sequence number the test put
// in the message's own header (every test stream keeps the two equal).
func (l *rxLog) deliver(dst mu.TaskAddr, hdr mu.Header, payload []byte) (int, error) {
	l.add(pktEvent(&PacketFrame{Seq: hdr.Seq, Dst: dst, Hdr: hdr, Payload: payload}))
	return len(payload), nil
}

func (l *rxLog) replica(blob []byte) { l.add(replicaEvent(blob)) }

// oracle walks a stream with DecodeFrame the way the stream reader must:
// in-sequence data frames addressed to task 0 are delivered, duplicates
// dropped, control frames skipped, and the first thing DecodeFrame (or
// the sequence, kind and destination checks) rejects ends the stream.
func oracle(stream []byte) (events []string) {
	var recv uint64
	for off := 0; ; {
		f, n, err := DecodeFrame(stream[off:])
		if err != nil {
			return events
		}
		off += n
		var seq uint64
		switch f.Kind {
		case kindPacket:
			seq = f.Packet.Seq
		case kindReplica:
			seq = f.ReplicaSeq
		case kindAck, kindBeat:
			continue
		default:
			return events
		}
		if seq <= recv {
			continue
		}
		if seq != recv+1 {
			return events
		}
		if f.Kind == kindReplica {
			events = append(events, replicaEvent(f.Replica))
		} else {
			if f.Packet.Dst.Task != 0 {
				return events
			}
			f.Packet.Seq = f.Packet.Hdr.Seq
			events = append(events, pktEvent(&f.Packet))
		}
		recv = seq
	}
}

// bareTransport is a transport hosting task 0 with no listener, no
// dialer and no beat frames: the tests hand it connections themselves.
func bareTransport(t testing.TB, cfg Config) *Transport {
	t.Helper()
	q := cfg.OutboundQueue
	cfg.Options = pairOptions(21)
	if q > 0 {
		cfg.OutboundQueue = q
	}
	cfg.BeatInterval = time.Hour
	cfg.Dims, cfg.PPN, cfg.HostedLo, cfg.HostedHi = dims2, 1, 0, 1
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

var helloFrom1 = Hello{TaskLo: 1, TaskHi: 2}

// scriptedPeer creates the record of the peer hosting task 1 with conn
// installed as connection incarnation 1, and no reader: the test runs
// readLoop itself, on its own goroutine if it likes.
func scriptedPeer(tr *Transport, conn net.Conn) *peer {
	tr.mu.Lock()
	p := tr.newPeerLocked(helloFrom1, "")
	tr.mu.Unlock()
	p.mu.Lock()
	p.conn, p.connGen = conn, 1
	p.changed()
	p.mu.Unlock()
	return p
}

func (t *Transport) runReader(p *peer, conn net.Conn, gen int) {
	t.wg.Add(1)
	t.readLoop(p, conn, gen)
}

func counter(t testing.TB, tr *Transport, name string) int64 {
	t.Helper()
	v, ok := tr.Telemetry().Snapshot().Counter(name)
	if !ok {
		t.Fatalf("no counter %q", name)
	}
	return v
}

func pattern(n int, salt uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(i)*31 + salt*7)
	}
	return b
}

// dataFrame appends a packet frame from task 1 to task 0 whose message
// header repeats the wire sequence number.
func dataFrame(dst []byte, seq uint64, size int, meta []byte) []byte {
	return appendPacket(dst, seq, mu.TaskAddr{Task: 0},
		mu.Header{Dispatch: 3, Origin: mu.TaskAddr{Task: 1}, Seq: seq, Total: size, Meta: meta}, pattern(size, seq))
}

// chunkingStream is every frame shape the reader has to cut right:
// empty to full-segment packets with and without metadata, control
// frames between them, a replica larger than the read buffer.
func chunkingStream() []byte {
	var s []byte
	seq := uint64(0)
	for _, size := range []int{0, 8, 512, 513, maxSegment - 1, maxSegment} {
		for _, meta := range [][]byte{nil, []byte("meta-bytes")} {
			seq++
			s = dataFrame(s, seq, size, meta)
			s = appendAck(s, seq) // ahead of anything sent: ignored
			s = appendBeat(s)
		}
	}
	seq++
	s = appendReplica(s, seq, pattern(3*readBuf+17, seq))
	seq++
	return dataFrame(s, seq, 8, nil)
}

// TestStreamChunkingInvariant feeds one byte stream to the reader cut
// into 1-byte, prime-sized and larger-than-the-buffer reads: every frame
// gets split at every offset, length prefixes arrive in pieces, frames
// straddle the end of the buffer — and the frames that come out are the
// same, and the ones DecodeFrame yields.
func TestStreamChunkingInvariant(t *testing.T) {
	stream := chunkingStream()
	want := oracle(stream)
	if len(want) != 14 {
		t.Fatalf("the oracle delivers %d frames of the test stream, want 14", len(want))
	}
	for _, chunk := range []int{1, 7, 4099, readBuf + 1, len(stream)} {
		var log rxLog
		beats := 0
		tr := bareTransport(t, Config{Deliver: log.deliver, OnReplica: log.replica, OnBeat: func(lo, hi int) { beats++ }})
		conn := newScriptConn(stream, chunk)
		p := scriptedPeer(tr, conn)
		tr.runReader(p, conn, 1)
		got := log.all()
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d frames delivered, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: frame %d is\n%s\nwant\n%s", chunk, i, got[i], want[i])
			}
		}
		if got := p.recvSeq.Load(); got != 14 {
			t.Fatalf("chunk %d: receive cursor %d, want 14", chunk, got)
		}
		if beats == 0 {
			t.Fatalf("chunk %d: valid frames arrived and liveness was never stamped", chunk)
		}
		if n := counter(t, tr, "frames_received"); n != 14+24 {
			t.Fatalf("chunk %d: frames_received %d, want %d", chunk, n, 14+24)
		}
		if n, want := counter(t, tr, "bytes_received"), int64(len(stream)); n != want {
			t.Fatalf("chunk %d: bytes_received %d, want %d", chunk, n, want)
		}
		// The script ending is an I/O drop, with its cause kept.
		pi := tr.Peers()[0]
		if pi.Connected || !errors.Is(pi.LastError, io.EOF) || pi.LastDisconnect.IsZero() {
			t.Fatalf("chunk %d: peer after EOF: %+v", chunk, pi)
		}
		if ioDrops, sum := counter(t, tr, "drops_io"), counter(t, tr, "stream_drops"); ioDrops != 1 || sum != 1 {
			t.Fatalf("chunk %d: drops_io %d, stream_drops %d, want 1 and 1", chunk, ioDrops, sum)
		}
	}
}

// TestHostileLengthNeverAllocates: a length prefix beyond MaxFrame, or
// too short to hold a crc and a kind, cuts the connection before any
// buffer is sized by it — whether the prefix arrives whole or a byte at
// a time — and what was valid ahead of it is still delivered.
func TestHostileLengthNeverAllocates(t *testing.T) {
	for _, hostile := range []uint32{MaxFrame + 1, 0x7fffffff, 0xffffffff, 4, 0} {
		for _, chunk := range []int{1, 1 << 20} {
			stream := dataFrame(nil, 1, 8, nil)
			stream = append(stream, byte(hostile>>24), byte(hostile>>16), byte(hostile>>8), byte(hostile))
			stream = append(stream, bytes.Repeat([]byte{0xaa}, 64)...)
			var log rxLog
			tr := bareTransport(t, Config{Deliver: log.deliver})
			conn := newScriptConn(stream, chunk)
			p := scriptedPeer(tr, conn)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr.runReader(p, conn, 1)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*readBuf {
				t.Fatalf("prefix %#x, chunk %d: the reader allocated %d bytes", hostile, chunk, grew)
			}
			if got := log.all(); len(got) != 1 {
				t.Fatalf("prefix %#x, chunk %d: %d frames delivered, want the 1 valid one", hostile, chunk, len(got))
			}
			pi := tr.Peers()[0]
			if pi.Connected || !(errors.Is(pi.LastError, ErrFrameTooLarge) || errors.Is(pi.LastError, ErrFrameCorrupt)) {
				t.Fatalf("prefix %#x, chunk %d: peer after the hostile prefix: %+v", hostile, chunk, pi)
			}
			if crc, sum := counter(t, tr, "drops_crc"), counter(t, tr, "stream_drops"); crc != 1 || sum != 1 {
				t.Fatalf("prefix %#x, chunk %d: drops_crc %d, stream_drops %d, want 1 and 1", hostile, chunk, crc, sum)
			}
			var links strings.Builder
			tr.WriteLinks(&links)
			if !strings.Contains(links.String(), "connected=false") || !strings.Contains(links.String(), "last disconnect") || !strings.Contains(links.String(), "wire:") {
				t.Fatalf("the link table does not say why the link broke:\n%s", links.String())
			}
		}
	}
}

// TestReconnectIsNotABeat: the first attach of a peer ends its bootstrap
// grace and so counts as a sign of life; a reconnect does not — only
// frames do. (A survivor redialing a respawned listener that refuses its
// stale cursor reconnects thousands of times a second: were each a beat,
// the dead incarnation would never be confirmed dead, and the new one
// never admitted.)
func TestReconnectIsNotABeat(t *testing.T) {
	var stamps atomic.Int64
	opts := pairOptions(26)
	opts.BeatInterval = time.Hour // no frame will flow by itself
	a, err := New(Config{Options: optListen(opts, "127.0.0.1:0"), Dims: dims2, PPN: 1, HostedLo: 0, HostedHi: 1,
		Deliver: newCollector().deliver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := New(Config{Options: optJoin(opts, a.Addr()), Dims: dims2, PPN: 1, HostedLo: 1, HostedHi: 2,
		Deliver: newCollector().deliver, OnBeat: func(lo, hi int) { stamps.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.WaitComplete(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := stamps.Load(); n != 1 {
		t.Fatalf("%d liveness stamps after the first attach, want 1", n)
	}
	for cut := int64(1); cut <= 3; cut++ {
		b.SeverConnections()
		waitFor(t, 26, 5*time.Second, func() bool { pi := b.Peers()[0]; return pi.Reconnects == cut && pi.Connected }, "reconnect")
	}
	if n := stamps.Load(); n != 1 {
		t.Fatalf("%d liveness stamps after three reconnects with no frame exchanged, want the 1 of the first attach", n)
	}
	// A frame still is one.
	if err := a.Send(mu.TaskAddr{Task: 1}, mu.Header{Origin: mu.TaskAddr{Task: 0}, Total: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 26, 5*time.Second, func() bool { return stamps.Load() == 2 }, "a frame stamps the peer alive")
}

// TestSequenceGapCutsAndCounts: a data frame that skips a sequence number
// kills the connection and is counted as a gap, not as corruption.
func TestSequenceGapCutsAndCounts(t *testing.T) {
	stream := dataFrame(dataFrame(nil, 1, 8, nil), 3, 8, nil)
	var log rxLog
	tr := bareTransport(t, Config{Deliver: log.deliver})
	conn := newScriptConn(stream, len(stream))
	p := scriptedPeer(tr, conn)
	tr.runReader(p, conn, 1)
	if got := log.all(); len(got) != 1 {
		t.Fatalf("%d frames delivered across a gap, want 1", len(got))
	}
	if pi := tr.Peers()[0]; !errors.Is(pi.LastError, ErrFrameCorrupt) {
		t.Fatalf("gap not reported as a corrupt stream: %v", pi.LastError)
	}
	if gap, crc := counter(t, tr, "drops_seq_gap"), counter(t, tr, "drops_crc"); gap != 1 || crc != 0 {
		t.Fatalf("drops_seq_gap %d, drops_crc %d, want 1 and 0", gap, crc)
	}
}

// TestReceiveZeroAlloc: decoding and delivering a burst — 64 packets, an
// ack, a beat, the burst-end settlement — allocates nothing.
func TestReceiveZeroAlloc(t *testing.T) {
	var burst []byte
	for seq := uint64(1); seq <= 64; seq++ {
		burst = dataFrame(burst, seq, 8, nil)
	}
	burst = appendBeat(appendAck(burst, 0))
	var delivered, ended, beats int
	tr := bareTransport(t, Config{
		Deliver:  func(_ mu.TaskAddr, _ mu.Header, b []byte) (int, error) { delivered++; return len(b), nil },
		BurstEnd: func(dsts []mu.TaskAddr) { ended += len(dsts) },
		OnBeat:   func(lo, hi int) { beats++ },
	})
	conn := newScriptConn(nil, 1)
	conn.hold = true
	p := scriptedPeer(tr, conn)
	var rx rxBurst
	run := func() {
		p.recvSeq.Store(0)
		if used, err := tr.burst(p, 1, &rx, burst); err != nil || used != len(burst) {
			t.Fatalf("burst: used %d of %d, err %v", used, len(burst), err)
		}
	}
	run() // warm the destination list, the writer's scratch
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("a 64-frame burst allocates %.1f times", allocs)
	}
	if delivered != 202*64 || ended != 202 || beats != 202 {
		t.Fatalf("delivered %d frames, %d burst ends, %d liveness stamps over 202 bursts", delivered, ended, beats)
	}
}

// TestSendZeroAlloc: a steady-state 8 B Send, with the writer that ships
// it, the peer's reader that delivers it and the ack coming back,
// allocates nothing.
func TestSendZeroAlloc(t *testing.T) {
	var delivered atomic.Int64
	arrived := make(chan struct{}, 1) // a park, not a Gosched spin: that starves the netpoller
	opts := pairOptions(22)
	opts.BeatInterval = time.Hour // the beater allocates its peer snapshot
	sink := func(_ mu.TaskAddr, _ mu.Header, b []byte) (int, error) {
		delivered.Add(1)
		select {
		case arrived <- struct{}{}:
		default:
		}
		return len(b), nil
	}
	a, err := New(Config{Options: optListen(opts, "127.0.0.1:0"), Dims: dims2, PPN: 1, HostedLo: 0, HostedHi: 1, Deliver: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Options: optJoin(opts, a.Addr()), Dims: dims2, PPN: 1, HostedLo: 1, HostedHi: 2, Deliver: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.WaitComplete(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var payload [8]byte
	var sent int64
	send := func() {
		hdr := mu.Header{Dispatch: 1, Origin: mu.TaskAddr{Task: 1}, Seq: uint64(sent), Total: 8}
		for {
			err := b.Send(mu.TaskAddr{Task: 0}, hdr, payload[:])
			if err == nil {
				break
			}
			// Delivered is not acknowledged: the scheduler can keep the
			// reader that trims the ring off its core for a time slice
			// while this loop runs laps. The refusal is prebuilt.
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("send %d: %v", sent, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		sent++
		for delivered.Load() < sent {
			<-arrived
		}
	}
	for i := 0; i < 2000; i++ { // past one lap of the ring
		send()
	}
	if allocs := testing.AllocsPerRun(2000, send); allocs != 0 {
		t.Fatalf("a steady-state 8 B send allocates %.2f times", allocs)
	}
}

// TestBurstWakesBeforeStall: the destination refuses (its FIFO is full)
// and its consumer is parked until BurstEnd wakes it. A reader that
// slept on the refusal with the burst's wake-up still owed would sleep
// forever; it must settle the burst first, and the stream completes.
func TestBurstWakesBeforeStall(t *testing.T) {
	const frames, fifoCap = 40, 4
	var mu1 sync.Mutex
	queued, consumed := 0, 0
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() { // parked until woken; then drains what is queued
		defer consumer.Done()
		for {
			select {
			case <-stop:
				return
			case <-wake:
			}
			mu1.Lock()
			consumed += queued
			queued = 0
			mu1.Unlock()
		}
	}()
	tr := bareTransport(t, Config{
		Deliver: func(_ mu.TaskAddr, _ mu.Header, b []byte) (int, error) {
			mu1.Lock()
			defer mu1.Unlock()
			if queued == fifoCap {
				return 0, errSaturated
			}
			queued++
			return len(b), nil
		},
		BurstEnd: func([]mu.TaskAddr) {
			select {
			case wake <- struct{}{}:
			default:
			}
		},
	})
	var stream []byte
	for seq := uint64(1); seq <= frames; seq++ {
		stream = dataFrame(stream, seq, 8, nil)
	}
	conn := newScriptConn(stream, len(stream)) // one read, one burst
	p := scriptedPeer(tr, conn)
	done := make(chan struct{})
	go func() { tr.runReader(p, conn, 1); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("the reader never got past the full FIFO: it slept with the consumer's wake-up still owed (receive cursor %d of %d)",
			p.recvSeq.Load(), frames)
	}
	waitFor(t, 23, 5*time.Second, func() bool { mu1.Lock(); defer mu1.Unlock(); return consumed == frames }, "consumer drains the tail")
	close(stop)
	consumer.Wait()
	if counter(t, tr, "deliver_stalls") == 0 {
		t.Fatal("the FIFO never refused: the test proved nothing")
	}
}

// TestSeveredReaderStopsAtGeneration: the reader of a severed connection
// can still hold frames its successor is being resent. Inside a burst it
// owns rxMu, so the successor waits and then sees duplicates; between
// bursts it notices the generation moved on and takes no further step.
// Either way every frame is delivered once.
func TestSeveredReaderStopsAtGeneration(t *testing.T) {
	frames := func(from, to uint64) (s []byte) {
		for seq := from; seq <= to; seq++ {
			s = dataFrame(s, seq, 8, nil)
		}
		return s
	}
	check := func(t *testing.T, tr *Transport, log *rxLog, n int, dups int64) {
		t.Helper()
		waitFor(t, 24, 5*time.Second, func() bool { return len(log.all()) >= n }, "deliveries")
		want := oracle(frames(1, uint64(n)))
		got := log.all()
		if len(got) != n {
			t.Fatalf("%d deliveries, want %d:\n%s", len(got), n, strings.Join(got, "\n"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivery %d is %s, want %s", i, got[i], want[i])
			}
		}
		if d := counter(t, tr, "dup_drops"); d != dups {
			t.Fatalf("dup_drops %d, want %d", d, dups)
		}
	}

	t.Run("between bursts", func(t *testing.T) {
		var log rxLog
		tr := bareTransport(t, Config{Deliver: log.deliver})
		one := len(frames(1, 1))
		old := newScriptConn(frames(1, 6), 3*one) // two bursts: 1..3, 4..6
		old.sticky = true
		next := newScriptConn(frames(4, 7), 4*one) // the resend, and one more
		next.hold = true
		old.before = func(pos int) {
			if pos == 3*one { // 1..3 delivered: the successor attaches now
				if _, err := tr.attachPeer(next, helloFrom1, ""); err != nil {
					t.Errorf("attach: %v", err)
				}
				waitFor(t, 24, 5*time.Second, func() bool { return len(log.all()) == 7 }, "successor delivers 4..7")
			}
		}
		p := scriptedPeer(tr, old)
		tr.runReader(p, old, 1) // returns: the second burst found its generation gone
		if !old.drained() {
			t.Fatal("the severed reader never read its second burst: the test proved nothing")
		}
		check(t, tr, &log, 7, 0)
	})

	t.Run("inside a burst", func(t *testing.T) {
		var log rxLog
		stalled, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		tr := bareTransport(t, Config{Deliver: func(dst mu.TaskAddr, hdr mu.Header, b []byte) (int, error) {
			if hdr.Seq == 2 {
				once.Do(func() { close(stalled); <-release })
			}
			return log.deliver(dst, hdr, b)
		}})
		old := newScriptConn(frames(1, 3), 1<<20)
		old.sticky = true
		next := newScriptConn(frames(1, 4), 1<<20) // nothing was acked: all of it again
		next.hold = true
		p := scriptedPeer(tr, old)
		done := make(chan struct{})
		go func() { tr.runReader(p, old, 1); close(done) }()
		<-stalled // the old reader is inside its burst, frame 2 in hand
		if _, err := tr.attachPeer(next, helloFrom1, ""); err != nil {
			t.Fatalf("attach: %v", err)
		}
		waitFor(t, 24, 5*time.Second, next.drained, "successor reads the resend")
		time.Sleep(20 * time.Millisecond) // let it reach rxMu; too short only makes the test lenient
		if n := len(log.all()); n != 1 {
			t.Fatalf("%d deliveries while the old burst held rxMu, want 1", n)
		}
		close(release)
		<-done
		check(t, tr, &log, 4, 3)
	})
}

// TestSendRingModel drives the send ring through wraps, growth and
// trims — random frame sizes into a ring of eight slots, acks trailing
// what the connection has taken — and checks the one thing that matters:
// the bytes the writer hands the socket are every frame, once, in order.
func TestSendRingModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := bareTransport(t, Config{Options: Options{OutboundQueue: 8}, Deliver: new(rxLog).deliver})
		conn := newScriptConn(nil, 1)
		conn.hold, conn.keep = true, true
		p := scriptedPeer(tr, conn)
		var want []byte
		sizes := []int{0, 8, 40, 300, 1500}
		written := func() (n uint64) { // complete frames the connection has taken
			for b := conn.wrote(); ; n++ {
				_, used, err := DecodeFrame(b)
				if err != nil {
					return n
				}
				b = b[used:]
			}
		}
		for seq := uint64(1); seq <= 400; {
			size := sizes[rng.Intn(len(sizes))]
			hdr := mu.Header{Dispatch: 3, Origin: mu.TaskAddr{Task: 0}, Seq: seq, Total: size}
			err := tr.Send(mu.TaskAddr{Task: 1}, hdr, pattern(size, seq))
			switch {
			case err == nil:
				want = appendPacket(want, seq, mu.TaskAddr{Task: 1}, hdr, pattern(size, seq))
				seq++
			case !errors.Is(err, ErrBackpressure):
				t.Fatalf("seed %d: send %d: %v", seed, seq, err)
			}
			if err != nil || rng.Intn(3) == 0 { // the peer acknowledges some prefix of what it was sent
				p.mu.Lock()
				if w := written(); w > p.ackedSeq {
					p.ackedSeq += 1 + uint64(rng.Int63n(int64(w-p.ackedSeq)))
				}
				p.mu.Unlock()
				runtime.Gosched()
			}
		}
		waitFor(t, seed, 5*time.Second, func() bool { return len(conn.wrote()) >= len(want) }, "writer drains the ring")
		if got := conn.wrote(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the socket was handed %d bytes that are not the %d bytes of the 400 frames in order", seed, len(got), len(want))
		}
		if n := counter(t, tr, "resends"); n != 0 {
			t.Fatalf("seed %d: %d resends on a connection that never broke", seed, n)
		}
	}
}

// propSink reassembles messages for the property test and notes every
// violation instead of failing inside the reader goroutine.
type propSink struct {
	mu     sync.Mutex
	cur    map[uint64][]byte // message seq -> bytes so far
	log    []string          // completed messages and replicas, in order
	faults []string
}

func (s *propSink) deliver(dst mu.TaskAddr, hdr mu.Header, payload []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	have, started := s.cur[hdr.Seq]
	if len(have) != hdr.Offset || (started && hdr.Offset == 0) {
		s.faults = append(s.faults, fmt.Sprintf("message %d: segment at offset %d with %d bytes held (duplicate or reordered)", hdr.Seq, hdr.Offset, len(have)))
		return len(payload), nil
	}
	if hdr.Offset == 0 != (hdr.Meta != nil) && hdr.Seq%2 == 1 {
		s.faults = append(s.faults, fmt.Sprintf("message %d: metadata on the wrong segment (offset %d)", hdr.Seq, hdr.Offset))
	}
	have = append(have, payload...)
	s.cur[hdr.Seq] = have
	if len(have) == hdr.Total {
		s.log = append(s.log, fmt.Sprintf("msg %d len=%d crc=%08x", hdr.Seq, len(have), crc32.ChecksumIEEE(have)))
		s.cur[hdr.Seq] = nil
	}
	return len(payload), nil
}

func (s *propSink) replica(blob []byte) {
	s.mu.Lock()
	s.log = append(s.log, replicaEvent(blob))
	s.mu.Unlock()
}

func (s *propSink) snapshot() (log, faults []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...), append([]string(nil), s.faults...)
}

// TestWireBurstProperty: messages of every size class (empty, one
// packet, just past one, a segment give or take a byte, 1 MiB in 33
// segments), with and without metadata, and 1 MiB replicas between
// them, in a seeded random order, through connections severed at random
// points and through cut and corruption storms — each arrives exactly
// once, in order, byte-exact, and the transports are quiescent at rest.
func TestWireBurstProperty(t *testing.T) {
	sizes := []int{0, 8, 512, 513, maxSegment - 1, maxSegment, maxSegment + 1, 1 << 20}
	for _, tc := range []struct {
		name          string
		seed          int64
		drop, corrupt float64
		sever         bool
	}{
		{"severed", 31, 0, 0, true},
		{"cut storm", 32, 0.05, 0, false},
		{"corruption storm", 33, 0, 0.03, true},
		{"clean", 34, 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			sink := &propSink{cur: make(map[uint64][]byte)}
			opts := pairOptions(tc.seed)
			opts.DropProb, opts.CorruptProb = tc.drop, tc.corrupt
			a, err := New(Config{Options: optListen(opts, "127.0.0.1:0"), Dims: dims2, PPN: 1, HostedLo: 0, HostedHi: 1,
				Deliver: sink.deliver, OnReplica: sink.replica})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			b, err := New(Config{Options: optJoin(opts, a.Addr()), Dims: dims2, PPN: 1, HostedLo: 1, HostedHi: 2,
				Deliver: newCollector().deliver})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			if err := b.WaitComplete(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			retry := func(what string, send func() error) {
				for step := int64(0); ; step++ {
					err := send()
					if err == nil {
						return
					}
					if !errors.Is(err, ErrBackpressure) {
						t.Fatalf("%s: %v", what, err)
					}
					time.Sleep(fault.Jitter(tc.seed, step, 200*time.Microsecond))
				}
			}
			var want []string
			big := 0
			for i := uint64(0); i < 120; i++ {
				size := sizes[rng.Intn(len(sizes))]
				if size == 1<<20 {
					if big++; big > 3 {
						size = 513
					}
				}
				if tc.sever && rng.Intn(10) == 0 {
					a.SeverConnections()
					b.SeverConnections()
				}
				if rng.Intn(40) == 0 {
					blob := pattern(maxReplica-rng.Intn(4096), i)
					retry("replica", func() error { return b.SendReplica(0, blob) })
					want = append(want, replicaEvent(blob))
				}
				payload := pattern(size, i)
				hdr := mu.Header{Dispatch: 2, Origin: mu.TaskAddr{Task: 1}, Seq: i, Total: size}
				if i%2 == 1 {
					hdr.Meta = []byte("meta")
				}
				retry(fmt.Sprintf("send %d", i), func() error { return b.Send(mu.TaskAddr{Task: 0}, hdr, payload) })
				want = append(want, fmt.Sprintf("msg %d len=%d crc=%08x", i, size, crc32.ChecksumIEEE(payload)))
			}
			waitFor(t, tc.seed, 60*time.Second, func() bool { log, _ := sink.snapshot(); return len(log) >= len(want) }, "every message and replica arrives")
			waitFor(t, tc.seed, 10*time.Second, func() bool { return a.Quiesced() == nil && b.Quiesced() == nil }, "quiescence at rest")
			got, faults := sink.snapshot()
			if len(faults) > 0 {
				t.Fatalf("%d violations, first: %s", len(faults), faults[0])
			}
			if len(got) != len(want) {
				t.Fatalf("%d arrivals, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("arrival %d is %q, want %q", i, got[i], want[i])
				}
			}
			snap := b.Telemetry().Snapshot()
			re, _ := snap.Counter("reconnects")
			rs, _ := snap.Counter("resends")
			if (tc.sever || tc.drop > 0 || tc.corrupt > 0) && re == 0 {
				t.Fatal("the storm never broke a connection: the test proved nothing")
			}
			t.Logf("%d arrivals in order through %d reconnects and %d resent frames", len(got), re, rs)
		})
	}
}

// FuzzStreamReader: a valid stream, one byte of it flipped, arbitrary
// bytes appended, cut into arbitrary reads — the reader never panics and
// delivers exactly what DecodeFrame accepts up to the first rejection.
func FuzzStreamReader(f *testing.F) {
	f.Add([]byte(nil), uint16(0), uint32(0), byte(0))
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4, 6}, uint16(6), uint32(60), byte(0x40))
	f.Add(dataFrame(nil, 5, 8, nil), uint16(56), uint32(1<<31), byte(1))
	f.Add(appendHello(nil, kindHello, testHello()), uint16(999), uint32(3), byte(0x80))
	base := dataFrame(dataFrame(appendBeat(appendAck(dataFrame(nil, 1, 8, []byte("m")), 9)), 2, 600, nil), 3, 0, nil)
	base = dataFrame(appendReplica(base, 4, pattern(100, 4)), 5, 8, nil)
	f.Fuzz(func(t *testing.T, tail []byte, chunk uint16, at uint32, flip byte) {
		stream := append(append([]byte(nil), base...), tail...)
		stream[int(at)%len(stream)] ^= flip
		var log rxLog
		tr := bareTransport(t, Config{Deliver: log.deliver, OnReplica: log.replica})
		conn := newScriptConn(stream, int(chunk)%300+1)
		p := scriptedPeer(tr, conn)
		tr.runReader(p, conn, 1)
		tr.Close()
		got, want := log.all(), oracle(stream)
		if len(got) != len(want) {
			t.Fatalf("%d frames delivered, DecodeFrame accepts %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d delivered as\n%s\nDecodeFrame says\n%s", i, got[i], want[i])
			}
		}
	})
}
