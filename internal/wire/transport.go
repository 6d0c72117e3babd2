package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pamigo/internal/fault"
	"pamigo/internal/mu"
	"pamigo/internal/telemetry"
	"pamigo/internal/torus"
)

// Defaults for Options zero fields.
const (
	DefaultDialTimeout   = 2 * time.Second
	DefaultBeatInterval  = 2 * time.Millisecond
	DefaultBackoffBase   = 5 * time.Millisecond
	DefaultBackoffMax    = 500 * time.Millisecond
	DefaultOutboundQueue = 1024
)

// writeDeadline bounds one connection write, per 256 KiB: a peer that
// stops reading breaks the connection instead of wedging the writer.
const writeDeadline = 2 * time.Second

// readBuf is the stream reader's buffer: what one read(2) returns is one
// burst. Only a replica can exceed it, and is read at its exact size.
const readBuf = 64 << 10

// Options is the operator-facing tuning of a wire transport. Addresses
// are "host:port" for TCP or "unix:/path" for Unix-domain sockets.
type Options struct {
	// Listen is the address other processes join this one at; empty
	// means this process dials only.
	Listen string
	// Join lists the listen addresses of the already-started processes
	// of the partition (the "join all earlier" convention: process k
	// dials processes 0..k-1, so the mesh needs no broker).
	Join []string
	// Partition is the shared partition ID; handshakes refuse peers
	// carrying a different one.
	Partition uint64
	// DialTimeout bounds one dial attempt (and one handshake read).
	DialTimeout time.Duration
	// BeatInterval is the heartbeat period: beat frames fill the silence
	// of an idle link for the phi-accrual failure detector.
	BeatInterval time.Duration
	// BackoffBase/BackoffMax shape the dialer's capped-exponential
	// reconnect backoff (jittered deterministically from Seed).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// OutboundQueue bounds the per-peer outbound+resend window, in
	// frames. When full, sends fail with ErrBackpressure — the
	// transport never buffers unboundedly for a slow peer.
	OutboundQueue int
	// Seed drives the deterministic backoff jitter and the frame-fault
	// storm, so a chaos run replays exactly.
	Seed int64
	// DropProb cuts the connection instead of writing a flush (models a
	// link cut); CorruptProb flips a byte in a flush so the receiver's
	// CRC check kills the connection. Both exercise the
	// reconnect+resend path; delivery stays exactly-once.
	DropProb    float64
	CorruptProb float64
	// Incarnation is this process's restart ordinal for its task range:
	// 0 at first launch, bumped by the respawn supervisor on every
	// automatic restart. Carried in handshakes; the rejoin path admits a
	// dead range only when it presents a strictly higher incarnation
	// than the one that died.
	Incarnation uint32
}

// Config wires a Transport into its process: the partition geometry,
// the locally hosted task range, and the fabric callbacks.
type Config struct {
	Options
	// Dims and PPN are the partition shape every process must agree on.
	Dims torus.Dims
	PPN  int
	// HostedLo/HostedHi is this process's task range [lo, hi),
	// node-aligned (multiples of PPN).
	HostedLo, HostedHi int
	// Deliver injects an arriving message segment into the local
	// fabric, returning bytes consumed (mu.Fabric.DeliverRemoteBurst).
	Deliver func(dst mu.TaskAddr, hdr mu.Header, payload []byte) (int, error)
	// OnBeat, if non-nil, is called once per read burst that held a valid
	// frame — any frame, not only a beat: whatever passes its CRC proves
	// the peer hosting tasks [taskLo, taskHi) alive.
	OnBeat func(taskLo, taskHi int)
	// BurstEnd, if non-nil, makes Deliver the quiet half of a burst: only
	// BurstEnd, called with the destinations Deliver was handed once the
	// read buffer runs dry (and before every delivery-stall sleep), wakes
	// their consumers. Nil means Deliver wakes its consumer by itself.
	BurstEnd func(dsts []mu.TaskAddr)
	// RangeDead, if non-nil, reports whether any node hosting tasks
	// [lo, hi) is confirmed dead; joins from such ranges are fenced
	// (a restarted process may not impersonate a dead one).
	RangeDead func(lo, hi int) bool
	// OnRejoin, if non-nil, arms the self-healing rejoin path: a
	// confirmed-dead range presenting a strictly higher incarnation than
	// the one that died is re-admitted instead of fenced. The callback
	// fires before the new connection attaches — the machine revives the
	// range (health, fabric, classroutes) inside it, so by the time
	// traffic flows RangeDead is false again. Zombies (the dead
	// incarnation itself reconnecting) still get rejectDead.
	OnRejoin func(taskLo, taskHi int, incarnation uint32)
	// OnReplica, if non-nil, receives buddy-checkpoint replica blobs
	// sent by peers via SendReplica. The blob is only valid for the
	// duration of the call; decode or copy before returning.
	OnReplica func(blob []byte)
}

// peer is the persistent per-peer-process state: identity, the current
// connection (nil while disconnected), and the sequence machinery that
// makes delivery exactly-once across reconnects.
type peer struct {
	t              *Transport
	taskLo, taskHi int
	addr           string // dial address; "" for accepted peers
	errDead        error  // the typed refusals, built once: senders retry them in a loop
	errFull        error

	rxMu    sync.Mutex    // one read burst at a time across connection incarnations; taken before mu
	recvSeq atomic.Uint64 // last in-order seq delivered from the peer; stored under rxMu

	mu      sync.Mutex
	cond    *sync.Cond // connection state changed (the dial supervisor waits here)
	wake    *sync.Cond // the writer's park
	idle    bool       // the writer is parked on wake
	conn    net.Conn
	connGen int // bumped per attached connection
	ackDue  bool
	beatDue bool
	flushes int64 // writer flush ordinal (fault-storm coordinates)
	dead    bool
	closed  bool

	// The send ring: every unacknowledged frame, encoded, in sequence
	// order; frame s is contiguous from buf[offs[s%len(offs)]], the ring
	// wraps between frames. ackedSeq <= sentSeq <= sendSeq: an ack moves
	// the first, a socket write the second, a send the third; a broken
	// connection rewinds sentSeq to ackedSeq and the same bytes go again.
	buf      []byte
	offs     []int
	head     int    // where the next frame goes
	wrap     int    // where the frames before the wrap end, while head is below them
	sendSeq  uint64 // last data seq assigned
	ackedSeq uint64 // cumulative seq the peer has acknowledged
	sentSeq  uint64 // last seq written on the current connection
	everSent uint64 // highest seq ever written (resend accounting)
	// held pins the frames above it while the writer's socket write has
	// them: their ack can overtake it (DESIGN §7b). noWrite otherwise.
	held  uint64
	wvec  [3][]byte   // writer-only: one flush's control frames and ring span(s)
	wbufs net.Buffers // writer-only: the part of wvec the socket write has yet to take

	reconnects int64
	lastErr    error // why the last connection broke
	lastDown   time.Time
}

const noWrite = ^uint64(0)

// PeerInfo is a snapshot of one peer's state, for drivers and tests.
type PeerInfo struct {
	TaskLo, TaskHi int
	Addr           string
	Connected      bool
	Dead           bool
	Reconnects     int64
	LastError      error // why and when the latest connection broke
	LastDisconnect time.Time
}

// Transport is a TCP/Unix-socket inter-process transport implementing
// mu.Transport. One per process; peers are the other processes of the
// partition.
type Transport struct {
	cfg    Config
	nTasks int
	ln     net.Listener

	mu      sync.Mutex
	cond    *sync.Cond // roster or connectivity changed
	peers   map[int]*peer
	byTask  []atomic.Pointer[peer] // peers, indexed by hosted task: Send's lock-free lookup
	increc  map[int]uint32         // highest incarnation admitted per peer taskLo
	dials   map[string]*dialState
	pending map[net.Conn]struct{} // inbound conns mid-handshake
	closed  bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	tele          *telemetry.Registry
	framesSent    *telemetry.Counter
	framesRecv    *telemetry.Counter
	bytesSent     *telemetry.Counter
	bytesRecv     *telemetry.Counter
	resends       *telemetry.Counter
	reconnectsCtr *telemetry.Counter
	dupDrops      *telemetry.Counter
	streamDrops   *telemetry.Counter // dropsCRC + dropsSeqGap + dropsIO
	dropsCRC      *telemetry.Counter
	dropsSeqGap   *telemetry.Counter
	dropsIO       *telemetry.Counter
	socketReads   *telemetry.Counter
	socketWrites  *telemetry.Counter
	writerWakes   *telemetry.Counter
	bursts        *telemetry.Counter
	burstHWM      *telemetry.Gauge
	beatsSent     *telemetry.Counter
	beatsRecv     *telemetry.Counter
	acksSent      *telemetry.Counter
	backpressured *telemetry.Counter
	rejectsSent   *telemetry.Counter
	deliverStalls *telemetry.Counter
	cutsInjected  *telemetry.Counter
	corrInjected  *telemetry.Counter
	replicasSent  *telemetry.Counter
	replicasRecv  *telemetry.Counter
	rejoins       *telemetry.Counter
	bindRetries   *telemetry.Counter
}

var _ mu.Transport = (*Transport)(nil)

// New builds a transport, binds its listener, and starts dialing the
// Join addresses. Traffic may be sent once WaitComplete succeeds.
func New(cfg Config) (*Transport, error) {
	if err := cfg.Dims.Validate(); err != nil {
		return nil, err
	}
	if cfg.PPN < 1 {
		return nil, fmt.Errorf("wire: invalid PPN %d", cfg.PPN)
	}
	nTasks := cfg.Dims.Nodes() * cfg.PPN
	if cfg.HostedLo < 0 || cfg.HostedHi > nTasks || cfg.HostedLo >= cfg.HostedHi {
		return nil, fmt.Errorf("wire: hosted range [%d,%d) outside the %d-task partition", cfg.HostedLo, cfg.HostedHi, nTasks)
	}
	if cfg.HostedLo%cfg.PPN != 0 || cfg.HostedHi%cfg.PPN != 0 {
		return nil, fmt.Errorf("wire: hosted range [%d,%d) does not align to node boundaries (PPN %d)", cfg.HostedLo, cfg.HostedHi, cfg.PPN)
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("wire: Config.Deliver is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.BeatInterval <= 0 {
		cfg.BeatInterval = DefaultBeatInterval
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = cfg.BackoffBase
	}
	if cfg.OutboundQueue <= 0 {
		cfg.OutboundQueue = DefaultOutboundQueue
	}
	t := &Transport{
		cfg:     cfg,
		nTasks:  nTasks,
		peers:   make(map[int]*peer),
		byTask:  make([]atomic.Pointer[peer], nTasks),
		increc:  make(map[int]uint32),
		dials:   make(map[string]*dialState),
		pending: make(map[net.Conn]struct{}),
		closeCh: make(chan struct{}),
		tele:    telemetry.NewRegistry("wire"),
	}
	t.cond = sync.NewCond(&t.mu)
	t.framesSent = t.tele.Counter("frames_sent")
	t.framesRecv = t.tele.Counter("frames_received")
	t.bytesSent = t.tele.Counter("bytes_sent")
	t.bytesRecv = t.tele.Counter("bytes_received")
	t.resends = t.tele.Counter("resends")
	t.reconnectsCtr = t.tele.Counter("reconnects")
	t.dupDrops = t.tele.Counter("dup_drops")
	t.streamDrops = t.tele.Counter("stream_drops")
	t.dropsCRC = t.tele.Counter("drops_crc")
	t.dropsSeqGap = t.tele.Counter("drops_seq_gap")
	t.dropsIO = t.tele.Counter("drops_io")
	t.socketReads = t.tele.Counter("socket_reads")
	t.socketWrites = t.tele.Counter("socket_writes")
	t.writerWakes = t.tele.Counter("writer_wakes")
	t.bursts = t.tele.Counter("bursts")
	t.burstHWM = t.tele.Gauge("burst_frames_hwm")
	t.beatsSent = t.tele.Counter("beats_sent")
	t.beatsRecv = t.tele.Counter("beats_received")
	t.acksSent = t.tele.Counter("acks_sent")
	t.backpressured = t.tele.Counter("backpressure_refusals")
	t.rejectsSent = t.tele.Counter("rejects_sent")
	t.deliverStalls = t.tele.Counter("deliver_stalls")
	t.cutsInjected = t.tele.Counter("conn_cuts_injected")
	t.corrInjected = t.tele.Counter("corrupts_injected")
	t.replicasSent = t.tele.Counter("replicas_sent")
	t.replicasRecv = t.tele.Counter("replicas_received")
	t.rejoins = t.tele.Counter("rejoins")
	t.bindRetries = t.tele.Counter("bind_retries")
	if cfg.Listen != "" {
		network, target := splitAddr(cfg.Listen)
		ln, err := t.listenRetry(network, target)
		if err != nil {
			return nil, fmt.Errorf("wire: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	for _, addr := range cfg.Join {
		addr := addr
		t.dials[addr] = &dialState{peerLo: -1}
		t.wg.Add(1)
		go t.supervise(addr)
	}
	t.wg.Add(1)
	go t.beater()
	return t, nil
}

// dialState tracks a Join address's progress for WaitComplete reporting.
type dialState struct {
	lastErr  error
	terminal bool
	peerLo   int // -1 until a handshake reveals the peer's identity
}

// Bind-retry schedule: a respawned process routinely rebinds the dead
// incarnation's port before the OS has released it (lingering sockets
// from the SIGKILLed process), so EADDRINUSE at boot is transient.
const (
	bindAttempts    = 40
	bindBackoffBase = 5 * time.Millisecond
	bindBackoffMax  = 250 * time.Millisecond
)

// listenRetry binds the listen address, retrying EADDRINUSE with capped
// deterministic backoff (worst case a few seconds). Any other bind
// error — a malformed address, a permission problem — fails
// immediately: only the transient port-reuse race is worth waiting out.
func (t *Transport) listenRetry(network, target string) (net.Listener, error) {
	var last error
	for attempt := 1; attempt <= bindAttempts; attempt++ {
		ln, err := net.Listen(network, target)
		if err == nil {
			return ln, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
		last = err
		t.bindRetries.Inc()
		if !t.sleep(backoffDelay(bindBackoffBase, bindBackoffMax, t.cfg.Seed, attempt, int64(attempt))) {
			break
		}
	}
	return nil, last
}

// splitAddr maps "unix:/path" to the unix network and anything else to
// tcp.
func splitAddr(addr string) (network, target string) {
	if p, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", p
	}
	return "tcp", addr
}

// Telemetry returns the transport's counter registry for adoption into
// the machine-wide tree.
func (t *Transport) Telemetry() *telemetry.Registry { return t.tele }

// Addr returns the bound listen address ("" when not listening).
// Listeners bound to port 0 report the kernel-assigned port.
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	if t.ln.Addr().Network() == "unix" {
		return "unix:" + t.ln.Addr().String()
	}
	return t.ln.Addr().String()
}

// Local reports whether the task runs in this process (mu.Transport).
func (t *Transport) Local(task int) bool {
	return task >= t.cfg.HostedLo && task < t.cfg.HostedHi
}

// HostedRange returns this process's task range [lo, hi).
func (t *Transport) HostedRange() (lo, hi int) { return t.cfg.HostedLo, t.cfg.HostedHi }

func (t *Transport) isClosed() bool {
	select {
	case <-t.closeCh:
		return true
	default:
		return false
	}
}

// sleep waits d or until the transport closes; false means closed.
func (t *Transport) sleep(d time.Duration) bool {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-t.closeCh:
		return false
	case <-tm.C:
		return true
	}
}

// backoffDelay is the dialer's reconnect backoff: capped exponential
// growth with seed-derived jitter. A pure function of its inputs, so a
// given seed replays the exact same backoff schedule and the cap is
// testable: the result never exceeds max.
func backoffDelay(base, max time.Duration, seed int64, attempt int, step int64) time.Duration {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < attempt && d < max/2; i++ {
		d *= 2
	}
	if d > max/2 {
		d = max / 2
	}
	if d < base/2 {
		d = base / 2
	}
	j := fault.Jitter(seed, step, d) // [d, 2d)
	if j > max {
		j = max
	}
	return j
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

// hello builds this process's handshake identity, with the receive
// cursor for the peer expected to host taskLo (0 when unknown).
func (t *Transport) hello(peerLo int) Hello {
	h := Hello{
		Version:     ProtocolVersion,
		Partition:   t.cfg.Partition,
		Dims:        t.cfg.Dims,
		PPN:         t.cfg.PPN,
		TaskLo:      t.cfg.HostedLo,
		TaskHi:      t.cfg.HostedHi,
		Incarnation: t.cfg.Incarnation,
	}
	if p := t.peerFor(peerLo); p != nil {
		p.mu.Lock()
		// A dead peer's cursor belongs to the dead incarnation; a
		// rejoining replacement starts a virgin stream at seq 0, and
		// advertising the stale cursor would trip its fence.
		if !p.dead {
			h.RecvSeq = p.recvSeq.Load()
		}
		p.mu.Unlock()
	}
	return h
}

// validateHello checks a remote identity against the local partition.
// The returned reject code is sent back; the error is what the local
// side records.
func (t *Transport) validateHello(h Hello, addr string) (byte, error) {
	if h.Version != ProtocolVersion {
		return rejectVersion, fmt.Errorf("%w: peer %s speaks protocol version %d, this process speaks %d",
			ErrHandshakeMismatch, addr, h.Version, ProtocolVersion)
	}
	if h.Partition != t.cfg.Partition {
		return rejectPartition, fmt.Errorf("%w: peer %s is partition %#x, this process is partition %#x",
			ErrPartitionIDMismatch, addr, h.Partition, t.cfg.Partition)
	}
	if h.Dims != t.cfg.Dims || h.PPN != t.cfg.PPN {
		return rejectShape, fmt.Errorf("%w: peer %s runs %v PPN=%d, this process runs %v PPN=%d",
			ErrHandshakeMismatch, addr, h.Dims, h.PPN, t.cfg.Dims, t.cfg.PPN)
	}
	if h.TaskLo < 0 || h.TaskHi > t.nTasks || h.TaskLo >= h.TaskHi ||
		h.TaskLo%t.cfg.PPN != 0 || h.TaskHi%t.cfg.PPN != 0 {
		return rejectRange, fmt.Errorf("%w: peer %s hosts invalid task range [%d,%d) of %d tasks (PPN %d)",
			ErrHandshakeMismatch, addr, h.TaskLo, h.TaskHi, t.nTasks, t.cfg.PPN)
	}
	if h.TaskLo < t.cfg.HostedHi && t.cfg.HostedLo < h.TaskHi {
		return rejectRange, fmt.Errorf("%w: peer %s task range [%d,%d) overlaps locally hosted [%d,%d)",
			ErrHandshakeMismatch, addr, h.TaskLo, h.TaskHi, t.cfg.HostedLo, t.cfg.HostedHi)
	}
	if t.cfg.RangeDead != nil && t.cfg.RangeDead(h.TaskLo, h.TaskHi) && !t.rejoinEligible(h) {
		return rejectDead, fmt.Errorf("peer %s task range [%d,%d) contains confirmed-dead nodes: %w",
			addr, h.TaskLo, h.TaskHi, ErrPeerDead)
	}
	return 0, nil
}

// rejoinEligible reports whether a hello from a confirmed-dead range is
// a recovered process the rejoin path may re-admit: the path is armed
// and the incarnation is strictly newer than the highest one admitted
// for the range. The dead incarnation itself (or an older zombie)
// presenting again is never eligible.
func (t *Transport) rejoinEligible(h Hello) bool {
	if t.cfg.OnRejoin == nil {
		return false
	}
	t.mu.Lock()
	last := t.increc[h.TaskLo]
	t.mu.Unlock()
	return h.Incarnation > last
}

// maybeRejoin completes the admission of a recovered process: with the
// range still confirmed dead and the hello eligible, it retires the
// dead peer record (the new incarnation shares no sequence space with
// the old one) and fires OnRejoin so the machine revives the range —
// health, fabric flows, classroutes — before the connection attaches.
func (t *Transport) maybeRejoin(h Hello) {
	if t.cfg.OnRejoin == nil || t.cfg.RangeDead == nil || !t.cfg.RangeDead(h.TaskLo, h.TaskHi) {
		return
	}
	if !t.rejoinEligible(h) {
		return
	}
	t.mu.Lock()
	if p := t.peers[h.TaskLo]; p != nil {
		// Retire the old incarnation's record whether or not
		// MarkTaskDead has caught up with it: admitting a strictly
		// higher incarnation IS the death confirmation for the old one.
		p.retire()
		delete(t.peers, h.TaskLo)
	}
	// Pre-create the replacement record (no connection yet — the
	// handshake in flight attaches it) so the buddy replica OnRejoin
	// pushes enqueues as the FIRST frame of the new incarnation's
	// stream. Order matters: revival unparks senders blocked in
	// retry loops, and the rejoined process cannot consume their data
	// until its tasks have restored from the replica — a data frame
	// sequenced ahead of the replica is a head-of-line deadlock.
	t.newPeerLocked(h, "")
	t.mu.Unlock()
	t.rejoins.Inc()
	t.cfg.OnRejoin(h.TaskLo, h.TaskHi, h.Incarnation)
}

// rejectToError maps a received reject code back to the typed error
// vocabulary, with the peer address for context.
func rejectToError(code byte, msg, addr string) error {
	switch code {
	case rejectPartition:
		return fmt.Errorf("%w: peer %s refused the join: %s", ErrPartitionIDMismatch, addr, msg)
	case rejectDead:
		return fmt.Errorf("peer %s refused the join (%s): %w", addr, msg, ErrPeerDead)
	default:
		return fmt.Errorf("%w: peer %s refused the join: %s", ErrHandshakeMismatch, addr, msg)
	}
}

// writeFrame writes one encoded frame with the handshake deadline.
func writeFrame(conn net.Conn, frame []byte, deadline time.Duration) error {
	conn.SetWriteDeadline(time.Now().Add(deadline))
	_, err := conn.Write(frame)
	return err
}

// readHandshakeFrame reads exactly one frame off the raw connection
// (no buffering, so the stream reader that follows starts clean).
func readHandshakeFrame(conn net.Conn, deadline time.Duration) (Frame, error) {
	conn.SetReadDeadline(time.Now().Add(deadline))
	defer conn.SetReadDeadline(time.Time{})
	var f Frame
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return f, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame || n < 5 {
		return f, fmt.Errorf("%w: handshake frame of %d bytes", ErrFrameCorrupt, n)
	}
	frame := append(lenBuf[:], make([]byte, n)...)
	if _, err := io.ReadFull(conn, frame[4:]); err != nil {
		return f, err
	}
	_, err := f.decode(frame)
	return f, err
}

// dialAndShake dials addr, presents our hello, and validates the
// welcome. terminal reports whether retrying is pointless.
func (t *Transport) dialAndShake(addr string) (net.Conn, Hello, bool, error) {
	network, target := splitAddr(addr)
	peerLo := -1
	t.mu.Lock()
	if ds := t.dials[addr]; ds != nil {
		peerLo = ds.peerLo
	}
	t.mu.Unlock()
	conn, err := net.DialTimeout(network, target, t.cfg.DialTimeout)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("%w: %s after %v", ErrDialTimeout, addr, t.cfg.DialTimeout)
		} else {
			err = fmt.Errorf("wire: dial %s: %w", addr, err)
		}
		return nil, Hello{}, false, err
	}
	if err := writeFrame(conn, appendHello(nil, kindHello, t.hello(peerLo)), t.cfg.DialTimeout); err != nil {
		conn.Close()
		return nil, Hello{}, false, fmt.Errorf("wire: handshake write to %s: %w", addr, err)
	}
	f, err := readHandshakeFrame(conn, t.cfg.DialTimeout)
	if err != nil {
		conn.Close()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("%w: %s did not answer the handshake within %v", ErrDialTimeout, addr, t.cfg.DialTimeout)
		}
		return nil, Hello{}, false, err
	}
	switch f.Kind {
	case kindReject:
		conn.Close()
		return nil, Hello{}, true, rejectToError(f.RejectCode, f.RejectMsg, addr)
	case kindWelcome:
		if _, err := t.validateHello(f.Hello, addr); err != nil {
			conn.Close()
			return nil, Hello{}, true, err
		}
		// The welcome may come from a recovered incarnation of a peer we
		// confirmed dead (dialers keep redialing dead addresses while the
		// rejoin path is armed); re-admit it before attaching.
		t.maybeRejoin(f.Hello)
		return conn, f.Hello, false, nil
	default:
		conn.Close()
		return nil, Hello{}, false, fmt.Errorf("%w: %s answered the handshake with frame kind %d", ErrFrameCorrupt, addr, f.Kind)
	}
}

// supervise owns one Join address: dial, handshake, attach, and redial
// with capped deterministic backoff whenever the connection drops —
// until the transport closes, the peer is confirmed dead, or the
// handshake fails terminally.
func (t *Transport) supervise(addr string) {
	defer t.wg.Done()
	attempt := 0
	for step := int64(0); ; step++ {
		if t.isClosed() {
			return
		}
		conn, h, terminal, err := t.dialAndShake(addr)
		if err != nil {
			t.noteDial(addr, err, terminal)
			if terminal {
				return
			}
			attempt++
			if !t.sleep(backoffDelay(t.cfg.BackoffBase, t.cfg.BackoffMax, t.cfg.Seed, attempt, step)) {
				return
			}
			continue
		}
		p, aerr := t.attachPeer(conn, h, addr)
		if aerr != nil {
			conn.Close()
			// Dead between welcome and attach: terminal only without rejoin.
			terminal := (errors.Is(aerr, ErrPeerDead) && t.cfg.OnRejoin == nil) || errors.Is(aerr, ErrHandshakeMismatch) || errors.Is(aerr, ErrClosed)
			if errors.Is(aerr, ErrStaleCursor) {
				// Incarnation 0 hitting the cursor fence is a genuine
				// identity collision (two live processes claiming the
				// same range) — terminal. A respawned incarnation
				// (> 0) retries: the peer's phi detector will confirm
				// the old incarnation dead within a few heartbeat
				// intervals and the rejoin path will admit us.
				terminal = t.cfg.Incarnation == 0
			}
			t.noteDial(addr, aerr, terminal)
			if terminal || t.isClosed() {
				return
			}
			attempt++
			if !t.sleep(backoffDelay(t.cfg.BackoffBase, t.cfg.BackoffMax, t.cfg.Seed, attempt, step)) {
				return
			}
			continue
		}
		t.noteDial(addr, nil, false)
		t.setDialPeer(addr, p.taskLo)
		attempt = 0
		// Hold until this connection breaks, then redial afresh.
		p.mu.Lock()
		for p.conn != nil && !p.dead && !p.closed {
			p.cond.Wait()
		}
		dead, closed := p.dead, p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		if dead {
			// Rejoin armed: the address may come back as a recovered
			// incarnation, so keep probing it at the maximum backoff.
			// Without the rejoin path a dead peer is dead forever.
			if t.cfg.OnRejoin == nil {
				return
			}
			if !t.sleep(backoffDelay(t.cfg.BackoffBase, t.cfg.BackoffMax, t.cfg.Seed, 1<<20, step)) {
				return
			}
		}
	}
}

func (t *Transport) noteDial(addr string, err error, terminal bool) {
	t.mu.Lock()
	if ds := t.dials[addr]; ds != nil {
		ds.lastErr = err
		ds.terminal = ds.terminal || terminal
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

func (t *Transport) setDialPeer(addr string, peerLo int) {
	t.mu.Lock()
	if ds := t.dials[addr]; ds != nil {
		ds.peerLo = peerLo
	}
	t.mu.Unlock()
}

// acceptLoop admits joining processes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.isClosed() {
				return
			}
			if !t.sleep(10 * time.Millisecond) {
				return
			}
			continue
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.pending[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.handleInbound(conn)
	}
}

// handleInbound runs the acceptor side of the handshake.
func (t *Transport) handleInbound(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.pending, conn)
		t.mu.Unlock()
	}()
	f, err := readHandshakeFrame(conn, t.cfg.DialTimeout)
	if err != nil || f.Kind != kindHello {
		conn.Close()
		return
	}
	addr := conn.RemoteAddr().String()
	if code, verr := t.validateHello(f.Hello, addr); verr != nil {
		t.rejectsSent.Inc()
		writeFrame(conn, appendReject(nil, code, verr.Error()), t.cfg.DialTimeout)
		conn.Close()
		return
	}
	// Re-admit a recovered incarnation of a dead range before the
	// welcome goes out, so the welcome already reflects the revival.
	t.maybeRejoin(f.Hello)
	// Welcome carries our receive cursor for this peer, which trims its
	// resend window to exactly the frames we have not delivered.
	if err := writeFrame(conn, appendHello(nil, kindWelcome, t.hello(f.Hello.TaskLo)), t.cfg.DialTimeout); err != nil {
		conn.Close()
		return
	}
	if _, err := t.attachPeer(conn, f.Hello, ""); err != nil {
		conn.Close()
	}
}

// attachPeer installs a handshaken connection on the (new or existing)
// peer record, trimming the resend window by the peer's receive cursor
// and restarting the writer from the acknowledged frontier — the
// reconnect-idempotence invariant: any number of reconnects delivers
// each frame exactly once.
func (t *Transport) attachPeer(conn net.Conn, h Hello, addr string) (*peer, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	p := t.peers[h.TaskLo]
	if p == nil {
		for _, q := range t.peers {
			if h.TaskLo < q.taskHi && q.taskLo < h.TaskHi {
				t.mu.Unlock()
				return nil, fmt.Errorf("%w: joining range [%d,%d) overlaps peer [%d,%d)",
					ErrHandshakeMismatch, h.TaskLo, h.TaskHi, q.taskLo, q.taskHi)
			}
		}
		p = t.newPeerLocked(h, addr)
	} else if p.taskHi != h.TaskHi {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: peer re-joined as [%d,%d), previously [%d,%d)",
			ErrHandshakeMismatch, h.TaskLo, h.TaskHi, p.taskLo, p.taskHi)
	}
	t.mu.Unlock()

	p.mu.Lock()
	if p.addr == "" && addr != "" {
		// A record pre-created by the rejoin admission learns its dial
		// address from the first connection that attaches it.
		p.setAddr(addr)
	}
	if p.dead {
		p.mu.Unlock()
		return nil, fmt.Errorf("peer [%d,%d) is confirmed dead: %w", p.taskLo, p.taskHi, ErrPeerDead)
	}
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if h.RecvSeq > p.sendSeq {
		// The peer claims to have delivered frames we never sent: it is
		// talking to a previous incarnation of this process. Fence the
		// attach — but with ErrStaleCursor, not ErrHandshakeMismatch,
		// because for a respawned dialer this is the startup race (it
		// dialed back in before the survivor's detector confirmed the
		// old incarnation dead) and the dial supervisor must keep
		// retrying until the survivor catches up and admits the rejoin.
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: peer receive cursor %d ahead of our send cursor %d",
			ErrStaleCursor, h.RecvSeq, p.sendSeq)
	}
	if p.conn != nil {
		p.conn.Close() // stale connection; its reader exits on the gen guard
	}
	p.ackedSeq = max(p.ackedSeq, h.RecvSeq) // frees the ring below it
	p.conn = conn
	p.connGen++
	gen := p.connGen
	p.sentSeq = p.ackedSeq
	if gen > 1 {
		p.reconnects++
		t.reconnectsCtr.Inc()
	}
	p.changed()
	p.mu.Unlock()

	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
	// The first attach of a peer record proves its process alive right
	// now, so it counts as a heartbeat and ends the bootstrap grace:
	// without it, a peer killed between admission and its first frame
	// stays in grace forever and its death is never confirmed. Failed
	// attempts never count, and neither does a reconnect — a frame will —
	// or redialing a respawned listener that refuses our stale cursor
	// would keep its dead predecessor alive (DESIGN §7c).
	if t.cfg.OnBeat != nil && gen == 1 {
		t.cfg.OnBeat(h.TaskLo, h.TaskHi)
	}
	t.wg.Add(1)
	go t.readLoop(p, conn, gen)
	return p, nil
}

// newPeerLocked creates the record of the peer process that presented h,
// publishes it in the roster and the task table, and starts its writer.
// The first send allocates the ring, 64 B a frame. Caller holds t.mu.
func (t *Transport) newPeerLocked(h Hello, addr string) *peer {
	q := t.cfg.OutboundQueue
	p := &peer{t: t, taskLo: h.TaskLo, taskHi: h.TaskHi, held: noWrite, offs: make([]int, q)}
	p.cond = sync.NewCond(&p.mu)
	p.wake = sync.NewCond(&p.mu)
	p.setAddr(addr)
	t.peers[h.TaskLo] = p
	for task := h.TaskLo; task < h.TaskHi; task++ {
		t.byTask[task].Store(p)
	}
	if h.Incarnation > t.increc[h.TaskLo] {
		t.increc[h.TaskLo] = h.Incarnation
	}
	t.wg.Add(1)
	go p.writer()
	return p
}

// setAddr records the dial address and builds the refusals that name it.
func (p *peer) setAddr(addr string) {
	p.addr = addr
	label := fmt.Sprintf("[%d,%d)", p.taskLo, p.taskHi)
	if addr != "" {
		label += " at " + addr
	}
	p.errDead = fmt.Errorf("wire: peer %s: %w", label, ErrPeerDead)
	p.errFull = fmt.Errorf("wire: outbound queue to peer %s full (all %d frames unacknowledged): %w", label, len(p.offs), ErrBackpressure)
}

// changed wakes whoever is parked on the peer's connection state: the
// writer and, for a dialed peer, its supervisor. Caller holds p.mu.
func (p *peer) changed() {
	p.idle = false
	p.wake.Signal()
	p.cond.Broadcast()
}

// kickWriter tells the writer of new work: a signal on the idle-to-busy
// edge only, a writer in mid-flush looks again. Caller holds p.mu.
func (p *peer) kickWriter() {
	if p.idle && p.conn != nil {
		p.idle = false
		p.wake.Signal()
	}
}

// retire ends the peer's incarnation: sends to it fail typed from here.
func (p *peer) retire() {
	p.mu.Lock()
	p.dead, p.buf = true, nil
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.changed()
	p.mu.Unlock()
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

// Send ships one memory-FIFO message to the process hosting dst.Task
// (mu.Transport). The message is segmented, sequenced, and encoded into
// the peer's send ring, where it stays until acknowledged; it fails
// typed — ErrPeerDead, ErrBackpressure, ErrNoPeer — and never blocks.
func (t *Transport) Send(dst mu.TaskAddr, hdr mu.Header, payload []byte) error {
	p := t.peerFor(dst.Task)
	if p == nil {
		return fmt.Errorf("%w %d (partition incomplete, or the peer process was never launched)", ErrNoPeer, dst.Task)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// All segments enqueue atomically: a message is never torn across a
	// backpressure refusal.
	if err := p.admit(max(1, (len(payload)+maxSegment-1)/maxSegment)); err != nil {
		return err
	}
	flen := 8 + 1 + packetFixed + len(hdr.Meta) // the first segment's frame, less its payload
	for off := 0; ; off += maxSegment {
		end := min(off+maxSegment, len(payload))
		hdr.Offset = off
		slot := p.reserve(flen + end - off)
		appendPacket(slot, p.sendSeq, dst, hdr, payload[off:end])
		if end == len(payload) {
			break
		}
		flen = 8 + 1 + packetFixed // meta rides only the first
	}
	p.kickWriter()
	return nil
}

// peerFor is the lock-free roster lookup on the send path.
func (t *Transport) peerFor(task int) *peer {
	if task < 0 || task >= len(t.byTask) {
		return nil
	}
	return t.byTask[task].Load()
}

// admit decides whether n more frames may enter the send ring; frames
// still held for the socket count even once acknowledged. Holds p.mu.
func (p *peer) admit(n int) error {
	switch {
	case p.dead:
		return p.errDead
	case p.closed:
		return ErrClosed
	case p.sendSeq-min(p.held, p.ackedSeq)+uint64(n) > uint64(len(p.offs)):
		p.t.backpressured.Inc()
		return p.errFull
	}
	return nil
}

// reserve assigns the next sequence number and returns n contiguous
// bytes of the ring for its frame — empty, capacity n: the append-style
// encoders fill it in place. A frame that does not fit behind head goes
// to the front if there is room, else the ring grows. Caller holds p.mu.
func (p *peer) reserve(n int) []byte {
	q := uint64(len(p.offs))
	low := min(p.held, p.ackedSeq) // the highest seq whose bytes may be reused
	switch tail := p.offs[(low+1)%q]; {
	case p.sendSeq == low: // empty: start over at the front
		p.head = 0
		if n > len(p.buf) {
			p.grow(low, n)
		}
	case tail < p.head && p.head+n <= len(p.buf): // fits behind head
	case tail < p.head && n < tail: // fits at the front: wrap
		p.wrap, p.head = p.head, 0
	case p.head < tail && p.head+n < tail: // wrapped already, fits below the oldest frame
	default:
		p.grow(low, n)
	}
	p.sendSeq++
	p.offs[p.sendSeq%q] = p.head
	slot := p.buf[p.head : p.head : p.head+n]
	p.head += n
	return slot
}

// grow moves the frames above low to the front of a ring at least twice
// the size. A writer in mid-flush keeps the old array, which is intact.
func (p *peer) grow(low uint64, n int) {
	q := uint64(len(p.offs))
	size := max(2*len(p.buf), 64*len(p.offs))
	for size < len(p.buf)+n {
		size *= 2
	}
	nb := make([]byte, size)
	at := 0
	for s := low + 1; s <= p.sendSeq; s++ {
		off := p.offs[s%q]
		p.offs[s%q] = at
		at += copy(nb[at:], p.buf[off:off+4+int(binary.BigEndian.Uint32(p.buf[off:]))]) // its own length leads every frame
	}
	p.buf, p.head = nb, at
}

// maxReplica bounds one replica blob: it must fit a single frame.
const maxReplica = MaxFrame - 64

// SendReplica ships a buddy-checkpoint replica blob to the process
// hosting dstTask. Replica frames ride the same per-peer sequence space
// as packet frames — they inherit the resend window's exactly-once
// delivery across reconnects — and enqueue behind whatever data is
// already parked, which makes replication the low-priority flow: it
// never overtakes application traffic.
func (t *Transport) SendReplica(dstTask int, blob []byte) error {
	if len(blob) > maxReplica {
		return fmt.Errorf("wire: replica of %d bytes exceeds the %d-byte frame bound", len(blob), maxReplica)
	}
	p := t.peerFor(dstTask)
	if p == nil {
		return fmt.Errorf("%w %d (partition incomplete, or the peer process was never launched)", ErrNoPeer, dstTask)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.admit(1); err != nil {
		return fmt.Errorf("wire: replica: %w", err)
	}
	slot := p.reserve(8 + 1 + 8 + len(blob))
	appendReplica(slot, p.sendSeq, blob)
	p.kickWriter()
	t.replicasSent.Inc()
	return nil
}

// writer is the peer's single write goroutine. Each time it looks, it
// hands the socket all there is (a due ack and beat, the unsent span of
// the ring, in place) as one write under a deadline; it never waits.
func (p *peer) writer() {
	t := p.t
	defer t.wg.Done()
	var ctl []byte // this flush's ack and beat, reused: this goroutine is its only user
	for {
		p.mu.Lock()
		p.held = noWrite // the previous write is over
		for !(p.closed || p.dead) &&
			(p.conn == nil || (p.sentSeq >= p.sendSeq && !p.ackDue && !p.beatDue)) {
			p.idle = true
			p.wake.Wait()
			t.writerWakes.Inc()
		}
		p.idle = false
		if p.closed || p.dead {
			p.mu.Unlock()
			return
		}
		conn, gen := p.conn, p.connGen
		ctl = ctl[:0]
		nframes := 0
		if p.ackDue {
			ctl = appendAck(ctl, p.recvSeq.Load())
			p.ackDue = false
			nframes++
			t.acksSent.Inc()
		}
		if p.beatDue {
			ctl = appendBeat(ctl)
			p.beatDue = false
			nframes++
			t.beatsSent.Inc()
		}
		p.wbufs = p.wvec[:0]
		if len(ctl) > 0 {
			p.wbufs = append(p.wbufs, ctl)
		}
		size := len(ctl)
		if p.sentSeq < p.sendSeq {
			from := p.offs[(p.sentSeq+1)%uint64(len(p.offs))]
			if from < p.head {
				p.wbufs = append(p.wbufs, p.buf[from:p.head])
				size += p.head - from
			} else {
				p.wbufs = append(p.wbufs, p.buf[from:p.wrap], p.buf[:p.head])
				size += p.wrap - from + p.head
			}
			if p.everSent > p.sentSeq {
				t.resends.Add(int64(min(p.everSent, p.sendSeq) - p.sentSeq))
			}
			p.everSent = max(p.everSent, p.sendSeq)
			nframes += int(p.sendSeq - p.sentSeq)
			p.held, p.sentSeq = p.sentSeq, p.sendSeq
		}
		p.flushes++
		flush, peerLo := p.flushes, int64(p.taskLo)
		p.mu.Unlock()

		// Deterministic wire-fault storm: cut the connection instead of
		// writing, or corrupt a byte so the peer's CRC check cuts it.
		if t.cfg.DropProb > 0 && fault.Chance(t.cfg.DropProb, t.cfg.Seed, peerLo, flush, 1) {
			t.cutsInjected.Inc()
			p.connBroken(gen, fmt.Errorf("wire: injected connection cut"))
			continue
		}
		if t.cfg.CorruptProb > 0 && fault.Chance(t.cfg.CorruptProb, t.cfg.Seed, peerLo, flush, 2) {
			t.corrInjected.Inc()
			// In a private copy: the ring's bytes are the resend. Reduce in
			// uint64: a hash truncated to int can go negative, % keeps it.
			flat := bytes.Join(p.wbufs, nil)
			flat[fault.FlowHash(int(peerLo), int(flush), 0, 0)%uint64(size)] ^= 0x40
			p.wbufs = append(p.wbufs[:0], flat)
		}
		conn.SetWriteDeadline(time.Now().Add(writeDeadline * time.Duration(1+size>>18)))
		n, err := p.wbufs.WriteTo(conn)
		t.socketWrites.Inc()
		t.bytesSent.Add(n)
		t.framesSent.Add(int64(nframes))
		if err != nil {
			p.connBroken(gen, err)
		}
	}
}

// seqGapError is a corrupt stream too, but counted on its own.
type seqGapError struct{ seq, after uint64 }

func (e *seqGapError) Unwrap() error { return ErrFrameCorrupt }
func (e *seqGapError) Error() string {
	return fmt.Sprintf("%v: data seq %d follows %d (sequence gap)", ErrFrameCorrupt, e.seq, e.after)
}

// connBroken tears down one connection incarnation (idempotent per
// generation), records why, and rewinds the write cursor to the
// acknowledged frontier so the next connection resends the tail.
func (p *peer) connBroken(gen int, reason error) {
	p.mu.Lock()
	if gen != p.connGen || p.conn == nil {
		p.mu.Unlock()
		return
	}
	p.conn.Close()
	p.conn = nil
	p.sentSeq = p.ackedSeq
	p.lastErr, p.lastDown = reason, time.Now()
	p.changed()
	p.mu.Unlock()
	t := p.t
	var gap *seqGapError
	switch {
	case errors.As(reason, &gap):
		t.dropsSeqGap.Inc()
	case errors.Is(reason, ErrFrameCorrupt), errors.Is(reason, ErrFrameTooLarge):
		t.dropsCRC.Inc()
	default:
		t.dropsIO.Inc()
	}
	t.streamDrops.Inc()
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// rxBurst is one stream reader's state: the frame every decode lands
// in, and what the frames handled since the last endBurst owe.
type rxBurst struct {
	f      Frame
	ackTo  uint64        // highest cumulative ack among them: a trim
	ackDue bool          // data delivered or a duplicate seen: an ack of ours
	dsts   []mu.TaskAddr // whom Deliver was handed frames for: BurstEnd's wake-ups
}

// readLoop consumes one connection incarnation: each read(2) fills one
// fixed buffer, and all that is complete in it is one burst. Any
// integrity or sequencing violation kills the connection; reconnection
// plus the send ring restore the stream exactly-once.
func (t *Transport) readLoop(p *peer, conn net.Conn, gen int) {
	defer t.wg.Done()
	var rx rxBurst
	buf := make([]byte, readBuf)
	var big []byte // a frame larger than buf, at its exact size
	w := 0         // buf[:w] is read and not yet handled
	var err error
	for err == nil {
		var n int
		n, err = conn.Read(buf[w:])
		t.socketReads.Inc()
		if n == 0 {
			continue
		}
		w += n
		var used int
		if used, err = t.burst(p, gen, &rx, buf[:w]); err != nil {
			break
		}
		w = copy(buf, buf[used:w])
		if w < 4 {
			continue
		}
		// The incomplete frame's length has passed decode's MaxFrame
		// check: nothing grows before that.
		if need := 4 + int(binary.BigEndian.Uint32(buf)); need > len(buf) {
			if cap(big) < need {
				big = make([]byte, need)
			}
			copy(big[:need], buf[:w])
			t.socketReads.Inc()
			if _, err = io.ReadFull(conn, big[w:need]); err == nil {
				_, err = t.burst(p, gen, &rx, big[:need])
			}
			w = 0
		}
	}
	p.connBroken(gen, err)
}

// burst handles every complete frame at the head of data and returns
// the bytes consumed, under one hold of rxMu: a severed connection's
// reader may still hold frames when its successor starts on the resends
// of the same numbers, so a frame's recvSeq+1 check, delivery and recvSeq
// update are one step, and a reader whose connection is gone takes none.
func (t *Transport) burst(p *peer, gen int, rx *rxBurst, data []byte) (used int, err error) {
	p.rxMu.Lock()
	defer p.rxMu.Unlock()
	p.mu.Lock()
	gone := p.connGen != gen || p.conn == nil
	p.mu.Unlock()
	if gone {
		return 0, net.ErrClosed
	}
	frames := 0
	for err == nil {
		var n int
		if n, err = rx.f.decode(data[used:]); err != nil {
			if err == ErrShortFrame {
				err = nil
			}
			break
		}
		used += n
		frames++
		switch f := &rx.f; f.Kind {
		case kindPacket:
			err = t.handleData(p, rx, f.Packet.Seq)
		case kindReplica:
			err = t.handleData(p, rx, f.ReplicaSeq)
		case kindAck:
			rx.ackTo = max(rx.ackTo, f.AckSeq)
		case kindBeat:
			t.beatsRecv.Inc()
		default:
			err = fmt.Errorf("%w: unexpected frame kind %d mid-stream", ErrFrameCorrupt, f.Kind)
		}
	}
	if frames > 0 {
		t.bursts.Inc()
		t.burstHWM.Set(int64(frames))
		t.framesRecv.Add(int64(frames))
		t.bytesRecv.Add(int64(used))
	}
	t.endBurst(p, rx, frames > 0)
	return used, err
}

// endBurst settles what the frames handled since the last call owe: the
// ring trim, our ack, the liveness stamp, the consumers' wake-up.
func (t *Transport) endBurst(p *peer, rx *rxBurst, live bool) {
	if rx.ackTo != 0 || rx.ackDue {
		p.mu.Lock()
		if rx.ackTo > p.ackedSeq && rx.ackTo <= p.sendSeq {
			p.ackedSeq, p.sentSeq = rx.ackTo, max(p.sentSeq, rx.ackTo) // frees the ring below it
		}
		if rx.ackDue {
			p.ackDue = true
			p.kickWriter()
		}
		p.mu.Unlock()
	}
	if live && t.cfg.OnBeat != nil {
		t.cfg.OnBeat(p.taskLo, p.taskHi)
	}
	if len(rx.dsts) > 0 {
		t.cfg.BurstEnd(rx.dsts)
	}
	rx.ackTo, rx.ackDue, rx.dsts = 0, false, rx.dsts[:0]
}

// handleData takes the data frame in rx.f — a packet or a replica, one
// sequence space — if it is the next in sequence, and acknowledges it
// only after delivery, so an unacknowledged frame is always safe to
// resend. Caller holds p.rxMu.
func (t *Transport) handleData(p *peer, rx *rxBurst, seq uint64) error {
	recv := p.recvSeq.Load()
	if seq <= recv {
		// Resent duplicate from before the last reconnect: drop, but
		// re-acknowledge so the sender trims its window.
		rx.ackDue = true
		t.dupDrops.Inc()
		return nil
	}
	if seq != recv+1 {
		return &seqGapError{seq, recv}
	}
	if rx.f.Kind == kindReplica {
		// The blob goes to the recovery hook instead of the fabric. With
		// no hook installed it is acknowledged and dropped — replicas are
		// soft state; the next checkpoint interval replaces them.
		t.replicasRecv.Inc()
		if t.cfg.OnReplica != nil {
			t.cfg.OnReplica(rx.f.Replica)
		}
	} else if err := t.deliver(p, rx); err != nil {
		return err
	}
	p.recvSeq.Store(seq)
	rx.ackDue = true
	return nil
}

// deliver hands the message segment in rx.f to the local fabric,
// stalling (bounded by the frame already in hand — no growing buffer)
// while the destination FIFO is saturated.
func (t *Transport) deliver(p *peer, rx *rxBurst) error {
	pf := &rx.f.Packet
	if !t.Local(pf.Dst.Task) {
		return fmt.Errorf("%w: packet for task %d, which is not hosted here", ErrFrameCorrupt, pf.Dst.Task)
	}
	hdr := pf.Hdr
	payload := pf.Payload
	for step := int64(0); ; step++ {
		if t.cfg.BurstEnd != nil && (len(rx.dsts) == 0 || rx.dsts[len(rx.dsts)-1] != pf.Dst) {
			rx.dsts = append(rx.dsts, pf.Dst) // a repeat further back costs a second touch, no more
		}
		n, err := t.cfg.Deliver(pf.Dst, hdr, payload)
		hdr.Offset += n
		payload = payload[n:]
		if hdr.Offset > 0 {
			// Meta rides only the offset-0 packet; once any bytes land,
			// retries continue past it.
			hdr.Meta = nil
		}
		if err == nil {
			return nil
		}
		if t.isClosed() {
			return ErrClosed
		}
		// Reception backpressure (or a context not yet registered at
		// bootstrap): hold this one frame and retry on a seeded-jitter
		// cadence. The TCP window does the upstream throttling; the
		// sender's bounded queue surfaces ErrBackpressure beyond that.
		// Settle first: the consumer that must drain the FIFO may be
		// parked on the wake-up this burst still owes it.
		t.deliverStalls.Inc()
		t.endBurst(p, rx, true)
		time.Sleep(fault.Jitter(t.cfg.Seed, step, 100*time.Microsecond))
	}
}

// beater marks every connected peer beat-due on the configured period;
// the writers put the beats on the wire with whatever else is due.
func (t *Transport) beater() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.BeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.closeCh:
			return
		case <-tick.C:
		}
		for _, p := range t.peerSnapshot() {
			p.mu.Lock()
			if p.conn != nil && !p.dead {
				p.beatDue = true
				p.kickWriter()
			}
			p.mu.Unlock()
		}
	}
}

func (t *Transport) peerSnapshot() []*peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		out = append(out, p)
	}
	return out
}

// ---------------------------------------------------------------------
// Liveness, completeness, quiescence, shutdown
// ---------------------------------------------------------------------

// MarkTaskDead records that the process hosting task is confirmed dead
// (the phi-accrual detector's verdict). Its connection is torn down,
// its resend window discarded, its supervisor stopped; pending and
// future sends to its range fail with ErrPeerDead.
func (t *Transport) MarkTaskDead(task int) {
	// With no peer object (e.g. a restored survivor that never heard from
	// the dead range) WaitComplete is still woken, so coverage re-checks
	// against RangeDead.
	if p := t.peerFor(task); p != nil {
		p.retire()
	}
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Peers snapshots the known peers, sorted by task range.
func (t *Transport) Peers() []PeerInfo {
	ps := t.peerSnapshot()
	out := make([]PeerInfo, 0, len(ps))
	for _, p := range ps {
		p.mu.Lock()
		out = append(out, PeerInfo{
			TaskLo: p.taskLo, TaskHi: p.taskHi, Addr: p.addr,
			Connected: p.conn != nil, Dead: p.dead, Reconnects: p.reconnects,
			LastError: p.lastErr, LastDisconnect: p.lastDown,
		})
		p.mu.Unlock()
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TaskLo < out[j-1].TaskLo; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WriteLinks writes one line per peer — state, reconnects, why and when
// its link last broke — for the hang dump and pamirun -stats.
func (t *Transport) WriteLinks(w io.Writer) {
	fmt.Fprintf(w, "wire links of tasks [%d,%d):\n", t.cfg.HostedLo, t.cfg.HostedHi)
	for _, pi := range t.Peers() {
		fmt.Fprintf(w, "  peer [%d,%d) addr=%q connected=%v dead=%v reconnects=%d", pi.TaskLo, pi.TaskHi, pi.Addr, pi.Connected, pi.Dead, pi.Reconnects)
		if pi.LastError != nil {
			fmt.Fprintf(w, " last disconnect %v ago: %v", time.Since(pi.LastDisconnect).Round(time.Millisecond), pi.LastError)
		}
		fmt.Fprintln(w)
	}
}

// WaitComplete blocks until every task of the partition is hosted
// locally or reachable through a connected (or resolved-dead) peer —
// the traffic gate a multi-process job passes after boot. It fails
// fast on terminal handshake errors (version, partition, shape, range)
// and reports the coverage gap plus the last per-address dial errors on
// timeout.
func (t *Transport) WaitComplete(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer wake.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return ErrClosed
		}
		for addr, ds := range t.dials {
			if ds.terminal && ds.lastErr != nil {
				return fmt.Errorf("wire: join %s failed terminally: %w", addr, ds.lastErr)
			}
		}
		if gap := t.coverageGapLocked(); gap == "" {
			return nil
		} else if time.Now().After(deadline) {
			var dialNotes []string
			for addr, ds := range t.dials {
				if ds.lastErr != nil {
					dialNotes = append(dialNotes, fmt.Sprintf("%s: %v", addr, ds.lastErr))
				}
			}
			msg := fmt.Sprintf("wire: partition incomplete after %v: %s", timeout, gap)
			if len(dialNotes) > 0 {
				msg += " (" + strings.Join(dialNotes, "; ") + ")"
			}
			return errors.New(msg)
		}
		t.cond.Wait()
	}
}

// coverageGapLocked returns "" when [0, nTasks) is covered, else a
// description of the uncovered tasks.
func (t *Transport) coverageGapLocked() string {
	covered := make([]bool, t.nTasks)
	for task := t.cfg.HostedLo; task < t.cfg.HostedHi; task++ {
		covered[task] = true
	}
	if t.cfg.RangeDead != nil {
		// A range whose host is confirmed dead needs no connection: a
		// restored survivor may never have had a peer object for it (the
		// death is inherited from the checkpoint, not observed live).
		for task := 0; task < t.nTasks; task++ {
			if !covered[task] && t.cfg.RangeDead(task, task+1) {
				covered[task] = true
			}
		}
	}
	for _, p := range t.peers {
		p.mu.Lock()
		ok := p.conn != nil || p.dead
		p.mu.Unlock()
		if !ok {
			continue
		}
		for task := p.taskLo; task < p.taskHi && task < t.nTasks; task++ {
			covered[task] = true
		}
	}
	lo := -1
	var gaps []string
	for task := 0; task <= t.nTasks; task++ {
		if task < t.nTasks && !covered[task] {
			if lo < 0 {
				lo = task
			}
			continue
		}
		if lo >= 0 {
			gaps = append(gaps, fmt.Sprintf("[%d,%d)", lo, task))
			lo = -1
		}
	}
	if len(gaps) == 0 {
		return ""
	}
	return "no process hosts tasks " + strings.Join(gaps, ", ")
}

// Quiesced verifies the transport holds no undelivered state — every
// frame to every live peer has been acknowledged. Part of the
// checkpoint precondition: together with the fabric's quiescence it
// guarantees a checkpoint never needs to save transport state.
func (t *Transport) Quiesced() error {
	for _, p := range t.peerSnapshot() {
		p.mu.Lock()
		n, dead := p.sendSeq-p.ackedSeq, p.dead
		lo, hi := p.taskLo, p.taskHi
		p.mu.Unlock()
		if !dead && n > 0 {
			return fmt.Errorf("wire: %d frames to peer [%d,%d) still unacknowledged", n, lo, hi)
		}
	}
	return nil
}

// SeverConnections force-closes every live connection without marking
// any peer dead — the chaos hook reconnect tests use to model a flaky
// link. Dialers redial with capped backoff; the resend windows make
// delivery exactly-once across the cut.
func (t *Transport) SeverConnections() {
	for _, p := range t.peerSnapshot() {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
}

// Close tears the transport down: stops the listener, supervisors,
// beater, writers, and readers, and waits for all of them to exit.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closeCh)
	ln := t.ln
	var conns []net.Conn
	for c := range t.pending {
		conns = append(conns, c)
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, p := range t.peerSnapshot() {
		p.mu.Lock()
		p.closed = true
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.changed()
		p.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
