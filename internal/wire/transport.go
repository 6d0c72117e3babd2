package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
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
	DefaultWriteDeadline = 2 * time.Second
	DefaultBeatInterval  = 2 * time.Millisecond
	DefaultBackoffBase   = 5 * time.Millisecond
	DefaultBackoffMax    = 500 * time.Millisecond
	DefaultOutboundQueue = 1024
)

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
	// WriteDeadline bounds one connection write; a peer that stops
	// reading breaks the connection instead of wedging the writer.
	WriteDeadline time.Duration
	// BeatInterval is the out-of-band heartbeat period feeding the
	// phi-accrual failure detector.
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
	// fabric, returning bytes consumed (mu.Fabric.DeliverRemote).
	Deliver func(dst mu.TaskAddr, hdr mu.Header, payload []byte) (int, error)
	// OnBeat, if non-nil, is called when a heartbeat arrives from the
	// peer hosting tasks [taskLo, taskHi).
	OnBeat func(taskLo, taskHi int)
	// Epoch, if non-nil, supplies the local membership epoch carried in
	// handshakes (diagnostic; see DESIGN.md for the epoch rules).
	Epoch func() int64
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

// outFrame is one encoded data frame parked in a peer's bounded
// outbound+resend window until the peer acknowledges it.
type outFrame struct {
	seq uint64
	buf []byte
}

// peer is the persistent per-peer-process state: identity, the current
// connection (nil while disconnected), and the sequence machinery that
// makes delivery exactly-once across reconnects.
type peer struct {
	t              *Transport
	taskLo, taskHi int
	addr           string // dial address; "" for accepted peers
	dialer         bool

	rxMu     sync.Mutex // serializes handlePacket across connection incarnations; taken before mu
	mu       sync.Mutex
	cond     *sync.Cond
	conn     net.Conn
	connGen  int    // bumped per attached connection
	sendSeq  uint64 // last data seq assigned
	ackedSeq uint64 // cumulative seq the peer has acknowledged
	sentSeq  uint64 // last seq written on the current connection
	everSent uint64 // highest seq ever written (resend accounting)
	outq     []outFrame
	recvSeq  uint64 // last in-order seq delivered from the peer
	ackDue   bool
	beatDue  bool
	flushes  int64 // writer flush ordinal (fault-storm coordinates)
	dead     bool
	closed   bool

	reconnects int64
}

// PeerInfo is a snapshot of one peer's state, for drivers and tests.
type PeerInfo struct {
	TaskLo, TaskHi int
	Addr           string
	Connected      bool
	Dead           bool
	Reconnects     int64
}

// Transport is a TCP/Unix-socket inter-process transport implementing
// mu.Transport. One per process; peers are the other processes of the
// partition.
type Transport struct {
	cfg    Config
	nTasks int
	ln     net.Listener

	mu       sync.Mutex
	cond     *sync.Cond // roster or connectivity changed
	peers    map[int]*peer
	increc   map[int]uint32 // highest incarnation admitted per peer taskLo
	dials    map[string]*dialState
	pending  map[net.Conn]struct{} // inbound conns mid-handshake
	closed   bool
	closeCh  chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once

	tele          *telemetry.Registry
	framesSent    *telemetry.Counter
	framesRecv    *telemetry.Counter
	bytesSent     *telemetry.Counter
	bytesRecv     *telemetry.Counter
	resends       *telemetry.Counter
	reconnectsCtr *telemetry.Counter
	dupDrops      *telemetry.Counter
	streamDrops   *telemetry.Counter
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
	if cfg.WriteDeadline <= 0 {
		cfg.WriteDeadline = DefaultWriteDeadline
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

// epoch returns the local membership epoch for handshakes.
func (t *Transport) epoch() int64 {
	if t.cfg.Epoch == nil {
		return 0
	}
	return t.cfg.Epoch()
}

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
		Epoch:       t.epoch(),
		Incarnation: t.cfg.Incarnation,
	}
	if peerLo >= 0 {
		t.mu.Lock()
		if p := t.peers[peerLo]; p != nil {
			p.mu.Lock()
			// A dead peer's cursor belongs to the dead incarnation; a
			// rejoining replacement starts a virgin stream at seq 0, and
			// advertising the stale cursor would trip its fence.
			if !p.dead {
				h.RecvSeq = p.recvSeq
			}
			p.mu.Unlock()
		}
		t.mu.Unlock()
	}
	return h
}

// validateHello checks a remote identity against the local partition.
// The returned reject code is sent back; the error is what the local
// side records. Epoch skew is deliberately not a mismatch: survivors
// observe deaths at different times, and refusing a reconnect for it
// would partition the survivors (see DESIGN.md).
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
		p.mu.Lock()
		p.dead = true
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.outq = nil
		p.cond.Broadcast()
		p.mu.Unlock()
		delete(t.peers, h.TaskLo)
	}
	// Pre-create the replacement record (no connection yet — the
	// handshake in flight attaches it) so the buddy replica OnRejoin
	// pushes enqueues as the FIRST frame of the new incarnation's
	// stream. Order matters: revival unparks senders blocked in
	// retry loops, and the rejoined process cannot consume their data
	// until its tasks have restored from the replica — a data frame
	// sequenced ahead of the replica is a head-of-line deadlock.
	np := &peer{t: t, taskLo: h.TaskLo, taskHi: h.TaskHi}
	np.cond = sync.NewCond(&np.mu)
	t.peers[h.TaskLo] = np
	if h.Incarnation > t.increc[h.TaskLo] {
		t.increc[h.TaskLo] = h.Incarnation
	}
	t.wg.Add(1)
	go np.writer()
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
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame || n < 5 {
		return Frame{}, fmt.Errorf("%w: handshake frame of %d bytes", ErrFrameCorrupt, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		return Frame{}, err
	}
	return decodeStreamFrame(body)
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
		p, aerr := t.attachPeer(conn, h, addr, true)
		if aerr != nil {
			conn.Close()
			terminal := errors.Is(aerr, ErrPeerDead) || errors.Is(aerr, ErrHandshakeMismatch) || errors.Is(aerr, ErrClosed)
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
	if _, err := t.attachPeer(conn, f.Hello, "", false); err != nil {
		conn.Close()
	}
}

// attachPeer installs a handshaken connection on the (new or existing)
// peer record, trimming the resend window by the peer's receive cursor
// and restarting the writer from the acknowledged frontier — the
// reconnect-idempotence invariant: any number of reconnects delivers
// each frame exactly once.
func (t *Transport) attachPeer(conn net.Conn, h Hello, addr string, dialer bool) (*peer, error) {
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
		p = &peer{t: t, taskLo: h.TaskLo, taskHi: h.TaskHi, addr: addr, dialer: dialer}
		p.cond = sync.NewCond(&p.mu)
		t.peers[h.TaskLo] = p
		if h.Incarnation > t.increc[h.TaskLo] {
			t.increc[h.TaskLo] = h.Incarnation
		}
		t.wg.Add(1)
		go p.writer()
	} else if p.taskHi != h.TaskHi {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: peer re-joined as [%d,%d), previously [%d,%d)",
			ErrHandshakeMismatch, h.TaskLo, h.TaskHi, p.taskLo, p.taskHi)
	} else if p.addr == "" && addr != "" {
		// A record pre-created by the rejoin admission learns its dial
		// address from the first connection that attaches it.
		p.addr, p.dialer = addr, dialer
	}
	t.mu.Unlock()

	p.mu.Lock()
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
	if h.RecvSeq > p.ackedSeq {
		p.trimLocked(h.RecvSeq)
	}
	p.conn = conn
	p.connGen++
	gen := p.connGen
	p.sentSeq = p.ackedSeq
	if gen > 1 {
		p.reconnects++
		t.reconnectsCtr.Inc()
	}
	p.cond.Broadcast()
	p.mu.Unlock()

	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
	// A successful attach proves the peer's process is alive right now,
	// so it counts as a heartbeat and ends the bootstrap grace. (Failed
	// dial/hello *attempts* must never count — see DESIGN §7c — but an
	// admitted peer beats every BeatInterval from here on, so silence
	// after this point is real suspicion. Without this, a peer killed
	// between admission and its first beat frame stays in grace forever
	// and its death is never confirmed.)
	if t.cfg.OnBeat != nil {
		t.cfg.OnBeat(h.TaskLo, h.TaskHi)
	}
	t.wg.Add(1)
	go t.readLoop(p, conn, gen)
	return p, nil
}

// trimLocked drops the resend-window prefix the peer has acknowledged.
func (p *peer) trimLocked(ack uint64) {
	i := 0
	for i < len(p.outq) && p.outq[i].seq <= ack {
		i++
	}
	p.outq = p.outq[i:]
	if len(p.outq) == 0 {
		p.outq = nil
	}
	p.ackedSeq = ack
	if p.sentSeq < ack {
		p.sentSeq = ack
	}
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

// Send ships one memory-FIFO message to the process hosting dst.Task
// (mu.Transport). The message is segmented, sequenced, and parked in
// the peer's bounded resend window until acknowledged; it fails typed —
// ErrPeerDead, ErrBackpressure, ErrNoPeer — and never blocks.
func (t *Transport) Send(dst mu.TaskAddr, hdr mu.Header, payload []byte) error {
	p := t.peerFor(dst.Task)
	if p == nil {
		return fmt.Errorf("%w %d (partition incomplete, or the peer process was never launched)", ErrNoPeer, dst.Task)
	}
	return p.send(dst, hdr, payload)
}

func (t *Transport) peerFor(task int) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.peers {
		if task >= p.taskLo && task < p.taskHi {
			return p
		}
	}
	return nil
}

func (p *peer) label() string {
	if p.addr != "" {
		return fmt.Sprintf("[%d,%d) at %s", p.taskLo, p.taskHi, p.addr)
	}
	return fmt.Sprintf("[%d,%d)", p.taskLo, p.taskHi)
}

func (p *peer) send(dst mu.TaskAddr, hdr mu.Header, payload []byte) error {
	nseg := (len(payload) + maxSegment - 1) / maxSegment
	if nseg == 0 {
		nseg = 1
	}
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return fmt.Errorf("wire: send %v -> %v: peer %s: %w", hdr.Origin, dst, p.label(), ErrPeerDead)
	}
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("wire: send %v -> %v: %w", hdr.Origin, dst, ErrClosed)
	}
	if len(p.outq)+nseg > p.t.cfg.OutboundQueue {
		n := len(p.outq)
		p.mu.Unlock()
		p.t.backpressured.Inc()
		return fmt.Errorf("wire: send %v -> %v: outbound queue to peer %s full (%d frames unacknowledged): %w",
			hdr.Origin, dst, p.label(), n, ErrBackpressure)
	}
	// All segments enqueue atomically: a message is never torn across a
	// backpressure refusal.
	for off := 0; off < len(payload) || off == 0; off += maxSegment {
		end := off + maxSegment
		if end > len(payload) {
			end = len(payload)
		}
		p.sendSeq++
		h := hdr
		h.Offset = off
		p.outq = append(p.outq, outFrame{seq: p.sendSeq, buf: appendPacket(nil, p.sendSeq, dst, h, payload[off:end])})
		if end == len(payload) {
			break
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
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
	if p.dead {
		p.mu.Unlock()
		return fmt.Errorf("wire: replica to peer %s: %w", p.label(), ErrPeerDead)
	}
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("wire: replica to peer %s: %w", p.label(), ErrClosed)
	}
	if len(p.outq)+1 > p.t.cfg.OutboundQueue {
		n := len(p.outq)
		p.mu.Unlock()
		t.backpressured.Inc()
		return fmt.Errorf("wire: replica to peer %s: outbound queue full (%d frames unacknowledged): %w",
			p.label(), n, ErrBackpressure)
	}
	p.sendSeq++
	p.outq = append(p.outq, outFrame{seq: p.sendSeq, buf: appendReplica(nil, p.sendSeq, blob)})
	p.cond.Broadcast()
	p.mu.Unlock()
	t.replicasSent.Inc()
	return nil
}

// handleReplica accepts one in-sequence replica frame: same duplicate
// suppression and gap fencing as data packets (shared sequence space),
// but the blob goes to the recovery hook instead of the fabric. With no
// hook installed the blob is acknowledged and dropped — replicas are
// soft state; the next checkpoint interval replaces them.
func (t *Transport) handleReplica(p *peer, seq uint64, blob []byte) error {
	p.mu.Lock()
	if seq <= p.recvSeq {
		p.ackDue = true
		p.cond.Broadcast()
		p.mu.Unlock()
		t.dupDrops.Inc()
		return nil
	}
	if seq != p.recvSeq+1 {
		p.mu.Unlock()
		return fmt.Errorf("%w: replica seq %d follows %d (sequence gap)", ErrFrameCorrupt, seq, p.recvSeq)
	}
	p.mu.Unlock()
	t.replicasRecv.Inc()
	if t.cfg.OnReplica != nil {
		t.cfg.OnReplica(blob)
	}
	p.mu.Lock()
	p.recvSeq = seq
	p.ackDue = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// writer is the peer's single write goroutine: it flushes pending acks,
// beats, and unsent window frames onto the current connection, under a
// write deadline so a stalled peer breaks the connection instead of
// wedging the transport.
func (p *peer) writer() {
	t := p.t
	defer t.wg.Done()
	var out []byte // flush buffer, reused: this goroutine is its only user
	for {
		p.mu.Lock()
		for !(p.closed || p.dead) &&
			(p.conn == nil || (p.sentSeq >= p.sendSeq && !p.ackDue && !p.beatDue)) {
			p.cond.Wait()
		}
		if p.closed || p.dead {
			p.mu.Unlock()
			return
		}
		conn, gen := p.conn, p.connGen
		out = out[:0]
		nframes := 0
		if p.ackDue {
			out = appendAck(out, p.recvSeq)
			p.ackDue = false
			nframes++
			t.acksSent.Inc()
		}
		if p.beatDue {
			out = appendBeat(out)
			p.beatDue = false
			nframes++
			t.beatsSent.Inc()
		}
		for _, of := range p.outq {
			if of.seq <= p.sentSeq {
				continue
			}
			if nframes >= 64 || len(out) > 256<<10 {
				break
			}
			if of.seq <= p.everSent {
				t.resends.Inc()
			} else {
				p.everSent = of.seq
			}
			out = append(out, of.buf...)
			p.sentSeq = of.seq
			nframes++
		}
		p.flushes++
		flush := p.flushes
		peerLo := int64(p.taskLo)
		p.mu.Unlock()

		// Deterministic wire-fault storm: cut the connection instead of
		// writing, or corrupt a byte so the peer's CRC check cuts it.
		// Either way the resend window replays after reconnect.
		if t.cfg.DropProb > 0 && fault.Chance(t.cfg.DropProb, t.cfg.Seed, peerLo, flush, 1) {
			t.cutsInjected.Inc()
			p.connBroken(gen, fmt.Errorf("wire: injected connection cut"))
			continue
		}
		if t.cfg.CorruptProb > 0 && fault.Chance(t.cfg.CorruptProb, t.cfg.Seed, peerLo, flush, 2) {
			t.corrInjected.Inc()
			// Reduce in uint64: truncating the hash to int first can go
			// negative, and Go's % keeps the sign (index out of range).
			out[fault.FlowHash(int(peerLo), int(flush), 0, 0)%uint64(len(out))] ^= 0x40
		}
		conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteDeadline))
		n, err := conn.Write(out)
		t.bytesSent.Add(int64(n))
		t.framesSent.Add(int64(nframes))
		if err != nil {
			p.connBroken(gen, err)
		}
	}
}

// connBroken tears down one connection incarnation (idempotent per
// generation) and rewinds the write cursor to the acknowledged
// frontier so the next connection resends the tail.
func (p *peer) connBroken(gen int, reason error) {
	_ = reason
	p.mu.Lock()
	if gen != p.connGen || p.conn == nil {
		p.mu.Unlock()
		return
	}
	p.conn.Close()
	p.conn = nil
	p.sentSeq = p.ackedSeq
	p.cond.Broadcast()
	p.mu.Unlock()
	t := p.t
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// readLoop consumes frames from one connection incarnation. Any
// integrity or sequencing violation kills the connection; reconnection
// plus the resend window restore the stream exactly-once.
func (t *Transport) readLoop(p *peer, conn net.Conn, gen int) {
	defer t.wg.Done()
	var lenBuf [4]byte
	scratch := make([]byte, 0, 8192)
	var streamErr error
loop:
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			break
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > MaxFrame || n < 5 {
			streamErr = ErrFrameTooLarge
			break
		}
		if cap(scratch) < int(n) {
			scratch = make([]byte, n)
		}
		scratch = scratch[:n]
		if _, err := io.ReadFull(conn, scratch); err != nil {
			break
		}
		t.bytesRecv.Add(int64(n) + 4)
		f, err := decodeStreamFrame(scratch)
		if err != nil {
			streamErr = err
			break
		}
		t.framesRecv.Inc()
		switch f.Kind {
		case kindPacket:
			if err := t.handlePacket(p, &f.Packet); err != nil {
				streamErr = err
				break loop
			}
		case kindAck:
			p.mu.Lock()
			if f.AckSeq > p.ackedSeq && f.AckSeq <= p.sendSeq {
				p.trimLocked(f.AckSeq)
			}
			p.mu.Unlock()
		case kindBeat:
			t.beatsRecv.Inc()
			if t.cfg.OnBeat != nil {
				t.cfg.OnBeat(p.taskLo, p.taskHi)
			}
		case kindReplica:
			if err := t.handleReplica(p, f.ReplicaSeq, f.Replica); err != nil {
				streamErr = err
				break loop
			}
		default:
			streamErr = fmt.Errorf("%w: unexpected frame kind %d mid-stream", ErrFrameCorrupt, f.Kind)
			break loop
		}
	}
	if streamErr != nil {
		t.streamDrops.Inc()
	}
	p.connBroken(gen, streamErr)
}

// handlePacket delivers one in-sequence message segment to the local
// fabric, stalling (bounded by the frame already in hand — no growing
// buffer) while the destination FIFO is saturated, and acknowledges it
// only after delivery, so an unacknowledged segment is always safe to
// resend.
func (t *Transport) handlePacket(p *peer, pf *PacketFrame) error {
	// A severed connection's readLoop may still be delivering the frame it
	// has in hand when its successor starts on the resends of the same
	// sequence numbers: the sequence check, the delivery and the recvSeq
	// update must be one step, or both deliver.
	p.rxMu.Lock()
	defer p.rxMu.Unlock()
	p.mu.Lock()
	if pf.Seq <= p.recvSeq {
		// Resent duplicate from before the last reconnect: drop, but
		// re-acknowledge so the sender trims its window.
		p.ackDue = true
		p.cond.Broadcast()
		p.mu.Unlock()
		t.dupDrops.Inc()
		return nil
	}
	if pf.Seq != p.recvSeq+1 {
		p.mu.Unlock()
		return fmt.Errorf("%w: packet seq %d follows %d (sequence gap)", ErrFrameCorrupt, pf.Seq, p.recvSeq)
	}
	p.mu.Unlock()
	if !t.Local(pf.Dst.Task) {
		return fmt.Errorf("%w: packet for task %d, which is not hosted here", ErrFrameCorrupt, pf.Dst.Task)
	}
	hdr := pf.Hdr
	payload := pf.Payload
	for step := int64(0); ; step++ {
		n, err := t.cfg.Deliver(pf.Dst, hdr, payload)
		hdr.Offset += n
		payload = payload[n:]
		if hdr.Offset > 0 {
			// Meta rides only the offset-0 packet; once any bytes land,
			// retries continue past it.
			hdr.Meta = nil
		}
		if err == nil {
			break
		}
		if t.isClosed() {
			return ErrClosed
		}
		// Reception backpressure (or a context not yet registered at
		// bootstrap): hold this one frame and retry on a seeded-jitter
		// cadence. The TCP window does the upstream throttling; the
		// sender's bounded queue surfaces ErrBackpressure beyond that.
		t.deliverStalls.Inc()
		time.Sleep(fault.Jitter(t.cfg.Seed, step, 100*time.Microsecond))
	}
	p.mu.Lock()
	p.recvSeq = pf.Seq
	p.ackDue = true
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// beater marks every connected peer beat-due on the configured period;
// the writers put the beats on the wire out-of-band from data.
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
				p.cond.Broadcast()
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
	p := t.peerFor(task)
	if p == nil {
		// No peer object (e.g. a restored survivor that never heard from
		// the dead range) — still wake WaitComplete so coverage re-checks
		// against RangeDead.
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
		return
	}
	p.mu.Lock()
	if !p.dead {
		p.dead = true
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.outq = nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
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
		n, dead := len(p.outq), p.dead
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
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
