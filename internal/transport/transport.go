// Package transport implements network.Link over real TCP connections,
// letting the §5 protocol stacks (m-SC and m-lin over atomic broadcast)
// run across OS processes instead of the in-memory simulated network.
//
// One Node per process multiplexes every logical channel ("abcast",
// "mlin.query", "recovery") over a single listener and one outbound
// connection per peer. Endpoints are mapped to processes by
// owner(e) = e mod len(addrs), which places protocol endpoint p on
// daemon p and the fixed sequencer's dedicated endpoint n back on
// daemon 0. Frames are length-prefixed binary (see codec.go) and are
// encoded at Send time into pooled buffers so callers observe codec
// errors and the steady-state send path does not allocate. Outbound
// connections dial lazily with exponential backoff and reconnect after
// failures, counting re-establishments in
// Stats.Reconnects and frames eligible for resend after a mid-frame
// write error in Stats.Retransmitted.
//
// Unlike the simulated network, every daemon constructs the full
// protocol stack, so constructors replicate bootstrap sends on all
// nodes (e.g. the token ring's initial token injection at endpoint 0).
// Sends whose from-endpoint is not locally owned are therefore dropped
// silently (counted in Stats.Dropped): the owning node performs the
// authoritative send.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/network"
)

// Config describes one node of a transport cluster.
type Config struct {
	// Self is this node's index into Addrs.
	Self int
	// Addrs lists every node's listen address, in node-index order.
	// The same slice must be given to every node.
	Addrs []string
	// Listener optionally supplies a pre-bound listener (e.g. one
	// opened on port 0 to learn its address before the cluster's
	// address list is assembled). When nil, Listen binds Addrs[Self].
	Listener net.Listener
	// DialTimeout bounds a single outbound dial attempt. Default 2s.
	DialTimeout time.Duration
	// RetryBase and RetryMax bound the exponential dial backoff.
	// Defaults 5ms and 1s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// InboxSize is the per-endpoint delivery buffer on each channel.
	// Default 4096.
	InboxSize int
	// Faults optionally injects socket-level faults (resets, corruption,
	// latency, throttling, timed partitions) on this node's outbound
	// connections. See faults.go. Nil injects nothing.
	Faults *Faults
	// Seed drives the dial-backoff jitter (each peer gets a derived
	// stream so retries desynchronize across peers and nodes). 0 seeds
	// from the clock, which is fine for jitter: tests that need
	// reproducible backoff pass an explicit seed.
	Seed int64
}

const (
	defaultDialTimeout = 2 * time.Second
	defaultRetryBase   = 5 * time.Millisecond
	defaultRetryMax    = time.Second
	defaultInboxSize   = 4096
	// maxPending bounds frames buffered per channel before the local
	// protocol stack registers its link; overflow is dropped.
	maxPending = 4096
	// peerQueue is the depth of each outbound per-peer frame queue.
	peerQueue = 4096
	// maxCoalesce bounds the bytes a writer flush may coalesce from the
	// peer queue into one buffered write. Frames are length-prefixed, so
	// concatenation is the wire format; the bound keeps a burst from
	// building an unboundedly large write buffer.
	maxCoalesce = 256 * 1024
	// readBufSize is the buffered reader each inbound connection's
	// readLoop decodes frames through.
	readBufSize = 64 * 1024
)

// Node is one process's TCP transport endpoint. It accepts inbound
// connections from every peer, maintains one lazy outbound connection
// per peer, and demultiplexes inbound frames to the registered logical
// channels.
type Node struct {
	cfg    Config
	ln     net.Listener
	peers  []*peer // peers[Self] == nil
	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	wg     sync.WaitGroup

	faults *faultState // nil when cfg.Faults is nil

	mu      sync.Mutex
	links   map[string]*tcpLink
	pending map[string][]network.Message
	conns   map[net.Conn]struct{}
	closed  bool

	reconnects    atomic.Int64
	batches       atomic.Int64
	batchedFrames atomic.Int64
	retransmits   atomic.Int64
}

// Listen starts a transport node: it binds (or adopts) the listener for
// cfg.Addrs[cfg.Self] and begins accepting peer connections. Outbound
// connections are dialed lazily on first send to each peer.
func Listen(cfg Config) (*Node, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("transport: no addresses")
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Addrs) {
		return nil, fmt.Errorf("transport: self %d out of range [0,%d)", cfg.Self, len(cfg.Addrs))
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = defaultRetryMax
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = defaultInboxSize
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(len(cfg.Addrs)); err != nil {
			return nil, err
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Self])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Self], err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:     cfg,
		ln:      ln,
		ctx:     ctx,
		cancel:  cancel,
		stop:    make(chan struct{}),
		links:   make(map[string]*tcpLink),
		pending: make(map[string][]network.Message),
		conns:   make(map[net.Conn]struct{}),
	}
	if cfg.Faults != nil {
		n.faults = newFaultState(*cfg.Faults)
	}
	jitterSeed := cfg.Seed
	if jitterSeed == 0 {
		jitterSeed = time.Now().UnixNano()
	}
	n.peers = make([]*peer, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		if i == cfg.Self {
			continue
		}
		p := &peer{
			node: n, id: i, addr: addr,
			out: make(chan *frameBuf, peerQueue),
			// Derived per-peer stream: retries toward different peers
			// (and from different nodes, via differing Self) diverge.
			rng: rand.New(rand.NewSource(jitterSeed + int64(cfg.Self)*7919 + int64(i)*104729)),
		}
		n.peers[i] = p
		n.wg.Add(1)
		go p.writer()
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's actual listen address (useful with port 0).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Owner maps a protocol endpoint to the node index that hosts it.
// Endpoints 0..len(addrs)-1 map to their own node; extra endpoints
// (the fixed sequencer's dedicated endpoint n) wrap around to node 0.
func (n *Node) Owner(endpoint int) int { return endpoint % len(n.cfg.Addrs) }

// Factory returns a network.Factory that builds each named logical
// channel on this node. The simulation parameters in the network.Config
// (delays, seed, faults) are ignored; only Procs and InboxSize apply.
func (n *Node) Factory() network.Factory {
	return func(name string, cfg network.Config) (network.Link, error) {
		inbox := cfg.InboxSize
		if inbox <= 0 {
			inbox = n.cfg.InboxSize
		}
		return n.register(name, cfg.Procs, inbox)
	}
}

// Close shuts the node down: the listener stops accepting, every open
// connection is closed, and all links tied to this node report
// network.ErrClosed on further sends.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for c := range n.conns {
		c.Close()
	}
	links := make([]*tcpLink, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()

	close(n.stop)
	n.cancel()
	n.ln.Close()
	for _, l := range links {
		l.Close()
	}
	n.wg.Wait()
}

// register creates (and registers) the link for one logical channel,
// first flushing any frames that arrived before the local protocol
// stack was constructed. The flush loop preserves arrival order: it
// repeatedly drains the pending slice outside the lock and only
// registers the live link once no more buffered frames remain.
func (n *Node) register(name string, endpoints, inboxSize int) (*tcpLink, error) {
	if endpoints <= 0 {
		return nil, fmt.Errorf("transport: channel %q needs at least one endpoint", name)
	}
	l := &tcpLink{
		node:      n,
		name:      name,
		endpoints: endpoints,
		inboxes:   make(map[int]chan network.Message),
		never:     make(chan network.Message),
		stop:      make(chan struct{}),
		kinds:     make(map[string]*network.KindStats),
	}
	for e := 0; e < endpoints; e++ {
		if n.Owner(e) == n.cfg.Self {
			l.inboxes[e] = make(chan network.Message, inboxSize)
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, network.ErrClosed
	}
	if _, dup := n.links[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: channel %q already registered", name)
	}
	for {
		pend := n.pending[name]
		if len(pend) == 0 {
			n.links[name] = l
			delete(n.pending, name)
			n.mu.Unlock()
			return l, nil
		}
		n.pending[name] = nil
		n.mu.Unlock()
		for _, m := range pend {
			l.deliver(m)
		}
		n.mu.Lock()
	}
}

// route hands one inbound frame to its channel's link, or buffers it if
// the channel is not registered yet (daemons start at different times,
// so a fast peer's first frames can land before the local stack is up).
func (n *Node) route(name string, m network.Message) {
	n.mu.Lock()
	l, ok := n.links[name]
	if !ok {
		if !n.closed && len(n.pending[name]) < maxPending {
			n.pending[name] = append(n.pending[name], m)
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	l.deliver(m)
}

// enqueue queues one encoded frame for the writer goroutine of the peer
// that owns the destination endpoint. On success the writer owns fb; on
// failure ownership stays with the caller (which returns it to the
// pool).
func (n *Node) enqueue(peerID int, fb *frameBuf, linkStop chan struct{}) error {
	p := n.peers[peerID]
	select {
	case p.out <- fb:
		return nil
	case <-n.stop:
		return network.ErrClosed
	case <-linkStop:
		return network.ErrClosed
	}
}

func (n *Node) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrackConn(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.trackConn(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection until it fails or
// the node closes. Any peer connection may carry frames for any
// channel. Every readFrame error is fatal for the connection — in
// particular an oversized length prefix (ErrFrameTooLarge) or a
// malformed frame (ErrBadFrame) means framing is lost or the peer is
// hostile, and the deferred Close kills the stream before the promised
// bytes are ever allocated.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrackConn(conn)
	defer conn.Close()
	// One buffered reader per connection: a coalesced burst of frames
	// costs one read syscall, not two per frame.
	r := bufio.NewReaderSize(conn, readBufSize)
	var scratch []byte // reused frame body buffer; decoded values copy out
	for {
		f, err := readFrame(r, &scratch)
		if err != nil {
			return
		}
		n.route(f.Channel, network.Message{
			From: f.From, To: f.To, Kind: f.Kind, Payload: f.Payload, Bytes: f.Bytes,
		})
	}
}

// peer owns the single outbound connection to one remote node. Its
// writer goroutine dials lazily with exponential backoff and re-dials
// after write failures, resending the frame that hit the error. TCP
// guarantees ordered reliable delivery within one connection; a frame
// written just before a connection dies may be lost, matching the
// paper's reliable-channel assumption only as well as real TCP does.
type peer struct {
	node *Node
	id   int
	addr string
	out  chan *frameBuf
	// rng drives the dial-backoff jitter. Only the writer goroutine
	// draws from it, so it needs no lock.
	rng *rand.Rand
	// down is true while the writer cannot reach the peer: set after a
	// failed dial attempt (the writer is in reconnect backoff), cleared
	// when a dial succeeds. tcpLink.Down reads it.
	down atomic.Bool
}

// writeFull writes all of b to c, looping over short writes, and
// reports how many bytes were written. A net.Conn should never return a
// short count without an error, but the wire path does not bet the
// stream's framing on that: a silent short write would desynchronize
// every frame that follows.
func writeFull(c net.Conn, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := c.Write(b[total:])
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

func (p *peer) writer() {
	defer p.node.wg.Done()
	var conn net.Conn
	connectedOnce := false
	// wbuf accumulates coalesced frames; ends[i] is the offset just past
	// frame i, so a mid-frame write error can tell complete frames from
	// the torn one. Both persist across iterations so the steady state
	// allocates nothing.
	wbuf := make([]byte, 0, 4096)
	ends := make([]int, 0, 64)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var fb *frameBuf
		select {
		case fb = <-p.out:
		case <-p.node.stop:
			return
		}
		// Coalesce whatever else is already queued into one buffered
		// write. Frames are length-prefixed, so concatenation is exactly
		// the stream the peer's readLoop expects; one syscall then
		// carries the whole burst.
		wbuf = append(wbuf[:0], fb.b...)
		ends = append(ends[:0], len(wbuf))
		putFrameBuf(fb)
		frames := 1
	coalesce:
		for len(wbuf) < maxCoalesce {
			select {
			case more := <-p.out:
				wbuf = append(wbuf, more.b...)
				putFrameBuf(more)
				ends = append(ends, len(wbuf))
				frames++
			default:
				break coalesce
			}
		}
		if frames > 1 {
			p.node.batches.Add(1)
			p.node.batchedFrames.Add(int64(frames))
		}
		for len(wbuf) > 0 {
			if conn == nil {
				conn = p.dial()
				if conn == nil {
					return // node closed while dialing
				}
				if connectedOnce {
					p.node.reconnects.Add(1)
				}
				connectedOnce = true
			}
			w, err := writeFull(conn, wbuf)
			if err == nil {
				break
			}
			p.node.untrackConn(conn)
			conn.Close()
			conn = nil
			var resend int
			wbuf, ends, resend = pruneWritten(wbuf, ends, w)
			p.node.retransmits.Add(int64(resend))
			select {
			case <-p.node.stop:
				return
			default:
			}
		}
	}
}

// pruneWritten compacts the write buffer after a write error at byte
// offset w. Frames written in full may have reached the peer and are
// dropped; every frame with unwritten bytes stays — including the torn
// frame, kept whole from its first byte, since the peer's readLoop
// discards a partial frame when the connection dies. Returns the
// compacted buffer and offsets plus the count of frames eligible for
// resend (metered in Stats.Retransmitted).
func pruneWritten(wbuf []byte, ends []int, w int) ([]byte, []int, int) {
	keep := len(ends)
	start := 0
	for i, end := range ends {
		if end > w {
			keep = i
			if i > 0 {
				start = ends[i-1]
			}
			break
		}
	}
	if keep == len(ends) {
		// Every frame was fully written before the error surfaced.
		return wbuf[:0], ends[:0], 0
	}
	copy(wbuf, wbuf[start:])
	wbuf = wbuf[:len(wbuf)-start]
	for i := keep; i < len(ends); i++ {
		ends[i-keep] = ends[i] - start
	}
	return wbuf, ends[:len(ends)-keep], len(ends) - keep
}

// dial connects to the peer, retrying with capped, jittered exponential
// backoff until it succeeds or the node closes (then it returns nil).
// An active injected partition toward the peer refuses the dial the
// same way a real unreachable peer would, so the backoff loop paces
// retries during the window instead of spinning on write failures.
func (p *peer) dial() net.Conn {
	backoff := p.node.cfg.RetryBase
	for {
		var conn net.Conn
		err := errPartitioned
		if fs := p.node.faults; fs == nil || !fs.refuseDial(p.id) {
			d := net.Dialer{Timeout: p.node.cfg.DialTimeout}
			conn, err = d.DialContext(p.node.ctx, "tcp", p.addr)
		}
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			if fs := p.node.faults; fs != nil {
				conn = fs.wrap(p.id, conn)
			}
			if !p.node.trackConn(conn) {
				conn.Close()
				return nil
			}
			p.down.Store(false)
			return conn
		}
		p.down.Store(true)
		var sleep time.Duration
		sleep, backoff = nextBackoff(backoff, p.node.cfg.RetryMax, p.rng)
		select {
		case <-p.node.stop:
			return nil
		case <-time.After(sleep):
		}
	}
}

// nextBackoff turns the current backoff value into the jittered sleep
// for this attempt — uniform in [cur/2, cur], so simultaneously
// partitioned peers do not wake in lockstep and hammer the healed node
// together — and the doubled, capped value for the next one.
func nextBackoff(cur, max time.Duration, rng *rand.Rand) (sleep, next time.Duration) {
	sleep = cur
	if half := int64(cur / 2); half > 0 {
		sleep = time.Duration(half + rng.Int63n(half+1))
	}
	next = cur * 2
	if next > max {
		next = max
	}
	return sleep, next
}

// FaultStats reports the node's injected-fault counters; zero when no
// Faults were configured.
func (n *Node) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats()
}

// tcpLink is one logical channel's network.Link view on one node. It
// meters sends exactly like the simulated network (messages, bytes,
// per-kind counts) and adds the node-wide reconnect count to Stats.
type tcpLink struct {
	node      *Node
	name      string
	endpoints int
	inboxes   map[int]chan network.Message // locally-owned endpoints only
	never     chan network.Message         // returned for remote endpoints
	stop      chan struct{}
	closed    atomic.Bool

	messages atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64

	mu    sync.Mutex
	kinds map[string]*network.KindStats
}

var _ network.Link = (*tcpLink)(nil)

// Send transmits one message. Messages between two locally-owned
// endpoints bypass serialization and go straight to the inbox; remote
// messages are encoded here into a pooled frame buffer (so codec errors
// surface to the caller) and queued on the destination node's peer
// connection. Sends from endpoints this node does not own are artifacts
// of replicated protocol construction and are dropped (counted in
// Stats.Dropped): the owning node performs the authoritative send.
func (l *tcpLink) Send(from, to int, kind string, payload any, bytes int) error {
	if l.closed.Load() {
		return network.ErrClosed
	}
	if from < 0 || from >= l.endpoints || to < 0 || to >= l.endpoints {
		return fmt.Errorf("transport: endpoint out of range: %d -> %d (of %d)", from, to, l.endpoints)
	}
	if l.node.Owner(from) != l.node.cfg.Self {
		l.dropped.Add(1)
		return nil
	}
	owner := l.node.Owner(to)
	if owner == l.node.cfg.Self {
		l.meter(kind, bytes)
		return l.deliverLocal(network.Message{From: from, To: to, Kind: kind, Payload: payload, Bytes: bytes})
	}
	fb := getFrameBuf()
	f := wireFrame{Channel: l.name, From: from, To: to, Kind: kind, Payload: payload, Bytes: bytes}
	if err := encodeFrame(f, fb); err != nil {
		putFrameBuf(fb)
		return err
	}
	l.meter(kind, bytes)
	if err := l.node.enqueue(owner, fb, l.stop); err != nil {
		putFrameBuf(fb)
		return err
	}
	return nil
}

// Broadcast sends to every endpoint, including the sender. Unlike the
// simulated network the fan-out is not atomic: each destination is an
// independent Send, and the first error aborts the remainder.
func (l *tcpLink) Broadcast(from int, kind string, payload any, bytes int) error {
	for to := 0; to < l.endpoints; to++ {
		if err := l.Send(from, to, kind, payload, bytes); err != nil {
			return err
		}
	}
	return nil
}

// Recv returns the delivery channel for endpoint p. For endpoints owned
// by other nodes it returns a channel that never delivers, so replicated
// constructors can wire up receive loops that simply stay idle.
func (l *tcpLink) Recv(p int) <-chan network.Message {
	if ch, ok := l.inboxes[p]; ok {
		return ch
	}
	return l.never
}

// deliverLocal pushes a message into a locally-owned inbox, blocking
// until there is room or the link/node closes.
func (l *tcpLink) deliverLocal(m network.Message) error {
	ch, ok := l.inboxes[m.To]
	if !ok {
		l.dropped.Add(1)
		return nil
	}
	select {
	case ch <- m:
		return nil
	case <-l.stop:
		return network.ErrClosed
	case <-l.node.stop:
		return network.ErrClosed
	}
}

// deliver handles an inbound (or flushed-pending) frame. After the link
// closes, frames are silently discarded — the link stays registered as a
// tombstone so late traffic does not re-buffer.
func (l *tcpLink) deliver(m network.Message) {
	if l.closed.Load() {
		return
	}
	if m.To < 0 || m.To >= l.endpoints {
		l.dropped.Add(1)
		return
	}
	l.deliverLocal(m)
}

func (l *tcpLink) meter(kind string, bytes int) {
	l.messages.Add(1)
	l.bytes.Add(int64(bytes))
	l.mu.Lock()
	ks := l.kinds[kind]
	if ks == nil {
		ks = &network.KindStats{}
		l.kinds[kind] = ks
	}
	ks.Messages++
	ks.Bytes += int64(bytes)
	l.mu.Unlock()
}

// Stats reports this channel's send-side metering. Reconnects is the
// node-wide count of re-established peer connections (connections are
// shared by every channel on the node, so the count cannot be split
// per channel).
func (l *tcpLink) Stats() network.Stats {
	st := network.Stats{
		Messages:      l.messages.Load(),
		Bytes:         l.bytes.Load(),
		Dropped:       l.dropped.Load(),
		Reconnects:    l.node.reconnects.Load(),
		Batches:       l.node.batches.Load(),
		BatchedFrames: l.node.batchedFrames.Load(),
		Retransmitted: l.node.retransmits.Load(),
		ByKind:        make(map[string]network.KindStats),
	}
	if l.node.faults != nil {
		// Node-wide, like Reconnects: the pacing token bucket is shared
		// by every channel on the node.
		st.Throttled = l.node.faults.throttled.Load()
	}
	l.mu.Lock()
	for k, v := range l.kinds {
		st.ByKind[k] = *v
	}
	l.mu.Unlock()
	return st
}

// Procs returns the channel's endpoint count (across all nodes).
func (l *tcpLink) Procs() int { return l.endpoints }

// Down reports whether the node owning endpoint p is currently
// unreachable: true while this node's writer to that peer is in
// reconnect backoff after a failed dial. The TCP transport does not
// simulate crash-stop faults, so this reflects real connectivity —
// locally-owned endpoints are never down, and a peer is only probed by
// actual traffic (a quiet unreachable peer reads as up until a send
// forces a dial).
func (l *tcpLink) Down(p int) bool {
	if p < 0 || p >= l.endpoints {
		return false
	}
	owner := l.node.Owner(p)
	if owner == l.node.cfg.Self {
		return false
	}
	return l.node.peers[owner].down.Load()
}

// Close shuts this channel down on this node. The link stays registered
// as a tombstone so frames still in flight from peers are discarded
// rather than buffered. The node and its other channels keep running.
func (l *tcpLink) Close() {
	if l.closed.CompareAndSwap(false, true) {
		close(l.stop)
	}
}
