// Package tcpnet is the real-network implementation of
// transport.Network: protocol endpoints hosted in different OS
// processes exchange wire-encoded frames over TCP. It is the piece
// that turns the in-process simulation into a deployable system — the
// protocol layers (core, reliable) program against the same Network
// interface and cannot tell the difference.
//
// Topology. Each process hosts one or more protocol endpoints
// (Config.Local) and knows every remote endpoint's TCP address
// (Config.Peers). Endpoints that share an address — node 0 and the
// coordinator in the standard deployment — share one connection, keyed
// by address, not by endpoint id. Connections are simplex: a process
// dials for its outbound traffic and accepts inbound traffic on its
// listener, so there is no connection-ownership handshake.
//
// Delivery contract. Sends never block (per-link unbounded ring, the
// same no-waiting property the in-memory Net provides) and local
// endpoints are delivered to by one goroutine per endpoint, preserving
// the handler-serialization the protocol relies on. Self-sends bypass
// the socket entirely.
//
// Loss model. TCP gives in-order exactly-once delivery per connection,
// but a broken connection loses whatever was queued or in flight, and
// tcpnet reconnects with capped exponential backoff rather than
// guaranteeing delivery. End-to-end reliability is the session layer's
// job: wrap tcpnet with transport/reliable.Wrap (exactly as the chaos
// harness wraps the lossy in-memory net) and a killed connection is
// healed by retransmission. KillConnections exists so tests can force
// that code path deterministically.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config parameterizes a tcpnet Net.
type Config struct {
	// Local lists the protocol endpoint ids hosted by this process.
	Local []model.NodeID
	// Peers maps every remote endpoint id to its "host:port" address.
	// Local ids may be listed too (they are ignored).
	Peers map[model.NodeID]string
	// Listener is the caller-bound listener for inbound connections.
	// The caller binds (rather than passing an address) so tests can
	// listen on ":0" and learn the port before building peer maps.
	Listener net.Listener
	// DialTimeout bounds one outbound connection attempt; 0 means 2s.
	DialTimeout time.Duration
	// ReconnectMin/ReconnectMax bound the capped exponential backoff
	// between failed dial attempts; 0 means 20ms / 2s.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// WriteTimeout bounds one batched write; 0 means 10s. Without it a
	// half-open connection (remote host gone without a RST) blocks the
	// writer forever once the kernel send buffer fills, wedging the
	// link past any redial path. A timeout is treated as a write
	// failure: drop the conn, redial, re-send the batch.
	WriteTimeout time.Duration
	// BatchFrames encodes each writer pass's drained queue as a single
	// frame whose payload is a transport.BatchMsg instead of one frame
	// per message: one length prefix, one decode on the far side.
	// Messages whose payload is already a transport.BatchMsg (an upper
	// layer's flush envelope) pass through as their own frames — batches
	// never nest.
	// The receiver routes each member by its own To, so endpoints that
	// share an address still demultiplex correctly.
	BatchFrames bool
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 20 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// maxBatch bounds how many queued messages one writer pass coalesces
// into a single buffered write; it caps the encode buffer's growth
// while still amortizing syscalls under load.
const maxBatch = 256

// inbox is the per-local-endpoint delivery queue: unbounded ring,
// non-blocking put, one consuming goroutine per endpoint (handler
// serialization, as the protocol requires).
type inbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     ring.Ring[transport.Message]
	closed    bool
	delivered int64
	highWater int64
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(m transport.Message) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false
	}
	ib.queue.Push(m)
	if n := int64(ib.queue.Len()); n > ib.highWater {
		ib.highWater = n
	}
	ib.cond.Signal()
	return true
}

func (ib *inbox) get() (transport.Message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for ib.queue.Len() == 0 && !ib.closed {
		ib.cond.Wait()
	}
	m, ok := ib.queue.Pop()
	if ok {
		ib.delivered++
	}
	return m, ok
}

func (ib *inbox) counts() (delivered, highWater int64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.delivered, ib.highWater
}

func (ib *inbox) close() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.closed = true
	ib.cond.Broadcast()
}

// peerLink is the outbound side of one connection: an unbounded send
// ring drained by a dedicated writer goroutine that owns the dial /
// reconnect / coalesce cycle for its remote address.
type peerLink struct {
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  ring.Ring[transport.Message]
	conn   net.Conn // current outbound conn, nil while down; guarded by mu for KillConnections
	closed bool
	down   chan struct{} // closed by close(); interrupts the dial backoff sleep
}

func newPeerLink(addr string) *peerLink {
	l := &peerLink{addr: addr, down: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *peerLink) enqueue(m transport.Message) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.queue.Push(m)
	l.cond.Signal()
	return true
}

// popBatch blocks until at least one message is queued (or the link
// closes), then drains up to maxBatch messages into batch.
func (l *peerLink) popBatch(batch []transport.Message) []transport.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.queue.Len() == 0 && !l.closed {
		l.cond.Wait()
	}
	for len(batch) < maxBatch {
		m, ok := l.queue.Pop()
		if !ok {
			break
		}
		batch = append(batch, m)
	}
	return batch
}

func (l *peerLink) setConn(c net.Conn) {
	l.mu.Lock()
	l.conn = c
	l.mu.Unlock()
}

// kill closes the link's current connection (if any) without closing
// the link; the writer notices on its next write and redials.
func (l *peerLink) kill() {
	l.mu.Lock()
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (l *peerLink) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	c := l.conn
	l.conn = nil
	l.cond.Broadcast()
	close(l.down)
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Net is the TCP transport.Network. Build with New, then Register
// local handlers and Start.
type Net struct {
	cfg      Config
	handlers map[model.NodeID]transport.Handler
	local    map[model.NodeID]bool
	inboxes  map[model.NodeID]*inbox
	links    map[string]*peerLink // by remote address
	route    map[model.NodeID]*peerLink

	stats      transport.StatsCollector
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	framesSent atomic.Int64
	framesRecv atomic.Int64
	reconnects atomic.Int64
	dropped    atomic.Int64 // undeliverable or lost on a dead link's final flush
	flushes    atomic.Int64 // batch frames written (BatchFrames mode)
	obs        atomic.Pointer[obs.Registry]

	mu      sync.Mutex
	started bool
	closed  bool
	inbound map[net.Conn]bool // accepted conns, for KillConnections/Close
	wg      sync.WaitGroup
}

// New builds a tcpnet Net. cfg.Listener is required; every endpoint id
// that is neither local nor in Peers is unroutable (Send drops and
// counts it).
func New(cfg Config) (*Net, error) {
	cfg = cfg.withDefaults()
	if cfg.Listener == nil {
		return nil, errors.New("tcpnet: Config.Listener is required")
	}
	if len(cfg.Local) == 0 {
		return nil, errors.New("tcpnet: Config.Local is empty")
	}
	n := &Net{
		cfg:      cfg,
		handlers: make(map[model.NodeID]transport.Handler),
		local:    make(map[model.NodeID]bool),
		inboxes:  make(map[model.NodeID]*inbox),
		links:    make(map[string]*peerLink),
		route:    make(map[model.NodeID]*peerLink),
		inbound:  make(map[net.Conn]bool),
	}
	for _, id := range cfg.Local {
		n.local[id] = true
		n.inboxes[id] = newInbox()
	}
	for id, addr := range cfg.Peers {
		if n.local[id] {
			continue
		}
		link, ok := n.links[addr]
		if !ok {
			link = newPeerLink(addr)
			n.links[addr] = link
		}
		n.route[id] = link
	}
	return n, nil
}

// SetObs attaches an observability registry for the wire encode/decode
// latency histograms. Safe to call at any time (including never).
func (n *Net) SetObs(r *obs.Registry) { n.obs.Store(r) }

// Register implements Network. Only locally hosted endpoint ids accept
// handlers.
func (n *Net) Register(id model.NodeID, h transport.Handler) {
	if !n.local[id] {
		panic(fmt.Sprintf("tcpnet: Register(%d) but endpoint is not in Config.Local", id))
	}
	n.handlers[id] = h
}

// Start implements Network: spawns the acceptor, one delivery
// goroutine per local endpoint, and one writer per peer link.
func (n *Net) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.closed {
		return
	}
	n.started = true
	for id := range n.local {
		if n.handlers[id] == nil {
			panic(fmt.Sprintf("tcpnet: local endpoint %d has no handler", id))
		}
		n.wg.Add(1)
		go n.deliverLoop(id)
	}
	for _, link := range n.links {
		n.wg.Add(1)
		go n.writeLoop(link)
	}
	n.wg.Add(1)
	go n.acceptLoop()
}

func (n *Net) deliverLoop(id model.NodeID) {
	defer n.wg.Done()
	h := n.handlers[id]
	ib := n.inboxes[id]
	for {
		m, ok := ib.get()
		if !ok {
			return
		}
		// Deliver unpacks any flush envelope that reached the inbox
		// whole (the loopback-bypass path; socket batches are unpacked
		// at routing time), so handlers never see a BatchMsg.
		transport.Deliver(h, m)
	}
}

// Send implements Network: never blocks. Local destinations are
// delivered via the in-process inbox; remote ones are queued on their
// link's send ring for the writer to encode and flush.
func (n *Net) Send(m transport.Message) {
	n.stats.Count(m)
	if link, ok := n.route[m.To]; ok {
		if !link.enqueue(m) {
			n.dropped.Add(1)
		}
		return
	}
	if n.local[m.To] {
		if !n.inboxes[m.To].put(m) {
			n.dropped.Add(1)
		}
		return
	}
	n.dropped.Add(1)
	log.Printf("tcpnet: send to unroutable endpoint %d (no peer address); dropped", m.To)
}

// writeLoop owns one link: dial (with capped backoff), coalesce queued
// messages into one buffered write, re-dial on failure. A write error
// loses the in-flight batch — that is the real-network loss the
// reliable session layer exists to heal.
func (n *Net) writeLoop(link *peerLink) {
	defer n.wg.Done()
	var (
		buf     []byte
		batch   []transport.Message
		conn    net.Conn
		backoff = n.cfg.ReconnectMin
		dialed  bool // a connection has succeeded before (re-dials count as reconnects)
	)
	for {
		batch = link.popBatch(batch[:0])
		if len(batch) == 0 {
			// Link closed. Best-effort flush already happened; drop
			// whatever raced in.
			if conn != nil {
				conn.Close()
			}
			return
		}
		// Encode the batch first: encoding is connection-independent
		// and the frames survive a redial below.
		buf = buf[:0]
		reg := n.obs.Load()
		if n.cfg.BatchFrames {
			buf = n.encodeBatched(buf, batch, reg, link.addr)
		} else {
			for _, m := range batch {
				buf, _ = n.appendFrame(buf, m, reg)
			}
		}
		if len(buf) == 0 {
			continue
		}
		for {
			if conn == nil {
				conn = n.dial(link, &backoff, &dialed)
				if conn == nil {
					// Link closed while dialing: the batch is lost.
					n.dropped.Add(int64(len(batch)))
					return
				}
			}
			conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
			if _, err := conn.Write(buf); err == nil {
				n.bytesSent.Add(int64(len(buf)))
				break
			}
			// Write failure: drop the conn and redial. The batch was
			// already encoded, so it is re-sent on the new conn —
			// receivers may see duplicates of frames that partially
			// landed, which the session layer's dedup absorbs.
			conn.Close()
			link.setConn(nil)
			conn = nil
		}
	}
}

// appendFrame encodes one frame onto buf, with wire-encode timing and
// frame accounting. An encode failure drops the message (counted) and
// leaves buf unchanged.
func (n *Net) appendFrame(buf []byte, m transport.Message, reg *obs.Registry) ([]byte, bool) {
	start := time.Now()
	out, err := wire.AppendFrame(buf, m)
	if err != nil {
		log.Printf("tcpnet: encode %T: %v; dropped", m.Payload, err)
		n.dropped.Add(1)
		return buf, false
	}
	reg.ObserveWireEncode(time.Since(start))
	n.framesSent.Add(1)
	return out, true
}

// encodeBatched encodes one writer pass as batch frames: maximal runs
// of ordinary messages become one BatchMsg envelope each, while
// messages that already are flush envelopes (upper-layer BatchMsg)
// pass through as their own frames, since batches must not nest. A
// frame counts as a flush for the batch-size histogram only when the
// writer made it: a pass-through envelope, or a run of one frame a
// coalescer above already flushed, was counted where it was made.
func (n *Net) encodeBatched(buf []byte, batch []transport.Message, reg *obs.Registry, addr string) []byte {
	for i := 0; i < len(batch); {
		j := i + 1
		if !isBatch(batch[i]) {
			for j < len(batch) && !isBatch(batch[j]) {
				j++
			}
		}
		run := batch[i:j]
		i = j
		m := transport.Envelope(run[0].From, run[0].To, run)
		out, ok := n.appendFrame(buf, m, reg)
		if !ok {
			// appendFrame counted one drop; an envelope loses its whole run.
			n.dropped.Add(int64(len(run) - 1))
			continue
		}
		buf = out
		if len(run) > 1 || !transport.IsFlushed(m.Payload) {
			n.flushes.Add(1)
			reg.ObserveBatchSize(addr, len(run))
		}
	}
	return buf
}

func isBatch(m transport.Message) bool {
	_, ok := m.Payload.(transport.BatchMsg)
	return ok
}

// dial establishes the link's outbound connection, backing off
// exponentially (capped) between failures. Returns nil once the link
// is closed. The backoff sleep is interruptible by link.close() so a
// Net shutdown never stalls behind a down peer, and a remote that
// restarts on the same address is picked up on the next (bounded)
// retry rather than wedging the writer.
func (n *Net) dial(link *peerLink, backoff *time.Duration, dialed *bool) net.Conn {
	for {
		link.mu.Lock()
		closed := link.closed
		link.mu.Unlock()
		if closed {
			return nil
		}
		c, err := net.DialTimeout("tcp", link.addr, n.cfg.DialTimeout)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			if *dialed {
				// Count one reconnect per successful re-dial, not per
				// attempt: a peer that is down for a while is one
				// reconnect event, however many retries it took.
				n.reconnects.Add(1)
			}
			*dialed = true
			*backoff = n.cfg.ReconnectMin
			link.setConn(c)
			return c
		}
		select {
		case <-link.down:
			return nil
		case <-time.After(*backoff):
		}
		*backoff *= 2
		if *backoff > n.cfg.ReconnectMax {
			*backoff = n.cfg.ReconnectMax
		}
	}
}

func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.cfg.Listener.Accept()
		if err != nil {
			return // listener closed (Close)
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.inbound[c] = true
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection and routes them
// to local inboxes. Any framing or decode error abandons the
// connection — the peer redials and the session layer re-sends.
func (n *Net) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
	}()
	var hdr [4]byte
	body := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > wire.MaxFrame {
			log.Printf("tcpnet: inbound frame of %d bytes exceeds limit; closing connection", size)
			return
		}
		if cap(body) < int(size) {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		n.bytesRecv.Add(int64(size) + 4)
		start := time.Now()
		m, err := wire.DecodeFrame(body)
		if err != nil {
			log.Printf("tcpnet: decode error: %v; closing connection", err)
			return
		}
		n.obs.Load().ObserveWireDecode(time.Since(start))
		n.framesRecv.Add(1)
		if b, ok := m.Payload.(transport.BatchMsg); ok {
			// A batch frame: route each member by its own To — members
			// may target different endpoints hosted on this address.
			// Per-member order is preserved (one inbox put at a time,
			// in frame order), so per-link FIFO survives batching.
			for _, mm := range b.Msgs {
				n.routeInbound(mm)
			}
			continue
		}
		n.routeInbound(m)
	}
}

// routeInbound hands one decoded application message to its local
// endpoint's inbox.
func (n *Net) routeInbound(m transport.Message) {
	ib, ok := n.inboxes[m.To]
	if !ok {
		n.dropped.Add(1)
		log.Printf("tcpnet: inbound frame for endpoint %d not hosted here; dropped", m.To)
		return
	}
	if !ib.put(m) {
		n.dropped.Add(1)
	}
}

// KillConnections force-closes every live connection, inbound and
// outbound, without closing the Net — the fault-injection hook for
// reconnect and session-layer healing tests. Queued messages survive;
// in-flight batches may be lost or duplicated, exactly like a real
// connection failure.
func (n *Net) KillConnections() {
	for _, link := range n.links {
		link.kill()
	}
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close implements Network: stops accepting, closes every connection
// and link, and waits for all goroutines. Queued-but-unsent messages
// are dropped (the protocol quiesces before shutdown, as with the
// in-memory transports).
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	started := n.started
	n.mu.Unlock()

	n.cfg.Listener.Close()
	for _, link := range n.links {
		link.close()
	}
	n.mu.Lock()
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	for _, ib := range n.inboxes {
		ib.close()
	}
	if started {
		n.wg.Wait()
	}
}

// Stats implements Network.
func (n *Net) Stats() transport.Stats {
	s := n.stats.Snapshot()
	for _, ib := range n.inboxes {
		d, hw := ib.counts()
		s.Delivered += d
		if hw > s.MaxQueueDepth {
			s.MaxQueueDepth = hw
		}
	}
	s.BytesSent = n.bytesSent.Load()
	s.BytesReceived = n.bytesRecv.Load()
	s.FramesSent = n.framesSent.Load()
	s.FramesReceived = n.framesRecv.Load()
	s.Reconnects = n.reconnects.Load()
	s.Dropped = n.dropped.Load()
	s.Flushes = n.flushes.Load()
	return s
}

var _ transport.Network = (*Net)(nil)
