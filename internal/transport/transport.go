// Package transport provides the asynchronous message substrate the
// distributed protocol runs on. The paper's system is a set of database
// nodes exchanging subtransactions and version-advancement notices over
// an asynchronous network with no global clock; we reproduce that with
// one in-process mailbox per node and goroutine-based delivery.
//
// Two implementations are provided:
//
//   - Net: a live network with configurable per-message latency and
//     jitter. Jitter makes messages between the same pair of nodes
//     overtake each other, which is exactly the race the 3V protocol
//     must tolerate (a version-advancement notice arriving after a
//     version-2 subtransaction, a version-1 descendant arriving at an
//     already-advanced node, ...).
//
//   - Script: a deterministic network that holds every message until a
//     test or trace explicitly releases it, used to replay Table 1 of
//     the paper step by step.
//
// Substitution note (see DESIGN.md): the paper ran on real machines; an
// in-process transport preserves the protocol-relevant behaviour —
// asynchrony, reordering, delay — while adding the determinism a
// reproduction needs.
package transport

import (
	"container/heap"
	"fmt"
	"log"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ring"
)

// Message is one envelope on the wire. Payload is a protocol-defined
// struct; the transport never inspects it beyond its type name (for
// accounting).
type Message struct {
	From, To model.NodeID
	Payload  any
	// TC is the distributed-tracing context riding this envelope; the
	// transport never inspects it (the zero value means "not sampled").
	// In-process transports carry it with the struct; tcpnet encodes it
	// in the frame header (see internal/wire).
	TC obs.TraceContext
}

// BatchMsg is the batched wire frame: one envelope carrying every
// message a directed link coalesced during one flush window, so each
// layer that moves it — the mem transport's dispatch, reliable's
// flusher, tcpnet's writer — pays its per-envelope cost (timer tick,
// fault draw, syscall) once per flush instead of once per message.
//
// Members keep their own From/To/TC: a tcpnet process hosting several
// endpoints routes each member by its own To, and trace contexts ride
// the member, not the envelope. Batches never nest (enforced by the
// wire codec on both encode and decode), and application handlers never
// see one: every delivery path unpacks the envelope and hands members
// over one at a time, in order, so per-link FIFO is preserved — a batch
// is just a run of consecutive messages that travel together.
type BatchMsg struct {
	Msgs []Message
}

// Flushed marks a BatchMsg as a flush its maker already coalesced.
func (BatchMsg) Flushed() {}

func init() { RegisterPayloadName(BatchMsg{}, "batch") }

// Urgent is implemented by payloads that must not wait out a coalescing
// window. Staging an urgent message flushes its link at once, together
// with the messages staged ahead of it, so per-link order holds; every
// other message keeps its window. Only traffic whose latency nobody can
// hide behind batching opts in (core marks its advancement notices,
// counter sweeps and their replies).
type Urgent interface{ Urgent() bool }

// IsUrgent reports whether payload p asks to flush its link at once.
func IsUrgent(p any) bool {
	u, ok := p.(Urgent)
	return ok && u.Urgent()
}

// Flushed is implemented by payloads that a coalescer has already
// flushed on their link: BatchMsg envelopes and the session frames and
// acks of transport/reliable. A batching Net sends them on at once and
// does not count them as its own flushes. Staging a one-frame session
// flush again would let the session's next flush, a BatchMsg, overtake
// it.
type Flushed interface{ Flushed() }

// IsFlushed reports whether payload p has already left a coalescer.
func IsFlushed(p any) bool {
	_, ok := p.(Flushed)
	return ok
}

// Deliver invokes h once per application message in m: BatchMsg
// envelopes are unpacked in order, so handlers never see one. Every
// transport's delivery loop funnels through this (tcpnet unpacks
// earlier, at routing time, since members may target different local
// endpoints).
func Deliver(h Handler, m Message) {
	if b, ok := m.Payload.(BatchMsg); ok {
		for _, mm := range b.Msgs {
			h(mm)
		}
		return
	}
	h(m)
}

// payloadNames maps payload types to stable accounting names. The
// protocol packages register their message types here (core and
// transport/reliable do so in init), and internal/wire's codec registry
// uses the same names, so metrics labels are identical across processes
// and across transports instead of leaking Go type strings.
var payloadNames sync.Map // reflect.Type -> string

// RegisterPayloadName assigns the stable accounting name for the
// payload type of prototype. Registering the same type twice with a
// different name panics (the name is a cross-process wire contract).
func RegisterPayloadName(prototype any, name string) {
	if name == "" {
		panic("transport: RegisterPayloadName with empty name")
	}
	t := reflect.TypeOf(prototype)
	if prev, loaded := payloadNames.LoadOrStore(t, name); loaded && prev.(string) != name {
		panic(fmt.Sprintf("transport: payload type %v registered as both %q and %q", t, prev, name))
	}
}

// PayloadName returns the stable registered name for a payload, falling
// back to the Go type string for unregistered types (tests, ad-hoc
// payloads).
func PayloadName(p any) string { return typeName(reflect.TypeOf(p)) }

func typeName(t reflect.Type) string {
	if v, ok := payloadNames.Load(t); ok {
		return v.(string)
	}
	return t.String()
}

// Handler consumes messages delivered to one node. A node's handler is
// invoked by a single delivery goroutine at a time (per node), so the
// handler itself serializes that node's message processing — matching
// the "server processes arriving subtransactions" model. Handlers may
// call Send freely (including to the handling node itself).
type Handler func(Message)

// Network is the interface the protocol layers program against.
type Network interface {
	// Register installs the handler for node id. Must be called for
	// every node before Start.
	Register(id model.NodeID, h Handler)
	// Send enqueues the message for asynchronous delivery. It never
	// blocks on the receiver: the paper's protocol requires that no
	// user transaction waits for remote activity, so sends are
	// fire-and-forget.
	Send(m Message)
	// Start begins delivery. Close stops it and waits for delivery
	// goroutines to drain.
	Start()
	Close()
	// Stats returns cumulative message accounting.
	Stats() Stats
}

// Stats is cumulative transport accounting.
type Stats struct {
	Messages int64
	ByType   map[string]int64
	// Delivered counts messages handed to receiver handlers (live Net
	// only; always ≤ Messages while sends are in flight).
	Delivered int64
	// MaxQueueDepth is the largest backlog any single mailbox ever
	// reached — the transport-level pressure gauge (live Net only).
	MaxQueueDepth int64

	// Fault-layer accounting (see faults.go; Script counts its scripted
	// DropWhere/DuplicateIndex interventions here too).
	//
	// Dropped counts messages discarded by injected loss.
	Dropped int64
	// Duplicated counts extra copies injected by duplication faults.
	Duplicated int64
	// PartitionDrops counts messages blackholed by an active partition.
	PartitionDrops int64
	// CloseDropped counts messages discarded because they were sent to
	// an already-closed network — a nonzero value means the caller shut
	// down before the protocol quiesced.
	CloseDropped int64

	// Flushes counts the envelopes a coalescer emitted on node-to-node
	// links (single-message and ack-only flushes included), each once, by
	// the layer that made it: the Net's window on a bare mem stack, the
	// session's under a session, tcpnet's writer for the runs it packs.
	// Envelopes passing through a lower layer are not counted again, and
	// loopback sends cross no link. 0 when batching is off; the per-link
	// size distribution lives in the obs registry.
	Flushes int64

	// Session-layer accounting (reliable transport only; see
	// transport/reliable).
	//
	// Retransmits counts data frames re-sent by the retransmission
	// timer.
	Retransmits int64
	// DupDropped counts received frames the session layer discarded as
	// duplicates (injected duplicates and spurious retransmits).
	DupDropped int64

	// Real-network accounting (transport/tcpnet only; zero for the
	// in-process transports).
	//
	// BytesSent/BytesReceived count frame bytes on the wire, length
	// prefixes included.
	BytesSent     int64
	BytesReceived int64
	// FramesSent/FramesReceived count encoded frames crossing sockets
	// (loopback-bypass deliveries are not frames).
	FramesSent     int64
	FramesReceived int64
	// Reconnects counts outbound connections re-dialed after a write
	// failure or a forced kill.
	Reconnects int64
}

// StatsCollector accumulates message counts. It sits on every Send, so
// it is all atomics: a total counter plus one atomic.Int64 per payload
// type in a sync.Map keyed by reflect.Type (cheap comparable key, no
// per-call formatting). The snapshot is best-effort — Messages and the
// per-type counts are read without mutual atomicity, like any gauge
// scrape. The zero value is ready to use; tcpnet shares it with the
// in-process transports.
type StatsCollector struct {
	messages atomic.Int64
	byType   sync.Map // reflect.Type -> *atomic.Int64
}

// Count accounts one sent message.
func (c *StatsCollector) Count(m Message) {
	c.messages.Add(1)
	t := reflect.TypeOf(m.Payload)
	if v, ok := c.byType.Load(t); ok {
		v.(*atomic.Int64).Add(1)
		return
	}
	v, _ := c.byType.LoadOrStore(t, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// Snapshot renders the counts, keying ByType by the stable registered
// payload names (see RegisterPayloadName) so labels agree across
// processes.
func (c *StatsCollector) Snapshot() Stats {
	out := Stats{Messages: c.messages.Load(), ByType: make(map[string]int64)}
	c.byType.Range(func(k, v any) bool {
		out.ByType[typeName(k.(reflect.Type))] += v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// mailbox is an unbounded FIFO queue with blocking receive. Sends never
// block (required by the protocol's no-waiting property); the consumer
// drains at its own pace. Like the node work queue, it is backed by a
// growable power-of-two ring so a sustained message flow reuses one
// buffer (bounded by the backlog high-water mark) instead of endlessly
// reallocating and retaining dead Message backing arrays.
type mailbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     ring.Ring[Message]
	closed    bool
	delivered int64 // messages handed to the consumer
	highWater int64 // largest queue length ever observed
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// put enqueues a message, reporting false if the mailbox has already
// closed (the message is then lost; callers count it).
func (mb *mailbox) put(m Message) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return false
	}
	mb.queue.Push(m)
	if n := int64(mb.queue.Len()); n > mb.highWater {
		mb.highWater = n
	}
	mb.cond.Signal()
	return true
}

// get blocks until a message is available or the mailbox closes.
func (mb *mailbox) get() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.queue.Len() == 0 && !mb.closed {
		mb.cond.Wait()
	}
	m, ok := mb.queue.Pop()
	if ok {
		mb.delivered++
	}
	return m, ok
}

// counts returns the mailbox's delivery count and backlog high-water
// mark for Stats aggregation.
func (mb *mailbox) counts() (delivered, highWater int64) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.delivered, mb.highWater
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// Config parameterizes a live Net.
type Config struct {
	// Nodes is the cluster size (node ids 0..Nodes-1).
	Nodes int
	// BaseLatency is the fixed one-way delay applied to every message.
	BaseLatency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter) to each
	// message; with Jitter > 0 messages between the same pair of nodes
	// can be reordered.
	Jitter time.Duration
	// Seed seeds the jitter and fault source; 0 means a fixed default
	// (runs are reproducible unless the caller randomizes the seed).
	Seed int64
	// Faults configures message loss, duplication, extra delay and the
	// initial partition set (see faults.go). The zero value injects
	// nothing; partitions and rates can also be changed at runtime via
	// the FaultInjector methods.
	Faults Faults

	// BatchWindow, when positive, runs the Net's sends through a
	// Coalescer with this window: each directed link's messages leave as
	// one BatchMsg envelope per flush. The envelope is one unit to the
	// fault layer — a drop loses the whole flush, a duplicate copies it —
	// exactly like a batched frame on a real wire. Only node-to-node
	// links are windowed: a loopback message (From == To) crosses no link
	// and leaves at once, and so do envelopes a coalescer above has
	// already flushed (Flushed payloads). core builds its Net with no
	// window under a reliable session, whose window is the stack's one.
	// 0 disables batching: every message dispatches individually.
	BatchWindow time.Duration
}

// Net is the live network. Each node has one mailbox and one delivery
// goroutine invoking its handler; latency/jitter are imposed by timer
// goroutines between Send and mailbox insertion.
type Net struct {
	cfg      Config
	handlers []Handler
	boxes    []*mailbox
	stats    StatsCollector
	fs       faultState

	co *Coalescer // nil when Config.BatchWindow == 0

	// Central delay queue: all latency/jitter-delayed sends wait in one
	// deadline-ordered heap serviced by a single goroutine, instead of a
	// goroutine-per-message sleep (whose stack allocations dominated the
	// profile and whose scheduling noise inflated tail latency on small
	// machines at batched-mode message rates).
	delayMu   sync.Mutex
	delayed   delayHeap
	delaySeq  uint64
	delayWake chan struct{} // cap 1: "an earlier deadline may exist"
	delayStop chan struct{}

	// Fault and shutdown accounting.
	dropped        atomic.Int64
	duplicated     atomic.Int64
	partitionDrops atomic.Int64
	closeDropped   atomic.Int64

	mu      sync.Mutex
	rng     *rand.Rand
	started bool
	closed  bool
	wg      sync.WaitGroup // delivery goroutines
	timers  sync.WaitGroup // in-flight delayed sends
}

// NewNet builds a live network from cfg.
func NewNet(cfg Config) *Net {
	if cfg.Nodes <= 0 {
		panic("transport: Config.Nodes must be positive")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	n := &Net{
		cfg:       cfg,
		handlers:  make([]Handler, cfg.Nodes),
		boxes:     make([]*mailbox, cfg.Nodes),
		rng:       rand.New(rand.NewSource(seed)),
		delayWake: make(chan struct{}, 1),
		delayStop: make(chan struct{}),
	}
	go n.delayLoop()
	n.fs.faults = cfg.Faults
	for i := range n.boxes {
		n.boxes[i] = newMailbox()
	}
	if cfg.BatchWindow > 0 {
		n.co = NewCoalescer(cfg.Nodes, cfg.BatchWindow, func(from, to model.NodeID, msgs []Message) int {
			if len(msgs) > 0 {
				n.transmit(Envelope(from, to, msgs))
			}
			return len(msgs)
		})
	}
	return n
}

// SetObs attaches an observability registry for the per-link
// batch-size histograms. Safe to call at any time (including never).
func (n *Net) SetObs(r *obs.Registry) {
	if n.co != nil {
		n.co.SetObs(r)
	}
}

// Register implements Network.
func (n *Net) Register(id model.NodeID, h Handler) {
	n.handlers[id] = h
}

// Start implements Network.
func (n *Net) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	for i := range n.boxes {
		if n.handlers[i] == nil {
			panic(fmt.Sprintf("transport: node %d has no handler", i))
		}
		n.wg.Add(1)
		go n.deliverLoop(i)
	}
}

func (n *Net) deliverLoop(i int) {
	defer n.wg.Done()
	h := n.handlers[i]
	for {
		m, ok := n.boxes[i].get()
		if !ok {
			return
		}
		Deliver(h, m)
	}
}

// rnd draws one uniform float from the net's seeded source (shared
// with jitter, so the whole run replays from one seed).
func (n *Net) rnd() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// Send implements Network. The sender never blocks: zero-delay messages
// go straight into the receiver's unbounded mailbox; delayed messages
// are held by a timer goroutine first. The fault layer sits here: a
// message may be blackholed by a partition, dropped, duplicated or
// extra-delayed before dispatch (never for loopback sends).
//
// With batching on, only messages that cross a link and have not been
// flushed by a coalescer above are staged. A loopback message is one
// mailbox insert, so there is no per-envelope cost for a window to
// share: it leaves at once and is not a link flush.
func (n *Net) Send(m Message) {
	if int(m.To) < 0 || int(m.To) >= len(n.boxes) {
		panic(fmt.Sprintf("transport: send to unknown node %d", m.To))
	}
	n.stats.Count(m)
	if n.co != nil && m.From != m.To && !IsFlushed(m.Payload) {
		n.co.Stage(m)
		return
	}
	n.transmit(m)
}

// transmit runs one message (or envelope) through the fault layer and
// dispatches surviving copies — the whole envelope is one unit to
// faults, exactly like one frame on a real wire.
func (n *Net) transmit(m Message) {
	drop, partitioned, dup, extra := n.fs.decide(Link{From: m.From, To: m.To}, n.rnd)
	if drop {
		if partitioned {
			n.partitionDrops.Add(1)
		} else {
			n.dropped.Add(1)
		}
		return
	}
	n.dispatch(m, extra)
	if dup {
		n.duplicated.Add(1)
		n.dispatch(m, extra)
	}
}

// dispatch imposes latency (base + jitter + fault extra) and enqueues
// one copy of the message.
func (n *Net) dispatch(m Message, extra time.Duration) {
	d := n.cfg.BaseLatency + extra
	if n.cfg.Jitter > 0 {
		// A batch envelope is delayed by the max of its members' draws —
		// it arrives when its slowest member would have — so batching
		// never understates simulated latency.
		draws := 1
		if b, ok := m.Payload.(BatchMsg); ok {
			draws = len(b.Msgs)
		}
		var jmax time.Duration
		n.mu.Lock()
		for i := 0; i < draws; i++ {
			if j := time.Duration(n.rng.Int63n(int64(n.cfg.Jitter))); j > jmax {
				jmax = j
			}
		}
		n.mu.Unlock()
		d += jmax
	}
	if d <= 0 {
		if !n.boxes[m.To].put(m) {
			n.closeDropped.Add(1)
		}
		return
	}
	// Register the delayed send under the lock so it cannot race
	// Close's timers.Wait (a WaitGroup Add that could start from zero
	// must happen-before the Wait); once closed, delayed messages are
	// dropped like queued ones.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.closeDropped.Add(1)
		return
	}
	n.timers.Add(1)
	n.mu.Unlock()
	n.delayMu.Lock()
	heap.Push(&n.delayed, delayedMsg{at: time.Now().Add(d), seq: n.delaySeq, m: m})
	n.delaySeq++
	n.delayMu.Unlock()
	select {
	case n.delayWake <- struct{}{}:
	default:
	}
}

// delayedMsg is one latency-delayed send parked in the central heap.
// seq breaks deadline ties in push order so equal-delay messages on a
// link keep their send order.
type delayedMsg struct {
	at  time.Time
	seq uint64
	m   Message
}

type delayHeap []delayedMsg

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(delayedMsg)) }
func (h *delayHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// delayLoop services the delay heap: deliver everything due, sleep
// until the earliest remaining deadline (or a wake for a new earlier
// one). One goroutine replaces one per in-flight delayed message.
func (n *Net) delayLoop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var wait time.Duration = -1
		for {
			n.delayMu.Lock()
			if len(n.delayed) == 0 {
				n.delayMu.Unlock()
				break
			}
			if d := time.Until(n.delayed[0].at); d > 0 {
				wait = d
				n.delayMu.Unlock()
				break
			}
			dm := heap.Pop(&n.delayed).(delayedMsg)
			n.delayMu.Unlock()
			if !n.boxes[dm.m.To].put(dm.m) {
				n.closeDropped.Add(1)
			}
			n.timers.Done()
		}
		if wait < 0 {
			wait = time.Hour
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-n.delayWake:
		case <-n.delayStop:
			return
		}
	}
}

// Close implements Network: waits for in-flight delayed sends, then
// stops delivery goroutines. Messages sent after this point are dropped
// and counted in Stats.CloseDropped; callers quiesce the protocol
// before closing, so a nonzero count is logged as a likely quiesce bug.
func (n *Net) Close() {
	// Final sweep of the coalescing buffers before the gate drops, so
	// staged messages are delivered rather than close-dropped.
	if n.co != nil {
		n.co.Close()
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.timers.Wait() // the delay loop drains every parked send first
	close(n.delayStop)
	for _, b := range n.boxes {
		b.close()
	}
	n.wg.Wait()
	if d := n.closeDropped.Load(); d > 0 {
		log.Printf("transport: Close dropped %d undelivered message(s); the protocol was not quiesced before shutdown", d)
	}
}

// Stats implements Network.
func (n *Net) Stats() Stats {
	s := n.stats.Snapshot()
	for _, mb := range n.boxes {
		d, hw := mb.counts()
		s.Delivered += d
		if hw > s.MaxQueueDepth {
			s.MaxQueueDepth = hw
		}
	}
	s.Dropped = n.dropped.Load()
	s.Duplicated = n.duplicated.Load()
	s.PartitionDrops = n.partitionDrops.Load()
	s.CloseDropped = n.closeDropped.Load()
	if n.co != nil {
		s.Flushes = n.co.Flushes()
	}
	return s
}

// Script is the deterministic network: Send parks every message in a
// pending list; the driver delivers them one at a time with Deliver*,
// running the receiving node's handler synchronously in the driver's
// goroutine. This gives a test total control over interleaving — the
// tool that makes the Table 1 replay exact.
type Script struct {
	mu       sync.Mutex
	handlers []Handler
	pending  []Message
	nextID   int
	ids      []int // parallel to pending: stable ids for selection
	stats    StatsCollector

	dropped    atomic.Int64 // messages discarded via DropWhere
	duplicated atomic.Int64 // copies injected via DuplicateIndex/DuplicateWhere
}

// NewScript builds a scripted network for n nodes.
func NewScript(n int) *Script {
	return &Script{handlers: make([]Handler, n)}
}

// Register implements Network.
func (s *Script) Register(id model.NodeID, h Handler) {
	s.handlers[id] = h
}

// Start implements Network (no-op: delivery is manual).
func (s *Script) Start() {}

// Close implements Network (no-op).
func (s *Script) Close() {}

// Stats implements Network.
func (s *Script) Stats() Stats {
	out := s.stats.Snapshot()
	out.Dropped = s.dropped.Load()
	out.Duplicated = s.duplicated.Load()
	return out
}

// Send implements Network: the message is parked until released.
func (s *Script) Send(m Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Count(m)
	s.pending = append(s.pending, m)
	s.ids = append(s.ids, s.nextID)
	s.nextID++
}

// Pending returns descriptions of parked messages in send order
// ("from->to #id type"), for test diagnostics.
func (s *Script) Pending() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.pending))
	for i, m := range s.pending {
		out[i] = fmt.Sprintf("%v->%v #%d %T", m.From, m.To, s.ids[i], m.Payload)
	}
	return out
}

// PendingCount returns the number of parked messages.
func (s *Script) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// DeliverWhere removes the first parked message satisfying pred and
// runs the receiver's handler synchronously. It returns false if no
// parked message matches.
func (s *Script) DeliverWhere(pred func(Message) bool) bool {
	s.mu.Lock()
	var m Message
	found := -1
	for i, cand := range s.pending {
		if pred(cand) {
			m = cand
			found = i
			break
		}
	}
	if found < 0 {
		s.mu.Unlock()
		return false
	}
	s.pending = append(s.pending[:found], s.pending[found+1:]...)
	s.ids = append(s.ids[:found], s.ids[found+1:]...)
	h := s.handlers[m.To]
	s.mu.Unlock()
	Deliver(h, m)
	return true
}

// DeliverNextTo delivers the oldest parked message addressed to node
// to. It returns false if none is parked.
func (s *Script) DeliverNextTo(to model.NodeID) bool {
	return s.DeliverWhere(func(m Message) bool { return m.To == to })
}

// DeliverAll delivers parked messages (including ones generated during
// delivery) until none remain, in FIFO order, and returns how many were
// delivered. It is the "let the dust settle" operation used between
// scripted steps.
func (s *Script) DeliverAll() int {
	n := 0
	for s.DeliverWhere(func(Message) bool { return true }) {
		n++
	}
	return n
}

// DeliverAllTo drains every parked message addressed to one node
// (FIFO), without touching others. Returns the count delivered.
func (s *Script) DeliverAllTo(to model.NodeID) int {
	n := 0
	for s.DeliverNextTo(to) {
		n++
	}
	return n
}

// DeliverIndex delivers the i-th (0-based) parked message, running the
// receiver's handler synchronously. It returns false if i is out of
// range. Combined with a seeded random index choice this lets fuzz
// tests explore arbitrary delivery orders.
func (s *Script) DeliverIndex(i int) bool {
	s.mu.Lock()
	if i < 0 || i >= len(s.pending) {
		s.mu.Unlock()
		return false
	}
	m := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
	h := s.handlers[m.To]
	s.mu.Unlock()
	Deliver(h, m)
	return true
}

// DropWhere removes the first parked message satisfying pred WITHOUT
// delivering it — a scripted message loss. It returns false if no
// parked message matches. The drop is counted in Stats.Dropped.
func (s *Script) DropWhere(pred func(Message) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, cand := range s.pending {
		if pred(cand) {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			s.dropped.Add(1)
			return true
		}
	}
	return false
}

// DuplicateIndex clones the i-th (0-based) parked message, parking the
// copy at the tail with a fresh id — a scripted duplication. It returns
// false if i is out of range. The copy is counted in Stats.Duplicated.
func (s *Script) DuplicateIndex(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.pending) {
		return false
	}
	s.pending = append(s.pending, s.pending[i])
	s.ids = append(s.ids, s.nextID)
	s.nextID++
	s.duplicated.Add(1)
	return true
}

// DuplicateWhere clones the first parked message satisfying pred,
// parking the copy at the tail. It returns false if none matches.
func (s *Script) DuplicateWhere(pred func(Message) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cand := range s.pending {
		if pred(cand) {
			s.pending = append(s.pending, cand)
			s.ids = append(s.ids, s.nextID)
			s.nextID++
			s.duplicated.Add(1)
			return true
		}
	}
	return false
}

// CountWhere returns how many parked messages satisfy pred.
func (s *Script) CountWhere(pred func(Message) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.pending {
		if pred(m) {
			n++
		}
	}
	return n
}

// HoldCount returns, per destination node, how many messages are
// parked; useful for assertions that something is in flight.
func (s *Script) HoldCount() map[model.NodeID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[model.NodeID]int)
	for _, m := range s.pending {
		out[m.To]++
	}
	return out
}

// TypeNames returns the sorted distinct payload type names currently
// parked (diagnostics).
func (s *Script) TypeNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := make(map[string]bool)
	for _, m := range s.pending {
		set[fmt.Sprintf("%T", m.Payload)] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var (
	_ Network = (*Net)(nil)
	_ Network = (*Script)(nil)
)
