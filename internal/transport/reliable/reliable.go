// Package reliable restores the exactly-once, per-link-FIFO delivery
// contract the 3V protocol's counter scheme depends on, over a network
// that drops, duplicates, reorders and partitions messages.
//
// The paper (Section 4) silently assumes a reliable network: a sender
// increments R[v][p][q] strictly before a subtransaction leaves, and
// the receiver increments C[v][p][q] at termination, so quiescence
// (R == C everywhere) is reachable only if every message eventually
// arrives exactly once. Session is the classic fix — a sequence-number
// session layer (think TCP-lite) interposed as a Network decorator:
//
//   - every data message on a directed link (s → r) carries a sequence
//     number drawn from the link's counter;
//   - the receiver delivers strictly in sequence order, buffering
//     out-of-order arrivals and discarding duplicates;
//   - the receiver acknowledges cumulatively (highest in-order sequence
//     delivered); acks ride the same lossy network and may themselves
//     be lost;
//   - the sender retransmits unacknowledged frames on a timer with
//     capped exponential backoff, so a partition merely delays
//     delivery until heal.
//
// The protocol layers above see exactly the Network interface they
// always had — core is untouched except for construction-time wiring.
package reliable

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/transport"
)

// DataMsg is the session envelope for one application payload on a
// directed link. Seq starts at 1 and increments per link.
type DataMsg struct {
	Seq     uint64
	Payload any
}

// AckMsg is the receiver's cumulative acknowledgement for the reverse
// link: every data frame with Seq ≤ CumAck has been delivered.
type AckMsg struct {
	CumAck uint64
}

// Flushed marks session frames as already flushed (transport.Flushed):
// the session coalesces a link's frames itself, so a batching network
// underneath sends each one on at once instead of staging it behind the
// session's next flush.
func (DataMsg) Flushed() {}

// Urgent makes a frame flush its link at once exactly when its payload
// asks to (transport.Urgent).
func (d DataMsg) Urgent() bool { return transport.IsUrgent(d.Payload) }

// Flushed marks acks as already flushed, like data frames.
func (AckMsg) Flushed() {}

// NoopMsg is a hole-filling payload synthesized by crash recovery: a
// sequence number allocated with Prepare whose frame never became
// durable (the crash hit between Prepare and the execution record's
// barrier) would otherwise leave a permanent gap that wedges the
// receiver's in-order delivery. A noop frame consumes the sequence
// number at the receiver without ever reaching the application handler.
type NoopMsg struct{}

// Stable accounting names shared with internal/wire's codec registry so
// metrics labels agree across processes.
func init() {
	transport.RegisterPayloadName(DataMsg{}, "reliable_data")
	transport.RegisterPayloadName(AckMsg{}, "reliable_ack")
	transport.RegisterPayloadName(NoopMsg{}, "reliable_noop")
}

// Journal is the session layer's durability hook (implemented by
// internal/durable). A crash must never reuse a sequence number or
// re-deliver an acknowledged frame, so:
//
//   - NoteSend sees the enveloped frame strictly before it is handed to
//     the inner network and must not return until it is durable — the
//     sequence number is burned the moment this returns;
//   - NoteRecv sees a link's advanced in-order watermark strictly before
//     the cumulative ack leaves and must not return until it is durable
//     (together with whatever the delivery handler itself journaled);
//   - NoteAck is lazy bookkeeping with no durability barrier: frames
//     ≤ cum on the link are no longer needed for recovery.
type Journal interface {
	NoteSend(m transport.Message)
	NoteRecv(to, from model.NodeID, nextExpected uint64)
	NoteAck(from, to model.NodeID, cum uint64)
}

// LinkSendState is one directed link's sender-side durable state.
type LinkSendState struct {
	From, To model.NodeID
	NextSeq  uint64
	// Unacked holds the enveloped DataMsg frames still awaiting a
	// cumulative ack, ascending by sequence number. On restore they are
	// queued for immediate retransmission; receivers dedup by seq.
	Unacked []transport.Message
}

// LinkRecvState is one directed link's receiver-side durable state: the
// next in-order sequence number to deliver. Out-of-order buffered frames
// are deliberately not part of the state — they are still unacked at the
// sender and will be retransmitted.
type LinkRecvState struct {
	To, From     model.NodeID
	NextExpected uint64
}

// SessionState is a session's durable state, produced by ExportState
// under a checkpoint freeze and reinstalled via Config.Restore.
type SessionState struct {
	Send []LinkSendState
	Recv []LinkRecvState
}

// Config tunes the session layer. The zero value selects defaults
// sized for the in-process simulation's microsecond-scale latencies.
type Config struct {
	// RetransmitInterval is the initial retransmission timeout for an
	// unacknowledged frame; 0 means 2ms. The unacked frame lists are
	// scanned every RetransmitInterval/2.
	RetransmitInterval time.Duration
	// MaxBackoff caps the per-frame exponential backoff; 0 means 50ms.
	MaxBackoff time.Duration
	// FlushInterval, when positive, turns on frame batching: the session
	// runs its frames through a transport.Coalescer with this window, so
	// each link's frames leave as one transport.BatchMsg envelope per
	// flush (early on a full buffer or a frame whose payload is
	// transport.Urgent) and the inner network moves a whole flush per
	// send. A staged frame's retransmit clock starts when its flush
	// leaves. An owed cumulative ack opens the reverse link's window and
	// leaves with that link's next flush, alone if no data was staged, so
	// it is never owed longer than one window; keep FlushInterval well
	// below RetransmitInterval or delayed acks provoke spurious
	// retransmits. 0 disables batching — every frame and ack is
	// transmitted individually.
	FlushInterval time.Duration
	// Journal, when non-nil, receives the durability callbacks above.
	Journal Journal
	// Gate, when non-nil, brackets every inbound dispatch — watermark
	// advance, handler invocation, the NoteRecv barrier and the outgoing
	// ack run under one read-lock acquisition. The durability layer
	// installs its checkpoint freeze lock here so a checkpoint can never
	// capture a link watermark whose delivered frames have not yet
	// journaled their effects (which would make the sender's retransmit
	// a duplicate the restarted receiver silently drops).
	Gate interface {
		RLock()
		RUnlock()
	}
	// Restore, when non-nil, reinstalls a crashed session's link state
	// before any traffic flows.
	Restore *SessionState
	// Obs, when non-nil and tracing-enabled, receives the session-hold
	// stage for sampled frames: how long a frame waited in the reorder
	// buffer between arrival and in-order delivery. Unsampled traffic
	// never touches it.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.RetransmitInterval <= 0 {
		c.RetransmitInterval = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 50 * time.Millisecond
	}
	return c
}

// pendingFrame is one sent-but-unacknowledged data frame.
type pendingFrame struct {
	msg     transport.Message // the enveloped message, ready to re-send
	seq     uint64
	backoff time.Duration
	// nextResend is when the retransmit scanner next re-offers the frame.
	// It holds notSent until the frame is first handed to the inner
	// network (see startClocks): a frame waiting for its journal record
	// or staged on its link is never retransmitted.
	nextResend time.Time
}

// notSent is the nextResend of a frame not yet sent: never overdue.
var notSent = time.Unix(1<<62, 0)

// sendLink is the sender-side state of one directed link.
type sendLink struct {
	mu      sync.Mutex
	nextSeq uint64
	// unacked is ascending by seq; acks pop from its head.
	unacked ring.Ring[pendingFrame]
}

// bufEntry is one received-but-undelivered frame: its payload, the
// trace context that rode its envelope, and (sampled frames only) its
// arrival time, so delivery can attribute the reorder hold.
type bufEntry struct {
	payload any
	tc      obs.TraceContext
	at      time.Time
}

// recvLink is the receiver-side state of one directed link.
type recvLink struct {
	nextExpected uint64              // next in-order seq to deliver
	buffer       map[uint64]bufEntry // out-of-order frames by seq
	// ackOwed (batching only) records that a cumulative ack is owed to
	// the sender; the next flush toward it carries the ack. The watermark
	// itself (nextExpected) is always current — delaying the ack never
	// delays delivery, and NoteRecv has already made the watermark
	// durable, so a late ack is merely a late release of the sender's
	// retransmit state.
	ackOwed bool
}

// Session is the reliable-delivery decorator. It implements
// transport.Network; wrap the faulty inner network with Wrap before
// registering handlers.
type Session struct {
	inner transport.Network
	cfg   Config
	n     int

	handlers []transport.Handler
	send     [][]*sendLink // [from][to]
	recvMu   []sync.Mutex  // per receiving node (delivery is serial per node already; the mutex guards cross-field invariants for Stats readers)
	recv     [][]*recvLink // [to][from]

	retransmits atomic.Int64
	dupDropped  atomic.Int64
	// unackedTotal counts sent-but-unacknowledged frames across all
	// links, maintained next to each link's list mutation. The
	// retransmit scanner consults it first: when every frame is acked
	// (the common idle state) the tick returns without touching any of
	// the n² link locks.
	unackedTotal atomic.Int64

	// co stages frames and owed acks behind the flush window; nil when
	// FlushInterval is 0.
	co *transport.Coalescer

	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// Wrap decorates inner (serving node ids 0..nodes-1) with the session
// layer. The Session owns inner: closing the Session closes it.
func Wrap(inner transport.Network, nodes int, cfg Config) *Session {
	if nodes <= 0 {
		panic("reliable: nodes must be positive")
	}
	s := &Session{
		inner:    inner,
		cfg:      cfg.withDefaults(),
		n:        nodes,
		handlers: make([]transport.Handler, nodes),
		send:     make([][]*sendLink, nodes),
		recvMu:   make([]sync.Mutex, nodes),
		recv:     make([][]*recvLink, nodes),
		stop:     make(chan struct{}),
	}
	for i := 0; i < nodes; i++ {
		s.send[i] = make([]*sendLink, nodes)
		s.recv[i] = make([]*recvLink, nodes)
		for j := 0; j < nodes; j++ {
			s.send[i][j] = &sendLink{}
			s.recv[i][j] = &recvLink{nextExpected: 1, buffer: make(map[uint64]bufEntry)}
		}
	}
	if cfg.FlushInterval > 0 {
		s.co = transport.NewCoalescer(nodes, cfg.FlushInterval, s.emit)
		s.co.SetObs(cfg.Obs)
	}
	if st := s.cfg.Restore; st != nil {
		for _, ls := range st.Send {
			l := s.send[ls.From][ls.To]
			l.nextSeq = ls.NextSeq
			for _, m := range ls.Unacked {
				d, ok := m.Payload.(DataMsg)
				if !ok {
					continue
				}
				l.unacked.Push(pendingFrame{
					msg:     m,
					seq:     d.Seq,
					backoff: s.cfg.RetransmitInterval,
					// Zero nextResend: overdue immediately, so the first
					// retransmit sweep re-offers every restored frame and
					// the peers' dedup absorbs what they already saw.
				})
				s.unackedTotal.Add(1)
			}
		}
		for _, lr := range st.Recv {
			s.recv[lr.To][lr.From].nextExpected = lr.NextExpected
		}
	}
	return s
}

// ExportState captures every link's durable state. Callers must quiesce
// the session first (the checkpoint freeze does): a send racing the
// export could otherwise straddle the snapshot.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{}
	for from := 0; from < s.n; from++ {
		for to := 0; to < s.n; to++ {
			l := s.send[from][to]
			l.mu.Lock()
			if l.nextSeq > 0 || l.unacked.Len() > 0 {
				ls := LinkSendState{From: model.NodeID(from), To: model.NodeID(to), NextSeq: l.nextSeq}
				for i := 0; i < l.unacked.Len(); i++ {
					ls.Unacked = append(ls.Unacked, l.unacked.At(i).msg)
				}
				st.Send = append(st.Send, ls)
			}
			l.mu.Unlock()
		}
	}
	for to := 0; to < s.n; to++ {
		s.recvMu[to].Lock()
		for from := 0; from < s.n; from++ {
			if rl := s.recv[to][from]; rl.nextExpected > 1 {
				st.Recv = append(st.Recv, LinkRecvState{To: model.NodeID(to), From: model.NodeID(from), NextExpected: rl.nextExpected})
			}
		}
		s.recvMu[to].Unlock()
	}
	return st
}

// Register implements Network: the user handler is invoked with
// unwrapped messages, exactly once each, in per-link send order.
func (s *Session) Register(id model.NodeID, h transport.Handler) {
	s.handlers[id] = h
	s.inner.Register(id, func(m transport.Message) { s.dispatch(id, m) })
}

// Start implements Network: starts the inner network and the
// retransmission scanner.
func (s *Session) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.inner.Start()
	s.wg.Add(1)
	go s.retransmitLoop()
}

// Close implements Network: stops retransmission, drains any staged
// flushes and owed acks, then closes the inner network.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	if s.co != nil {
		s.co.Close()
	}
	s.inner.Close()
}

// Send implements Network: the payload is enveloped with the link's
// next sequence number and tracked until acknowledged. Loopback sends
// bypass the session entirely (the fault layer never touches them).
func (s *Session) Send(m transport.Message) {
	if m.From == m.To {
		s.inner.Send(m)
		return
	}
	l := s.send[m.From][m.To]
	l.mu.Lock()
	l.nextSeq++
	seq := l.nextSeq
	env := transport.Message{From: m.From, To: m.To, Payload: DataMsg{Seq: seq, Payload: m.Payload}, TC: m.TC}
	l.unacked.Push(pendingFrame{msg: env, seq: seq, backoff: s.cfg.RetransmitInterval, nextResend: notSent})
	s.unackedTotal.Add(1)
	l.mu.Unlock()
	if s.cfg.Journal != nil {
		// Durable before first transmission: a crash after the frame is
		// on the wire must find it in the log, or recovery would reuse
		// the sequence number for a different payload. The frame's
		// retransmit clock has not started, so no retransmit can put it
		// on the wire first.
		s.cfg.Journal.NoteSend(env)
	}
	s.release(env)
}

// release hands on a tracked frame: to its link's window when batching,
// else straight to the inner network, starting its retransmit clock as
// it leaves.
func (s *Session) release(env transport.Message) {
	if s.co != nil {
		s.co.Stage(env)
		return
	}
	s.startClocks(s.send[env.From][env.To], []transport.Message{env}, time.Now())
	s.inner.Send(env)
}

// startClocks starts the retransmit clock of every frame in msgs, which
// are leaving the link now. Each is found by a binary search over
// unacked; a frame already acked is skipped.
func (s *Session) startClocks(l *sendLink, msgs []transport.Message, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.unacked.Len()
	for _, m := range msgs {
		seq := m.Payload.(DataMsg).Seq
		i := sort.Search(n, func(i int) bool { return l.unacked.At(i).seq >= seq })
		if i < n {
			if f := l.unacked.At(i); f.seq == seq && f.nextResend.Equal(notSent) {
				f.nextResend = now.Add(f.backoff)
			}
		}
	}
}

// emit is the coalescer's flush callback for the link from → to: it
// starts the retransmit clocks of the staged frames and appends,
// piggybacked for free, any cumulative ack this node owes the peer for
// the reverse direction. The frames (and the ack) leave as one envelope
// the inner network moves as a unit (one syscall, one fault draw) and
// unpacks in order on delivery, preserving per-link FIFO.
func (s *Session) emit(from, to model.NodeID, msgs []transport.Message) int {
	if len(msgs) > 0 {
		s.startClocks(s.send[from][to], msgs, time.Now())
	}
	rl := s.recv[from][to]
	s.recvMu[from].Lock()
	if rl.ackOwed {
		rl.ackOwed = false
		msgs = append(msgs, transport.Message{From: from, To: to, Payload: AckMsg{CumAck: rl.nextExpected - 1}})
	}
	s.recvMu[from].Unlock()
	if len(msgs) > 0 {
		s.inner.Send(transport.Envelope(from, to, msgs))
	}
	return len(msgs)
}

// PreparedSend is a sequence-numbered frame that has not yet been
// transmitted or tracked — the two-phase send used by the execution
// path: core allocates children's frames with Prepare, journals them
// atomically inside the execution record, then releases them with
// CommitPrepared. A crash between the two phases re-creates the frames
// from the log; peers dedup by sequence number either way.
type PreparedSend struct {
	// Msg is the enveloped frame (DataMsg payload), ready to encode
	// into the journal or hand to CommitPrepared.
	Msg      transport.Message
	loopback bool
}

// Prepare allocates the link's next sequence number for m without
// sending or tracking it. Loopback messages pass through unsequenced.
func (s *Session) Prepare(m transport.Message) PreparedSend {
	if m.From == m.To {
		return PreparedSend{Msg: m, loopback: true}
	}
	l := s.send[m.From][m.To]
	l.mu.Lock()
	l.nextSeq++
	env := transport.Message{From: m.From, To: m.To, Payload: DataMsg{Seq: l.nextSeq, Payload: m.Payload}, TC: m.TC}
	l.mu.Unlock()
	return PreparedSend{Msg: env}
}

// CommitPrepared tracks and transmits previously Prepared frames, in
// order. The caller has already journaled them (or does not journal).
func (s *Session) CommitPrepared(frames []PreparedSend) {
	for _, p := range frames {
		if p.loopback {
			s.inner.Send(p.Msg)
			continue
		}
		d := p.Msg.Payload.(DataMsg)
		l := s.send[p.Msg.From][p.Msg.To]
		l.mu.Lock()
		l.unacked.Push(pendingFrame{msg: p.Msg, seq: d.Seq, backoff: s.cfg.RetransmitInterval, nextResend: notSent})
		// Keep the queue ascending: a concurrent Send on the same link
		// may have pushed a later sequence number first.
		for i := l.unacked.Len() - 1; i > 0 && l.unacked.At(i).seq < l.unacked.At(i-1).seq; i-- {
			a, b := l.unacked.At(i), l.unacked.At(i-1)
			*a, *b = *b, *a
		}
		s.unackedTotal.Add(1)
		l.mu.Unlock()
		s.release(p.Msg)
	}
}

// dispatch is the handler the Session registers with the inner
// network for node id. Every transport unpacks flush envelopes before
// calling it (transport.Deliver; tcpnet at routing).
func (s *Session) dispatch(id model.NodeID, m transport.Message) {
	if g := s.cfg.Gate; g != nil {
		g.RLock()
		defer g.RUnlock()
	}
	switch p := m.Payload.(type) {
	case DataMsg:
		s.onData(id, m.From, p, m.TC)
	case AckMsg:
		s.onAck(m.To, m.From, p.CumAck)
	default:
		// Loopback (or pre-wrap) traffic: hand through untouched.
		if h := s.handlers[id]; h != nil {
			h(m)
		}
	}
}

// onData handles one data frame on the link from → id: dedup, buffer,
// deliver in order, ack cumulatively.
func (s *Session) onData(id, from model.NodeID, d DataMsg, tc obs.TraceContext) {
	rl := s.recv[id][from]
	s.recvMu[id].Lock()
	switch {
	case d.Seq < rl.nextExpected:
		// Already delivered: a duplicate (injected, or a retransmit
		// racing the ack). Discard and re-ack so the sender stops.
		s.dupDropped.Add(1)
	default:
		if _, held := rl.buffer[d.Seq]; held {
			s.dupDropped.Add(1)
			break
		}
		e := bufEntry{payload: d.Payload, tc: tc}
		if tc.Sampled() && s.cfg.Obs.TraceEnabled() {
			// Arrival stamp for sampled frames only, so the untraced hot
			// path never reads the clock here.
			e.at = time.Now()
		}
		rl.buffer[d.Seq] = e
	}
	// Drain the in-order prefix.
	var deliver []bufEntry
	for {
		e, ok := rl.buffer[rl.nextExpected]
		if !ok {
			break
		}
		delete(rl.buffer, rl.nextExpected)
		rl.nextExpected++
		deliver = append(deliver, e)
	}
	ack := rl.nextExpected - 1
	s.recvMu[id].Unlock()

	// Deliver outside the lock: handlers may Send. The inner network
	// runs one delivery goroutine per node, so per-link order is
	// preserved without further locking.
	if h := s.handlers[id]; h != nil {
		for _, e := range deliver {
			if _, hole := e.payload.(NoopMsg); hole {
				continue // recovery hole-filler: consume the seq, deliver nothing
			}
			if !e.at.IsZero() {
				// How long the frame sat in the reorder buffer (≈0 for
				// in-order arrivals, the hold time for gap-filled ones).
				s.cfg.Obs.ObserveStage(obs.StageSession, time.Since(e.at))
			}
			h(transport.Message{From: from, To: id, Payload: e.payload, TC: e.tc})
		}
	}
	// Cumulative ack (even for duplicates — the original ack may have
	// been lost). Acks are unsequenced; a lost ack is repaired by the
	// sender's retransmit provoking another one.
	if s.cfg.Journal != nil && len(deliver) > 0 {
		// The watermark (and whatever the handlers above journaled for
		// the delivered frames) must be durable before the ack releases
		// the sender's retransmissions — an acked frame will never be
		// offered again, so it must never be forgotten.
		s.cfg.Journal.NoteRecv(id, from, ack+1)
	}
	if s.co == nil {
		s.inner.Send(transport.Message{From: id, To: from, Payload: AckMsg{CumAck: ack}})
		return
	}
	// Delayed ack: record the debt and open the reverse link's window.
	// Its flush carries the ack (see emit), with whatever data is staged
	// on that link by then, so a sender is never starved into
	// retransmitting by ack batching alone. Deferring is safe: NoteRecv
	// above already made the watermark durable, and an unacked frame is
	// merely re-offered, never lost.
	s.recvMu[id].Lock()
	rl.ackOwed = true
	s.recvMu[id].Unlock()
	s.co.Arm(id, from)
}

// onAck handles a cumulative ack for the link id → from.
func (s *Session) onAck(id, from model.NodeID, cum uint64) {
	l := s.send[id][from]
	l.mu.Lock()
	// Pop the acknowledged head: O(acked), whatever the backlog behind
	// it (Pop zeroes each slot, so no acked payload stays pinned).
	i := 0
	for f, ok := l.unacked.Peek(); ok && f.seq <= cum; f, ok = l.unacked.Peek() {
		l.unacked.Pop()
		i++
	}
	if i > 0 {
		s.unackedTotal.Add(-int64(i))
	}
	l.mu.Unlock()
	if s.cfg.Journal != nil && i > 0 {
		s.cfg.Journal.NoteAck(id, from, cum)
	}
}

// retransmitLoop periodically re-sends overdue unacknowledged frames
// with capped exponential backoff.
func (s *Session) retransmitLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RetransmitInterval / 2)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.retransmitOverdue(time.Now())
		}
	}
}

// retransmitOverdue re-sends every frame whose resend deadline has
// passed. Exposed to tests (deterministic retransmission without
// waiting out the ticker). The idle guard makes the steady state —
// every frame acked — free: one atomic load per tick instead of an n²
// sweep over every link's mutex (see BenchmarkRetransmitScanIdle).
func (s *Session) retransmitOverdue(now time.Time) {
	if s.unackedTotal.Load() == 0 {
		return
	}
	s.scanOverdue(now)
}

// scanOverdue is the full sweep behind retransmitOverdue's idle guard.
func (s *Session) scanOverdue(now time.Time) {
	for from := 0; from < s.n; from++ {
		for to := 0; to < s.n; to++ {
			l := s.send[from][to]
			l.mu.Lock()
			var resend []transport.Message
			for i := 0; i < l.unacked.Len(); i++ {
				f := l.unacked.At(i)
				if now.Before(f.nextResend) {
					continue
				}
				f.backoff *= 2
				if f.backoff > s.cfg.MaxBackoff {
					f.backoff = s.cfg.MaxBackoff
				}
				f.nextResend = now.Add(f.backoff)
				resend = append(resend, f.msg)
			}
			l.mu.Unlock()
			if len(resend) == 0 {
				continue
			}
			s.retransmits.Add(int64(len(resend)))
			if s.co != nil {
				// Re-batch the link's overdue frames into one envelope:
				// frames that travelled together retransmit together, as
				// one unit on the wire, still ascending by seq.
				s.inner.Send(transport.Envelope(model.NodeID(from), model.NodeID(to), resend))
				continue
			}
			for _, m := range resend {
				s.inner.Send(m)
			}
		}
	}
}

// Stats implements Network: the inner network's accounting plus the
// session layer's retransmit/duplicate counters.
func (s *Session) Stats() transport.Stats {
	st := s.inner.Stats()
	st.Retransmits += s.retransmits.Load()
	st.DupDropped += s.dupDropped.Load()
	if s.co != nil {
		st.Flushes += s.co.Flushes()
	}
	return st
}

// InFlight returns the number of sent-but-unacknowledged frames across
// all links (diagnostics; 0 once the network has settled).
func (s *Session) InFlight() int {
	n := 0
	for from := 0; from < s.n; from++ {
		for to := 0; to < s.n; to++ {
			l := s.send[from][to]
			l.mu.Lock()
			n += l.unacked.Len()
			l.mu.Unlock()
		}
	}
	return n
}

// Partition implements transport.FaultInjector by delegation; a no-op
// if the inner network does not inject faults.
func (s *Session) Partition(from, to model.NodeID) {
	if fi, ok := s.inner.(transport.FaultInjector); ok {
		fi.Partition(from, to)
	}
}

// Heal implements transport.FaultInjector by delegation.
func (s *Session) Heal() {
	if fi, ok := s.inner.(transport.FaultInjector); ok {
		fi.Heal()
	}
}

// SetDropRate implements transport.FaultInjector by delegation.
func (s *Session) SetDropRate(rate float64) {
	if fi, ok := s.inner.(transport.FaultInjector); ok {
		fi.SetDropRate(rate)
	}
}

// SetDupRate implements transport.FaultInjector by delegation.
func (s *Session) SetDupRate(rate float64) {
	if fi, ok := s.inner.(transport.FaultInjector); ok {
		fi.SetDupRate(rate)
	}
}

var (
	_ transport.Network       = (*Session)(nil)
	_ transport.FaultInjector = (*Session)(nil)
)
