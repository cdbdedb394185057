package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// maxBatch caps messages per link flush: a full buffer flushes without
// waiting out the window.
const maxBatch = 256

// Coalescer is the one link-flush window of a stack: the mem Net's
// BatchWindow on a bare mem stack, the reliable session's FlushInterval
// under a session. It stages each directed link's messages until the
// window armed by the first of them expires, the buffer holds maxBatch,
// an Urgent message is staged or the coalescer is closing, and then
// hands them to its emit callback as one flush.
//
// A link's window can also be armed with nothing staged (Arm): the
// session owes the peer an ack, which its emit callback appends to
// whatever flush leaves next, so an owed ack rides reverse data staged
// before the window expires and goes alone otherwise.
//
// Every flush takes the buffer and emits it under the link's flush lock,
// so flushes leave in the order they took their messages: a flush forced
// by a full buffer or an urgent message is never overtaken by the window
// timer's flush of messages staged after it. The diagonal (From == To)
// has no link: a loopback message crosses none, so there is no
// per-envelope cost to share, and callers send it on at once.
type Coalescer struct {
	n      int
	window time.Duration
	// emit sends one flush of msgs (possibly none) on from → to and
	// returns how many messages the envelope carried, 0 if it sent
	// nothing. It runs under the link's flush lock.
	emit    func(from, to model.NodeID, msgs []Message) int
	links   []*link  // indexed from*n+to; nil on the diagonal
	labels  []string // "from→to" batch-size histogram labels, same index
	flushes atomic.Int64
	reg     atomic.Pointer[obs.Registry]

	// closing makes every staging call flush at once. It is read under
	// the link's mu and set before Close's sweep takes every one of those
	// locks, so a window armed before the sweep is emptied by it.
	closing atomic.Bool
	// fence keeps window timers off emit once Close returns: a firing
	// timer holds it for reading while it flushes.
	fence sync.RWMutex
	off   bool
}

// link is one directed link's staging buffer.
type link struct {
	mu    sync.Mutex
	msgs  []Message
	armed bool
	timer *time.Timer
	out   sync.Mutex // the flush lock
}

// NewCoalescer builds the staging buffers of every link between nodes
// endpoints, each flushing at most window after it is armed.
func NewCoalescer(nodes int, window time.Duration, emit func(from, to model.NodeID, msgs []Message) int) *Coalescer {
	c := &Coalescer{
		n:      nodes,
		window: window,
		emit:   emit,
		links:  make([]*link, nodes*nodes),
		labels: make([]string, nodes*nodes),
	}
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			if from != to {
				c.links[from*nodes+to] = &link{timer: c.newTimer(model.NodeID(from), model.NodeID(to))}
				c.labels[from*nodes+to] = fmt.Sprintf("%d→%d", from, to)
			}
		}
	}
	return c
}

// newTimer returns the link's stopped window timer. It is allocated once
// and re-armed with Reset: at tens of thousands of flushes per second a
// fresh AfterFunc per window is measurable allocation churn.
func (c *Coalescer) newTimer(from, to model.NodeID) *time.Timer {
	t := time.AfterFunc(time.Hour, func() {
		c.fence.RLock()
		defer c.fence.RUnlock()
		if !c.off {
			c.Flush(from, to)
		}
	})
	t.Stop()
	return t
}

// SetObs attaches the registry that receives each flush's size in the
// per-link batch-size histograms. Safe to call at any time.
func (c *Coalescer) SetObs(r *obs.Registry) { c.reg.Store(r) }

// Envelope packs one flush for the wire: a single message leaves
// unwrapped, two or more as one BatchMsg, which every delivery path
// unpacks in order.
func Envelope(from, to model.NodeID, msgs []Message) Message {
	if len(msgs) == 1 {
		return msgs[0]
	}
	return Message{From: from, To: to, Payload: BatchMsg{Msgs: msgs}}
}

// Stage parks m on its link. The first message arms the window; a full
// buffer or an urgent message flushes the link at once, together with
// everything staged ahead of it.
func (c *Coalescer) Stage(m Message) {
	l := c.links[int(m.From)*c.n+int(m.To)]
	l.mu.Lock()
	l.msgs = append(l.msgs, m)
	c.arm(l, m.From, m.To, len(l.msgs) >= maxBatch || IsUrgent(m.Payload))
}

// Arm opens the link's window with nothing staged, so the emit callback
// runs by the time it expires even if no message is staged meanwhile.
func (c *Coalescer) Arm(from, to model.NodeID) {
	l := c.links[int(from)*c.n+int(to)]
	l.mu.Lock()
	c.arm(l, from, to, false)
}

// arm ends a staging call on l, whose mu the caller holds: it flushes
// now when asked to or when closing, and otherwise arms the window
// unless it is armed already.
func (c *Coalescer) arm(l *link, from, to model.NodeID, now bool) {
	if now || c.closing.Load() {
		l.mu.Unlock()
		c.Flush(from, to)
		return
	}
	if !l.armed {
		// Re-arming is safe whether or not the timer has fired (a forced
		// flush disarms the link with its timer pending): at worst a
		// stale callback flushes early, a harmless short window, and the
		// re-armed one finds the buffer empty.
		l.armed = true
		l.timer.Reset(c.window)
	}
	l.mu.Unlock()
}

// Flush takes the link's buffer and emits it (emit runs even when the
// buffer is empty, for an armed ack). When it returns, everything staged
// on the link before the call has left.
func (c *Coalescer) Flush(from, to model.NodeID) {
	i := int(from)*c.n + int(to)
	l := c.links[i]
	l.out.Lock()
	defer l.out.Unlock()
	l.mu.Lock()
	msgs := l.msgs
	l.msgs = nil
	l.armed = false
	l.mu.Unlock()
	if size := c.emit(from, to, msgs); size > 0 {
		c.flushes.Add(1)
		c.reg.Load().ObserveBatchSize(c.labels[i], size)
	}
}

// Staged reports how many messages wait on the link from → to; 0 on the
// diagonal, where nothing is ever staged.
func (c *Coalescer) Staged(from, to model.NodeID) int {
	l := c.links[int(from)*c.n+int(to)]
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.msgs)
}

// Flushes counts the envelopes emitted, ack-only ones included.
func (c *Coalescer) Flushes() int64 { return c.flushes.Load() }

// Close flushes every link and stops the window timers without waiting
// them out. From then on every staging call flushes at once, and no timer
// emits anything once Close returns.
func (c *Coalescer) Close() {
	c.closing.Store(true)
	for i, l := range c.links {
		if l == nil {
			continue
		}
		c.Flush(model.NodeID(i/c.n), model.NodeID(i%c.n))
		l.timer.Stop()
	}
	c.fence.Lock()
	c.off = true
	c.fence.Unlock()
}
