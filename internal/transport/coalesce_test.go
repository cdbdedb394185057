package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// flushLog is an emit callback that records each flush's messages. When
// an ack is owed on a link it appends an "ack" message to that link's
// next flush, the way the reliable session pays its owed acks.
type flushLog struct {
	mu      sync.Mutex
	flushes [][]Message
	owed    map[[2]model.NodeID]bool
	// emitted gets one token per non-empty flush; its buffer exceeds any
	// test's flush count, so emit never blocks on it.
	emitted chan struct{}
}

func newFlushLog() *flushLog {
	return &flushLog{owed: map[[2]model.NodeID]bool{}, emitted: make(chan struct{}, 1024)}
}

func (f *flushLog) emit(from, to model.NodeID, msgs []Message) int {
	f.mu.Lock()
	if f.owed[[2]model.NodeID{from, to}] {
		delete(f.owed, [2]model.NodeID{from, to})
		msgs = append(msgs, Message{From: from, To: to, Payload: "ack"})
	}
	if len(msgs) > 0 {
		f.flushes = append(f.flushes, msgs)
	}
	f.mu.Unlock()
	if len(msgs) > 0 {
		f.emitted <- struct{}{}
	}
	return len(msgs)
}

func (f *flushLog) owe(from, to model.NodeID) {
	f.mu.Lock()
	f.owed[[2]model.NodeID{from, to}] = true
	f.mu.Unlock()
}

func (f *flushLog) snapshot() [][]Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]Message(nil), f.flushes...)
}

// wait blocks until n more non-empty flushes were emitted.
func (f *flushLog) wait(t *testing.T, n int, why string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-f.emitted:
		case <-time.After(5 * time.Second):
			t.Fatalf("no flush: %s", why)
		}
	}
}

// quiet fails if any flush is emitted within d.
func (f *flushLog) quiet(t *testing.T, d time.Duration, why string) {
	t.Helper()
	select {
	case <-f.emitted:
		t.Fatalf("unexpected flush %v: %s", f.snapshot(), why)
	case <-time.After(d):
	}
}

func payloads(msgs []Message) []any {
	out := make([]any, len(msgs))
	for i, m := range msgs {
		out[i] = m.Payload
	}
	return out
}

func TestCoalescerWindowFlush(t *testing.T) {
	f := newFlushLog()
	c := NewCoalescer(2, 20*time.Millisecond, f.emit)
	start := time.Now()
	c.Stage(Message{From: 0, To: 1, Payload: 1})
	c.Stage(Message{From: 0, To: 1, Payload: 2})
	if n := c.Staged(0, 1); n != 2 {
		t.Fatalf("Staged = %d, want 2", n)
	}
	f.wait(t, 1, "window expiry")
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("flush left after %v, before its 20ms window", el)
	}
	c.Close() // waits for the timer's flush to be counted
	got := f.snapshot()
	if len(got) != 1 || fmt.Sprint(payloads(got[0])) != "[1 2]" || c.Flushes() != 1 {
		t.Fatalf("flushes = %v (counted %d), want one flush of [1 2]", got, c.Flushes())
	}
}

func TestCoalescerFullBufferFlushes(t *testing.T) {
	f := newFlushLog()
	c := NewCoalescer(2, time.Hour, f.emit)
	defer c.Close()
	for i := 0; i < maxBatch; i++ {
		c.Stage(Message{From: 0, To: 1, Payload: i})
	}
	f.wait(t, 1, "full buffer")
	if got := f.snapshot(); len(got) != 1 || len(got[0]) != maxBatch || c.Staged(0, 1) != 0 {
		t.Fatalf("got %d flushes, want one of %d messages", len(got), maxBatch)
	}
}

func TestCoalescerUrgentFlushes(t *testing.T) {
	f := newFlushLog()
	c := NewCoalescer(2, time.Hour, f.emit)
	defer c.Close()
	c.Stage(Message{From: 0, To: 1, Payload: seqMsg{n: 0}})
	f.quiet(t, 20*time.Millisecond, "an ordinary message left before its window")
	c.Stage(Message{From: 0, To: 1, Payload: seqMsg{n: 1, urgent: true}})
	f.wait(t, 1, "urgent message")
	if got := f.snapshot(); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("flushes = %v, want the staged message and the urgent one in one flush", got)
	}
}

func TestCoalescerClosingFlushes(t *testing.T) {
	f := newFlushLog()
	c := NewCoalescer(3, time.Hour, f.emit)
	c.Stage(Message{From: 0, To: 1, Payload: 1})
	c.Stage(Message{From: 2, To: 0, Payload: 2})
	c.Close()
	if got := f.snapshot(); len(got) != 2 {
		t.Fatalf("Close emitted %d flushes, want the 2 staged links", len(got))
	}
	c.Stage(Message{From: 1, To: 2, Payload: 3})
	if got := f.snapshot(); len(got) != 3 {
		t.Fatal("a message staged after Close waited for a window")
	}
}

// TestCoalescerArmReleasesOwedAck arms a window with nothing staged:
// the flush at its expiry carries the owed ack alone.
func TestCoalescerArmReleasesOwedAck(t *testing.T) {
	f := newFlushLog()
	c := NewCoalescer(2, 10*time.Millisecond, f.emit)
	f.owe(1, 0)
	c.Arm(1, 0)
	f.wait(t, 1, "an armed window never released the owed ack")
	c.Close() // waits for the timer's flush to be counted
	got := f.snapshot()
	if len(got) != 1 || fmt.Sprint(payloads(got[0])) != "[ack]" || c.Flushes() != 1 {
		t.Fatalf("flushes = %v (counted %d), want one ack-only flush", got, c.Flushes())
	}
}

// TestCoalescerOwedAckRidesData owes an ack before any data is staged on
// the link: the data staged within the ack's window leaves with it, in
// one flush when that window expires.
func TestCoalescerOwedAckRidesData(t *testing.T) {
	f := newFlushLog()
	c := NewCoalescer(2, 30*time.Millisecond, f.emit)
	defer c.Close()
	f.owe(1, 0)
	c.Arm(1, 0)
	c.Stage(Message{From: 1, To: 0, Payload: "pong"})
	f.wait(t, 1, "window expiry")
	f.quiet(t, 60*time.Millisecond, "the ack and the data left as two flushes")
	got := f.snapshot()
	if len(got) != 1 || fmt.Sprint(payloads(got[0])) != "[pong ack]" {
		t.Fatalf("flushes = %v, want one flush [pong ack]", got)
	}
}

// TestCoalescerNoTimerEmitsAfterClose races Close against window timers
// on every link, armed with and without staged messages: once Close has
// returned, no timer may run the emit callback. Run under -race.
func TestCoalescerNoTimerEmitsAfterClose(t *testing.T) {
	const nodes = 3
	for round := 0; round < 200; round++ {
		var closed, late atomic.Bool
		c := NewCoalescer(nodes, 20*time.Microsecond, func(model.NodeID, model.NodeID, []Message) int {
			if closed.Load() {
				late.Store(true)
			}
			return 0
		})
		for from := model.NodeID(0); from < nodes; from++ {
			for to := model.NodeID(0); to < nodes; to++ {
				if from != to {
					c.Stage(Message{From: from, To: to, Payload: round})
					c.Arm(to, from)
				}
			}
		}
		c.Close()
		closed.Store(true)
		time.Sleep(100 * time.Microsecond) // past every window
		if late.Load() {
			t.Fatalf("round %d: a window timer emitted after Close returned", round)
		}
	}
}

// TestCoalescerFIFO races several senders on one link against a short
// window, every tenth message urgent and the buffer filling often: window,
// urgent and full-buffer flushes must leave in staging order, so each
// sender's messages are emitted in the order it staged them. Run under
// -race.
func TestCoalescerFIFO(t *testing.T) {
	const senders, per = 4, 5000
	var mu sync.Mutex
	next := make([]int, senders)
	var bad []string
	emitted := 0
	c := NewCoalescer(2, 50*time.Microsecond, func(_, _ model.NodeID, msgs []Message) int {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range msgs {
			p := m.Payload.(seqMsg)
			if p.n != next[p.sender] && len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("sender %d: emitted %d, want %d", p.sender, p.n, next[p.sender]))
			}
			next[p.sender] = p.n + 1
		}
		emitted += len(msgs)
		return len(msgs)
	})
	sendSeq(senders, per, func(p seqMsg) { c.Stage(Message{From: 0, To: 1, Payload: p}) })
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	if emitted != senders*per || len(bad) > 0 {
		t.Fatalf("emitted %d of %d; per-sender order broken: %v", emitted, senders*per, bad)
	}
}
