package reliable

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// forwardFrames counts the data frames a session hands to the network
// on link 0 → 1, flush envelopes unpacked.
type forwardFrames struct {
	*transport.Net
	n atomic.Int64
}

func (w *forwardFrames) Send(m transport.Message) {
	if m.From == 0 && m.To == 1 {
		transport.Deliver(func(mm transport.Message) {
			if _, ok := mm.Payload.(DataMsg); ok {
				w.n.Add(1)
			}
		}, m)
	}
	w.Net.Send(m)
}

// TestRetransmitClockStartsAtFlush pins that a staged frame's
// retransmit clock starts when its flush leaves, not when it is staged:
// a frame that waits out a 100 ms window is delivered with no retransmit
// behind it, although its timeout is 10 ms, and once acked it has left
// the sender exactly once. Its ack rides urgent reverse data, so it does
// not wait out a window of its own.
func TestRetransmitClockStartsAtFlush(t *testing.T) {
	w := &forwardFrames{Net: transport.NewNet(transport.Config{Nodes: 2})}
	s := Wrap(w, 2, Config{
		RetransmitInterval: 10 * time.Millisecond,
		FlushInterval:      100 * time.Millisecond,
	})
	got := make(chan int64, 1)
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(transport.Message) { got <- s.Stats().Retransmits })
	s.Start()
	t.Cleanup(s.Close)

	s.Send(transport.Message{From: 0, To: 1, Payload: "x"})
	select {
	case r := <-got:
		if r != 0 {
			t.Fatalf("Retransmits = %d at delivery, want 0: the frame's clock ran while it was staged", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered")
	}
	waitFor(t, func() bool { return s.owesAck(1, 0) }, "node 1 to owe the ack")
	s.Send(transport.Message{From: 1, To: 0, Payload: seqMsg{urgent: true}})
	waitFor(t, func() bool { return s.linkInFlight(0, 1) == 0 }, "the ack")
	if n := w.n.Load(); n != 1 {
		t.Fatalf("the frame left %d times, want 1", n)
	}
}

// scanningJournal runs a retransmit scan while NoteSend is making the
// frame durable — the scanner ticking during a slow fsync.
type scanningJournal struct {
	s       *Session
	durable bool
}

func (j *scanningJournal) NoteSend(transport.Message) {
	j.s.retransmitOverdue(time.Now().Add(time.Hour))
	j.durable = true
}
func (*scanningJournal) NoteRecv(_, _ model.NodeID, _ uint64) {}
func (*scanningJournal) NoteAck(_, _ model.NodeID, _ uint64)  {}

// sendSpy counts data frames handed to it before the journal made them
// durable.
type sendSpy struct {
	discard
	j     *scanningJournal
	sent  int
	early int
}

func (w *sendSpy) Send(m transport.Message) {
	if _, ok := m.Payload.(DataMsg); ok {
		w.sent++
		if !w.j.durable {
			w.early++
		}
	}
}

// TestRetransmitClockStartsAfterNoteSend pins the journal contract on
// the unbatched path: a frame reaches the inner network only after
// NoteSend returns, even when a retransmit scan runs meanwhile.
func TestRetransmitClockStartsAfterNoteSend(t *testing.T) {
	j := &scanningJournal{}
	w := &sendSpy{j: j}
	s := Wrap(w, 2, Config{RetransmitInterval: time.Millisecond, Journal: j})
	j.s = s
	s.Send(transport.Message{From: 0, To: 1, Payload: "x"})
	if w.early != 0 || w.sent != 1 {
		t.Fatalf("%d of %d sends left before NoteSend returned: a retransmit beat the journal", w.early, w.sent)
	}
}

// ackJournal records the cumulative acks a session releases frames for.
type ackJournal struct{ cums []uint64 }

func (*ackJournal) NoteSend(transport.Message)           {}
func (*ackJournal) NoteRecv(_, _ model.NodeID, _ uint64) {}
func (j *ackJournal) NoteAck(_, _ model.NodeID, cum uint64) {
	j.cums = append(j.cums, cum)
}

// TestAckBacklogReleasesEachFrameOnce acks a 10 000-frame backlog on one
// link one frame at a time, each ack delivered twice: every frame is
// released exactly once, in order, and the link drains to zero.
func TestAckBacklogReleasesEachFrameOnce(t *testing.T) {
	const n = 10000
	j := &ackJournal{}
	s := Wrap(transport.NewScript(2), 2, Config{RetransmitInterval: time.Minute, Journal: j})
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(transport.Message) {})
	for i := 0; i < n; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
	}
	if s.InFlight() != n {
		t.Fatalf("InFlight = %d after %d sends", s.InFlight(), n)
	}
	for k := 1; k <= n; k++ {
		s.onAck(0, 1, uint64(k))
		s.onAck(0, 1, uint64(k)) // a duplicate ack releases nothing
		if got := s.InFlight(); got != n-k {
			t.Fatalf("after ack %d: InFlight = %d, want %d", k, got, n-k)
		}
	}
	if len(j.cums) != n {
		t.Fatalf("%d releases for %d frames", len(j.cums), n)
	}
	for i, cum := range j.cums {
		if cum != uint64(i+1) {
			t.Fatalf("release %d was for cum %d", i, cum)
		}
	}
	if u := s.unackedTotal.Load(); u != 0 {
		t.Fatalf("unackedTotal = %d after every frame was acked", u)
	}
}

// discard is a network that drops every send, so a benchmark can keep a
// session's backlog without anything piling up underneath.
type discard struct{}

func (discard) Register(model.NodeID, transport.Handler) {}
func (discard) Send(transport.Message)                   {}
func (discard) Start()                                   {}
func (discard) Close()                                   {}
func (discard) Stats() transport.Stats                   { return transport.Stats{} }

// BenchmarkAckBacklog measures one ack that releases the oldest frame
// of a link holding a steady backlog (plus the send that refills it).
// The cost per ack must not grow with the backlog.
func BenchmarkAckBacklog(b *testing.B) {
	for _, backlog := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			s := Wrap(discard{}, 2, Config{RetransmitInterval: time.Minute})
			for i := 0; i < backlog; i++ {
				s.Send(transport.Message{From: 0, To: 1, Payload: i})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Send(transport.Message{From: 0, To: 1, Payload: i})
				s.onAck(0, 1, uint64(i+1))
			}
		})
	}
}
