package reliable

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// batchedPair builds a started 2-node batched Session over a live Net.
func batchedPair(t *testing.T, f transport.Faults, cfg Config) (*Session, func() []any) {
	t.Helper()
	inner := transport.NewNet(transport.Config{Nodes: 2, Seed: 11, Faults: f})
	s := Wrap(inner, 2, cfg)
	var mu sync.Mutex
	var got []any
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(m transport.Message) {
		mu.Lock()
		got = append(got, m.Payload)
		mu.Unlock()
	})
	s.Start()
	t.Cleanup(s.Close)
	return s, func() []any {
		mu.Lock()
		defer mu.Unlock()
		return append([]any(nil), got...)
	}
}

func (s *Session) linkInFlight(from, to int) int {
	l := s.send[from][to]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unacked.Len()
}

// owesAck reports whether node id owes from a cumulative ack.
func (s *Session) owesAck(id, from int) bool {
	s.recvMu[id].Lock()
	defer s.recvMu[id].Unlock()
	return s.recv[id][from].ackOwed
}

// TestBatchedFIFOExactlyOnce pins the core contract with batching on:
// every message delivered exactly once, in per-link send order, and the
// wire actually coalesced (fewer flush envelopes than messages).
func TestBatchedFIFOExactlyOnce(t *testing.T) {
	s, got := batchedPair(t, transport.Faults{}, Config{
		RetransmitInterval: 2 * time.Millisecond,
		FlushInterval:      200 * time.Microsecond,
	})
	const n = 500
	for i := 0; i < n; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
	}
	waitFor(t, func() bool { return len(got()) == n }, "all deliveries")
	for i, p := range got() {
		if p != i {
			t.Fatalf("delivery %d = %v, want %d (per-link FIFO)", i, p, i)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("batched session recorded no flushes")
	}
	if st.Flushes >= n {
		t.Fatalf("flushes = %d for %d messages: nothing coalesced", st.Flushes, n)
	}
	waitFor(t, func() bool { return s.InFlight() == 0 }, "acks to drain")
}

// envelopeCount counts the envelopes a session hands to the network on
// node-to-node links.
type envelopeCount struct {
	*transport.Net
	n atomic.Int64
}

func (w *envelopeCount) Send(m transport.Message) {
	if m.From != m.To {
		w.n.Add(1)
	}
	w.Net.Send(m)
}

// TestFlushCountMatchesEnvelopes pins that each flush is counted once,
// by the layer that made it: ten frames over a session leave as one data
// batch and one ack-only envelope, and Stats().Flushes reads exactly the
// envelopes the network under the session received, whether that network
// has a window of its own or not.
func TestFlushCountMatchesEnvelopes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{{"net window off", 0}, {"net window on", time.Hour}} {
		t.Run(tc.name, func(t *testing.T) {
			w := &envelopeCount{Net: transport.NewNet(transport.Config{Nodes: 2, BatchWindow: tc.window})}
			s := Wrap(w, 2, Config{RetransmitInterval: time.Minute, FlushInterval: 20 * time.Millisecond})
			var delivered atomic.Int64
			s.Register(0, func(transport.Message) {})
			s.Register(1, func(transport.Message) { delivered.Add(1) })
			s.Start()
			t.Cleanup(s.Close)
			for i := 0; i < 10; i++ {
				s.Send(transport.Message{From: 0, To: 1, Payload: i})
			}
			waitFor(t, func() bool { return delivered.Load() == 10 && s.InFlight() == 0 }, "delivery and the ack")
			s.Close() // waits for the ack's flush to be counted
			if env, f := w.n.Load(), s.Stats().Flushes; env != 2 || f != env {
				t.Fatalf("%d envelopes reached the network, Flushes = %d; want 2 and 2", env, f)
			}
		})
	}
}

// TestDelayedAckNeverStarves sends one-directional traffic (no reverse
// data to piggyback on) and asserts the owed ack's own window alone
// releases the sender's unacked frames — without a single retransmit. If
// delayed acks could starve, the sender's frames would sit unacked until
// the retransmission timer prodded the receiver into re-acking.
func TestDelayedAckNeverStarves(t *testing.T) {
	s, got := batchedPair(t, transport.Faults{}, Config{
		RetransmitInterval: 500 * time.Millisecond, // long: a retransmit means acks starved
		FlushInterval:      100 * time.Microsecond,
	})
	const n = 50
	for i := 0; i < n; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
	}
	waitFor(t, func() bool { return len(got()) == n }, "all deliveries")
	waitFor(t, func() bool { return s.InFlight() == 0 }, "delayed acks to release every frame")
	if r := s.Stats().Retransmits; r != 0 {
		t.Fatalf("got %d retransmits: the delayed ack starved the sender", r)
	}
}

// TestAckPiggybacksOnReverseData owes an ack on a link with a long
// window, then sends urgent reverse-direction data, and asserts the
// sender's frame is released far sooner than the window would release a
// standalone ack — the ack must have ridden the reverse data flush.
func TestAckPiggybacksOnReverseData(t *testing.T) {
	s, got := batchedPair(t, transport.Faults{}, Config{
		RetransmitInterval: 5 * time.Second,
		FlushInterval:      2 * time.Second, // a standalone ack would take this long
	})
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 0, urgent: true}})
	waitFor(t, func() bool { return len(got()) == 1 }, "forward delivery")
	waitFor(t, func() bool { return s.owesAck(1, 0) }, "node 1 to owe the ack")
	// Reverse data must carry it.
	s.Send(transport.Message{From: 1, To: 0, Payload: seqMsg{n: 1, urgent: true}})
	deadline := time.Now().Add(500 * time.Millisecond) // ≪ the window
	for s.linkInFlight(0, 1) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("ack did not piggyback on the reverse data flush")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchedChaosDropExactlyOnce runs a 1% drop rate against batched
// links: a dropped envelope loses the whole flush, and every member
// must come back via retransmission as a unit — still exactly once,
// still in FIFO order.
func TestBatchedChaosDropExactlyOnce(t *testing.T) {
	s, got := batchedPair(t,
		transport.Faults{Default: transport.LinkFaults{DropRate: 0.05}},
		Config{
			RetransmitInterval: time.Millisecond,
			FlushInterval:      200 * time.Microsecond,
		})
	const n = 2000
	for i := 0; i < n; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
		if i%10 == 9 {
			// Pace the producer so the run spans many flush windows —
			// a tight loop would coalesce into a handful of envelopes
			// and the drop rate would rarely fire.
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor(t, func() bool { return len(got()) >= n }, "all deliveries despite drops")
	time.Sleep(10 * time.Millisecond) // let stray duplicates surface
	final := got()
	if len(final) != n {
		t.Fatalf("delivered %d messages, want exactly %d", len(final), n)
	}
	for i, p := range final {
		if p != i {
			t.Fatalf("delivery %d = %v, want %d (FIFO violated under batched drops)", i, p, i)
		}
	}
	if s.Stats().Dropped == 0 {
		t.Fatal("chaos run dropped nothing; the test exercised no fault path")
	}
	waitFor(t, func() bool { return s.InFlight() == 0 }, "acks to drain")
}

func benchSession(nodes int) *Session {
	inner := transport.NewNet(transport.Config{Nodes: nodes, Seed: 1})
	s := Wrap(inner, nodes, Config{})
	return s
}

// BenchmarkRetransmitScanIdle measures one retransmit tick with every
// frame acked — the steady state of a healthy cluster. The idle guard
// reduces it to a single atomic load.
func BenchmarkRetransmitScanIdle(b *testing.B) {
	s := benchSession(16)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.retransmitOverdue(now)
	}
}

// BenchmarkRetransmitScanIdleFull measures the same idle tick without
// the guard: the full n² sweep over every link mutex that used to run
// on every retransmit tick even with nothing in flight.
func BenchmarkRetransmitScanIdleFull(b *testing.B) {
	s := benchSession(16)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scanOverdue(now)
	}
}

// TestCloseWhileWindowTimersArm closes a batching session with traffic
// still in flight: frames keep arriving and arming flush and delayed-ack
// timers while Close sweeps the links and stops those timers. Run under
// -race, which reports an arm racing the stop.
func TestCloseWhileWindowTimersArm(t *testing.T) {
	for round := 0; round < 300; round++ {
		inner := transport.NewNet(transport.Config{Nodes: 2, Seed: int64(round)})
		s := Wrap(inner, 2, Config{FlushInterval: 20 * time.Microsecond})
		// Node 1 answers every frame, so closing also races new sends.
		s.Register(0, func(transport.Message) {})
		s.Register(1, func(m transport.Message) {
			s.Send(transport.Message{From: 1, To: 0, Payload: m.Payload})
		})
		s.Start()
		for i := 0; i < 200; i++ {
			s.Send(transport.Message{From: 0, To: 1, Payload: i})
		}
		s.Close()
	}
}
