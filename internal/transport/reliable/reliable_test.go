package reliable

import (
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// pair builds a started 2-node Session over a live Net with the given
// faults. Node 1's deliveries are recorded in order.
func pair(t *testing.T, f transport.Faults) (*Session, func() []any) {
	t.Helper()
	inner := transport.NewNet(transport.Config{Nodes: 2, Seed: 11, Faults: f})
	s := Wrap(inner, 2, Config{RetransmitInterval: time.Millisecond})
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

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRetransmitRepairsDrop(t *testing.T) {
	s, got := pair(t, transport.Faults{})
	// Drop the first transmission deterministically, then let the
	// retransmission timer repair it.
	s.SetDropRate(1)
	s.Send(transport.Message{From: 0, To: 1, Payload: "once"})
	s.SetDropRate(0)
	waitFor(t, func() bool { return len(got()) == 1 }, "retransmitted delivery")
	st := s.Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected at least one retransmission")
	}
	if st.Dropped == 0 {
		t.Fatal("expected the inner network to count the drop")
	}
	waitFor(t, func() bool { return s.InFlight() == 0 }, "ack to clear the frame")
}

func TestDedupAfterDuplicate(t *testing.T) {
	s, got := pair(t, transport.Faults{Default: transport.LinkFaults{DupRate: 1}})
	for i := 0; i < 20; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
	}
	waitFor(t, func() bool { return len(got()) == 20 }, "exactly-once delivery")
	// Give the duplicate copies time to arrive and be discarded.
	waitFor(t, func() bool { return s.Stats().DupDropped > 0 }, "duplicate discard accounting")
	time.Sleep(20 * time.Millisecond)
	if n := len(got()); n != 20 {
		t.Fatalf("delivered %d messages, want exactly 20", n)
	}
	for i, p := range got() {
		if p != i {
			t.Fatalf("delivery %d = %v, want %d (per-link FIFO)", i, p, i)
		}
	}
}

func TestFIFOUnderReorderingJitter(t *testing.T) {
	inner := transport.NewNet(transport.Config{Nodes: 2, Seed: 3, Jitter: 500 * time.Microsecond})
	s := Wrap(inner, 2, Config{})
	var mu sync.Mutex
	var got []any
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(m transport.Message) { mu.Lock(); got = append(got, m.Payload); mu.Unlock() })
	s.Start()
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == n }, "all deliveries")
	mu.Lock()
	defer mu.Unlock()
	for i, p := range got {
		if p != i {
			t.Fatalf("delivery %d = %v: jitter reordering leaked through the session layer", i, p)
		}
	}
}

func TestPartitionHealConvergence(t *testing.T) {
	s, got := pair(t, transport.Faults{})
	s.Partition(0, 1)
	s.Partition(1, 0)
	const n = 10
	for i := 0; i < n; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: i})
	}
	time.Sleep(10 * time.Millisecond)
	if len(got()) != 0 {
		t.Fatalf("delivered %d messages through an active partition", len(got()))
	}
	s.Heal()
	waitFor(t, func() bool { return len(got()) == n }, "post-heal delivery")
	for i, p := range got() {
		if p != i {
			t.Fatalf("delivery %d = %v, want %d", i, p, i)
		}
	}
	waitFor(t, func() bool { return s.InFlight() == 0 }, "unacked frames to drain")
}

func TestBackoffCapsAndRetransmitOverdue(t *testing.T) {
	inner := transport.NewNet(transport.Config{Nodes: 2, Seed: 5})
	s := Wrap(inner, 2, Config{RetransmitInterval: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(transport.Message) {})
	// Not started: no retransmit loop, no inner delivery — frames just
	// accumulate, making the backoff arithmetic directly observable.
	s.Partition(0, 1)
	s.Send(transport.Message{From: 0, To: 1, Payload: "x"})
	l := s.send[0][1]
	now := time.Now()
	for i := 0; i < 5; i++ {
		now = now.Add(time.Hour) // always overdue
		s.retransmitOverdue(now)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.unacked.Len() != 1 {
		t.Fatalf("unacked = %d, want 1", l.unacked.Len())
	}
	if b := l.unacked.At(0).backoff; b != 4*time.Millisecond {
		t.Fatalf("backoff = %v, want capped at 4ms", b)
	}
	if s.Stats().Retransmits != 5 {
		t.Fatalf("Retransmits = %d, want 5", s.Stats().Retransmits)
	}
	inner.Close()
}

func TestLoopbackBypassesSession(t *testing.T) {
	inner := transport.NewNet(transport.Config{Nodes: 2, Seed: 13})
	s := Wrap(inner, 2, Config{})
	var mu sync.Mutex
	var self []any
	s.Register(0, func(m transport.Message) { mu.Lock(); self = append(self, m.Payload); mu.Unlock() })
	s.Register(1, func(transport.Message) {})
	s.Start()
	t.Cleanup(s.Close)
	s.Send(transport.Message{From: 0, To: 0, Payload: "me"})
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(self) == 1 }, "loopback delivery")
	if s.InFlight() != 0 {
		t.Fatal("loopback send must not be tracked for retransmission")
	}
	mu.Lock()
	defer mu.Unlock()
	if self[0] != "me" {
		t.Fatalf("loopback payload = %v, want unwrapped \"me\"", self[0])
	}
}
