package reliable

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// seqMsg is one numbered message from one sending goroutine; urgent
// selects whether it flushes its link at once.
type seqMsg struct {
	sender, n int
	urgent    bool
}

func (m seqMsg) Urgent() bool { return m.urgent }

// TestSessionUrgentFlushesAtOnce is the network test through DataMsg:
// with both the session and the network underneath it on hour-long
// windows, ordinary frames stay staged in the session, an urgent frame
// leaves at once with the staged ones ahead of it, and no session frame,
// urgent or not, is re-staged by the network (transport.Flushed).
func TestSessionUrgentFlushesAtOnce(t *testing.T) {
	inner := transport.NewNet(transport.Config{Nodes: 2, BatchWindow: time.Hour})
	s := Wrap(inner, 2, Config{RetransmitInterval: time.Minute, FlushInterval: time.Hour})
	got := make(chan int, 10)
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(m transport.Message) { got <- m.Payload.(seqMsg).n })
	s.Start()
	t.Cleanup(s.Close)
	expect := func(from, to int) {
		t.Helper()
		for want := from; want < to; want++ {
			select {
			case v := <-got:
				if v != want {
					t.Fatalf("delivery %d = message %d: the urgent flush broke link order", want, v)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("message %d still staged after its flush", want)
			}
		}
	}

	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 0}})
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 1}})
	select {
	case v := <-got:
		t.Fatalf("ordinary message %d left before its window", v)
	case <-time.After(20 * time.Millisecond):
	}
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 2, urgent: true}})
	expect(0, 3)
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 3, urgent: true}})
	expect(3, 4)
	// An ordinary frame flushed alone — what the session's window timer
	// does — leaves the network at once too.
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 4}})
	s.co.Flush(0, 1)
	expect(4, 5)
}

// innerOrder records the sequence numbers of the data frames a network
// hands to the session above it, in delivery order.
type innerOrder struct {
	*transport.Net
	seqs chan uint64
}

func (w *innerOrder) Register(id model.NodeID, h transport.Handler) {
	w.Net.Register(id, func(m transport.Message) {
		if d, ok := m.Payload.(DataMsg); ok {
			w.seqs <- d.Seq
		}
		h(m)
	})
}

// TestSessionFlushFIFOOverBatchingNet pins per-link FIFO between the two
// batching layers: with one-second windows in both, a one-frame session
// flush (a bare DataMsg) followed by a three-frame flush (a BatchMsg)
// must reach the session's receiving side in sequence order, and at
// once. A network that staged the lone frame would let the batch, which
// it never stages, overtake it. Run under -race.
func TestSessionFlushFIFOOverBatchingNet(t *testing.T) {
	w := &innerOrder{Net: transport.NewNet(transport.Config{Nodes: 2, BatchWindow: time.Second}), seqs: make(chan uint64, 4)} // one slot per frame sent
	s := Wrap(w, 2, Config{RetransmitInterval: time.Minute, FlushInterval: time.Second})
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(transport.Message) {})
	s.Start()
	t.Cleanup(s.Close)

	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 0}})
	s.co.Flush(0, 1) // the window timer's one-frame flush
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 1}})
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 2}})
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 3, urgent: true}})
	deadline := time.After(500 * time.Millisecond)
	for want := uint64(1); want <= 4; want++ {
		select {
		case got := <-w.seqs:
			if got != want {
				t.Fatalf("frame %d reached the session before frame %d: a later flush overtook a staged one", got, want)
			}
		case <-deadline:
			t.Fatalf("frame %d still staged: the network re-staged a session flush", want)
		}
	}
}

// wireOrder is a network that checks, as frames enter it, that each
// sending goroutine's data frames reach the wire in the order it sent
// them — the order the session's flushes must keep, whatever the
// receiver's reorder buffer would later repair.
type wireOrder struct {
	*transport.Net
	mu   sync.Mutex
	next map[int]int
	bad  []string
}

func (w *wireOrder) Send(m transport.Message) {
	w.mu.Lock()
	check := func(m transport.Message) {
		if d, ok := m.Payload.(DataMsg); ok {
			p := d.Payload.(seqMsg)
			if p.n != w.next[p.sender] && len(w.bad) < 5 {
				w.bad = append(w.bad, fmt.Sprintf("sender %d: frame %d left before %d", p.sender, p.n, w.next[p.sender]))
			}
			w.next[p.sender] = p.n + 1
		}
	}
	if b, ok := m.Payload.(transport.BatchMsg); ok {
		for _, mm := range b.Msgs {
			check(mm)
		}
	} else {
		check(m)
	}
	w.mu.Unlock()
	w.Net.Send(m)
}

// TestSessionUrgentFIFO races several senders on one session link
// against a short flush window, every tenth message urgent: flushes must
// reach the network in staging order, and each sender's messages arrive
// in the order it sent them. Retransmission is parked far out so every
// frame enters the network exactly once. Run under -race.
func TestSessionUrgentFIFO(t *testing.T) {
	const senders, per = 4, 2000
	w := &wireOrder{Net: transport.NewNet(transport.Config{Nodes: 2}), next: map[int]int{}}
	s := Wrap(w, 2, Config{RetransmitInterval: time.Minute, FlushInterval: 50 * time.Microsecond})
	var mu sync.Mutex
	next := make([]int, senders)
	var bad []string
	done := make(chan struct{})
	received := 0
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(m transport.Message) {
		p := m.Payload.(seqMsg)
		mu.Lock()
		defer mu.Unlock()
		if p.n != next[p.sender] && len(bad) < 5 {
			bad = append(bad, fmt.Sprintf("sender %d: got %d, want %d", p.sender, p.n, next[p.sender]))
		}
		next[p.sender] = p.n + 1
		if received++; received == senders*per {
			close(done)
		}
	})
	s.Start()
	t.Cleanup(s.Close)
	var wg sync.WaitGroup
	for snd := 0; snd < senders; snd++ {
		wg.Add(1)
		go func(snd int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{sender: snd, n: i, urgent: i%10 == 9}})
			}
		}(snd)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	mu.Lock()
	defer mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.bad) > 0 || len(bad) > 0 {
		t.Fatalf("per-sender order broken: on the wire %v, at the receiver %v", w.bad, bad)
	}
}

// TestCloseReturnsPromptly arms window timers on a 10 s window — one for
// an owed ack, one for a staged frame — then closes: Close must stop
// them rather than wait them out.
func TestCloseReturnsPromptly(t *testing.T) {
	inner := transport.NewNet(transport.Config{Nodes: 2})
	s := Wrap(inner, 2, Config{RetransmitInterval: time.Minute, FlushInterval: 10 * time.Second})
	got := make(chan int, 100)
	s.Register(0, func(transport.Message) {})
	s.Register(1, func(m transport.Message) { got <- m.Payload.(seqMsg).n })
	s.Start()
	for i := 0; i < 10; i++ {
		s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: i, urgent: i == 9}})
	}
	for i := 0; i < 10; i++ {
		select {
		case <-got: // node 1 now owes node 0 a delayed ack
		case <-time.After(5 * time.Second):
			t.Fatal("urgent flush did not deliver")
		}
	}
	s.Send(transport.Message{From: 0, To: 1, Payload: seqMsg{n: 10}}) // arms the flush window
	start := time.Now()
	s.Close()
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("Close took %v: it waited out an armed window timer", el)
	}
}
