package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// seqMsg is one numbered message from one sending goroutine; urgent
// selects whether it flushes its link at once.
type seqMsg struct {
	sender, n int
	urgent    bool
}

func (m seqMsg) Urgent() bool { return m.urgent }

func TestIsUrgent(t *testing.T) {
	for _, tc := range []struct {
		p    any
		want bool
	}{
		{nil, false},
		{ping{1}, false},
		{seqMsg{urgent: false}, false},
		{seqMsg{urgent: true}, true},
	} {
		if got := IsUrgent(tc.p); got != tc.want {
			t.Errorf("IsUrgent(%#v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestNetUrgentFlushesAtOnce pins the rule with a window nothing waits
// out: ordinary messages stay staged, and an urgent one leaves at once
// with the staged ones ahead of it, in order, as one flush.
func TestNetUrgentFlushesAtOnce(t *testing.T) {
	n := NewNet(Config{Nodes: 2, BatchWindow: time.Hour})
	got := make(chan int, 10)
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) { got <- m.Payload.(seqMsg).n })
	n.Start()
	defer n.Close()

	n.Send(Message{From: 0, To: 1, Payload: seqMsg{n: 0}})
	n.Send(Message{From: 0, To: 1, Payload: seqMsg{n: 1}})
	select {
	case v := <-got:
		t.Fatalf("ordinary message %d left before its window", v)
	case <-time.After(20 * time.Millisecond):
	}
	n.Send(Message{From: 0, To: 1, Payload: seqMsg{n: 2, urgent: true}})
	for want := 0; want < 3; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("delivery %d = message %d: the urgent flush broke link order", want, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d still staged after an urgent send", want)
		}
	}
	if f := n.Stats().Flushes; f != 1 {
		t.Fatalf("flushes = %d, want 1 (the staged messages ride the urgent flush)", f)
	}
}

// TestNetUrgentFIFO races several senders on one link against a short
// window, every tenth message urgent: urgent flushes, full-buffer
// flushes and window flushes must leave in staging order, so each
// sender's messages arrive in the order it sent them. Run under -race.
func TestNetUrgentFIFO(t *testing.T) {
	const senders, per = 4, 10000
	n := NewNet(Config{Nodes: 2, BatchWindow: 50 * time.Microsecond})
	var mu sync.Mutex
	next := make([]int, senders)
	var bad []string
	done := make(chan struct{})
	received := 0
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) {
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
	n.Start()
	defer n.Close()
	sendSeq(senders, per, func(p seqMsg) { n.Send(Message{From: 0, To: 1, Payload: p}) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("per-sender order broken: %v", bad)
	}
}

// sendSeq runs senders goroutines, each sending per numbered messages
// with every tenth one urgent, and waits for them.
func sendSeq(senders, per int, send func(seqMsg)) {
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				send(seqMsg{sender: s, n: i, urgent: i%10 == 9})
			}
		}(s)
	}
	wg.Wait()
}

// TestNetLoopbackIgnoresBatchWindow pins that only node-to-node links
// are windowed: with an hour-long window, a 0 → 1 message stays staged
// while a loopback message, sent after it, is delivered at once, is
// never staged and is not counted as a link flush.
func TestNetLoopbackIgnoresBatchWindow(t *testing.T) {
	n := NewNet(Config{Nodes: 2, BatchWindow: time.Hour})
	self := make(chan int, 1)
	peer := make(chan int, 1)
	n.Register(0, func(m Message) { self <- m.Payload.(seqMsg).n })
	n.Register(1, func(m Message) { peer <- m.Payload.(seqMsg).n })
	n.Start()
	defer n.Close()
	n.Send(Message{From: 0, To: 1, Payload: seqMsg{n: 1}})
	n.Send(Message{From: 0, To: 0, Payload: seqMsg{n: 2}})
	if n.co.Staged(0, 1) != 1 || n.co.Staged(0, 0) != 0 {
		t.Fatalf("staged 0→1: %d, 0→0: %d; want 1 and 0", n.co.Staged(0, 1), n.co.Staged(0, 0))
	}
	select {
	case <-self:
	case <-time.After(5 * time.Second):
		t.Fatal("loopback message waited out the batch window")
	}
	select {
	case v := <-peer:
		t.Fatalf("message %d on link 0→1 left before its window", v)
	default:
	}
	if f := n.Stats().Flushes; f != 0 {
		t.Fatalf("flushes = %d, want 0: a loopback send is not a link flush", f)
	}
}
