package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// BenchmarkWorkQueue drives the node work queue through sustained
// 256-deep bursts — the delivery-goroutine → worker-pool handoff
// pattern under load. The pre-ring implementation (append +
// q.items = q.items[1:]) reallocates and retains dead backing arrays as
// the slice head advances; the ring reuses one power-of-two buffer.
func BenchmarkWorkQueue(b *testing.B) {
	q := newWorkQueue()
	it := workItem{}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; {
		burst := 256
		if burst > n {
			burst = n
		}
		for i := 0; i < burst; i++ {
			q.put(it)
		}
		for i := 0; i < burst; i++ {
			if _, ok := q.get(); !ok {
				b.Fatal("queue closed early")
			}
		}
		n -= burst
	}
}

// BenchmarkWorkQueuePingPong measures the single put/get round trip
// (queue-depth-1 latency path).
func BenchmarkWorkQueuePingPong(b *testing.B) {
	q := newWorkQueue()
	it := workItem{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.put(it)
		if _, ok := q.get(); !ok {
			b.Fatal("queue closed early")
		}
	}
}

// BenchmarkAdvancePartitions times Cluster.Advance() on an idle cluster
// wired like the repository benchmark's session stacks (batched mem
// transport under reliable sessions, batched counters, re-broadcast
// hardening), with one and with four partitions; ns/op is one
// Advance(). Partitions sweep concurrently, taking turns only from the
// update-version switch to the end of the drain (see sweepPacer), so P=4
// should cost about twice what P=1 does, not four times it.
func BenchmarkAdvancePartitions(b *testing.B) {
	for _, nparts := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", nparts), func(b *testing.B) {
			c, err := NewCluster(Config{
				Nodes:           4,
				Partitions:      nparts,
				NetConfig:       transport.Config{BatchWindow: 100 * time.Microsecond},
				BatchedCounters: true,
				Reliable:        true,
				ReliableConfig: reliable.Config{
					RetransmitInterval: 20 * time.Millisecond,
					MaxBackoff:         time.Second,
					FlushInterval:      100 * time.Microsecond,
				},
				ResendInterval: 5 * time.Millisecond,
				AckTimeout:     30 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			c.Start()
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := c.Advance(); rep.Interrupted {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}
