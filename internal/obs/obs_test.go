package obs

import (
	"strings"
	"testing"
	"time"
)

// TestBucketMath checks monotonicity and the index/upper round trip of
// the integer-only bucket functions.
func TestBucketMath(t *testing.T) {
	prev := 0
	for v := int64(0); v <= 1<<20; v++ {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone at v=%d: %d < %d", v, i, prev)
		}
		prev = i
		if up := bucketUpper(i); v > up {
			t.Fatalf("v=%d above its bucket's upper edge %d (bucket %d)", v, up, i)
		}
	}
	// Upper edges strictly increase over the buckets bucketIndex can
	// actually produce (octaves 0-2 use only their first slot), and
	// each edge maps back to its own bucket (stay below octave 62 to
	// avoid int64 overflow).
	prevUp := bucketUpper(0)
	for i := 1; i < 62*subBuckets; i++ {
		if i/subBuckets < 3 && i%subBuckets != 0 {
			continue // unreachable slot of an unsubdivided octave
		}
		up := bucketUpper(i)
		if up <= prevUp {
			t.Fatalf("bucketUpper not increasing at %d: %d <= %d", i, up, prevUp)
		}
		prevUp = up
		if j := bucketIndex(up); j != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", i, j)
		}
	}
}

// TestHistogramQuantiles observes 1..1000 once each; quantile answers
// are then fully determined by the bucket layout.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Max != 1000 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum=%d", s.Sum)
	}
	// Rank 500 lands in bucket [480,511]; within-bucket interpolation
	// recovers the exact value on a uniform distribution.
	if got := s.Quantile(0.5); got != 500 {
		t.Fatalf("P50 = %d, want 500", got)
	}
	// The top quantile is clamped to the true observed max.
	if got := s.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %d, want 1000", got)
	}
	if got := s.Mean(); got != 500.5 {
		t.Fatalf("Mean = %v, want 500.5", got)
	}
	// A quantile never exceeds the max even mid-bucket.
	if got := s.P99(); got > 1000 {
		t.Fatalf("P99 = %d exceeds max", got)
	}
}

// TestHistogramDistinctNearbyP50s is the regression test for the
// artifact where read and update p50 both reported exactly
// 2.621 ms (= 2^21 ns × 1.25): with coarse power-of-two buckets and
// edge-valued quantiles, any latency in [2^21, 2.5·2^21) collapsed to
// the same number. Sub-bucketed octaves plus interpolation must keep
// nearby distinct latency populations apart.
func TestHistogramDistinctNearbyP50s(t *testing.T) {
	mk := func(center int64) HistSnapshot {
		var h Histogram
		// A tight population around the center: the old layout put the
		// whole spread of both populations into one bucket.
		for i := int64(-50); i <= 50; i++ {
			h.Observe(center + i*1000) // ±50µs around center
		}
		return h.Snapshot()
	}
	a := mk(2_400_000) // 2.4 ms — same old octave [2^21, 2^22)
	b := mk(2_550_000) // 2.55 ms
	pa, pb := a.P50(), b.P50()
	if pa == pb {
		t.Fatalf("nearby latency populations collapsed to the same p50 %d", pa)
	}
	// And each p50 lands near its own center, not a bucket edge.
	if diff := pa - 2_400_000; diff < -160_000 || diff > 160_000 {
		t.Fatalf("p50(2.4ms population) = %d, too far from center", pa)
	}
	if diff := pb - 2_550_000; diff < -160_000 || diff > 160_000 {
		t.Fatalf("p50(2.55ms population) = %d, too far from center", pb)
	}
}

// TestHistogramEmptyAndNil: zero snapshots answer zero; nil histograms
// swallow observations.
func TestHistogramEmptyAndNil(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot should answer 0")
	}
	var h *Histogram
	h.Observe(5) // must not panic
	h.ObserveDuration(time.Second)
	if got := h.Snapshot(); got.Count != 0 {
		t.Fatalf("nil histogram count = %d", got.Count)
	}
}

// TestEventLogWraparound fills a small ring past capacity and checks
// Dump returns exactly the newest entries, oldest first.
func TestEventLogWraparound(t *testing.T) {
	l := NewEventLog(8, 1)
	for i := 0; i < 20; i++ {
		l.Record(Event{Kind: EvTxnDone, Node: i})
	}
	if got := l.Recorded(); got != 20 {
		t.Fatalf("Recorded = %d, want 20", got)
	}
	out := l.Dump()
	if len(out) != 8 {
		t.Fatalf("Dump returned %d events, want 8", len(out))
	}
	for i, e := range out {
		wantSeq := uint64(12 + i)
		if e.Seq != wantSeq || e.Node != int(wantSeq) {
			t.Fatalf("event %d: seq=%d node=%d, want %d", i, e.Seq, e.Node, wantSeq)
		}
	}
}

// TestEventLogPartial: fewer events than capacity come back in order.
func TestEventLogPartial(t *testing.T) {
	l := NewEventLog(8, 1)
	for i := 0; i < 3; i++ {
		l.Record(Event{Node: i})
	}
	out := l.Dump()
	if len(out) != 3 {
		t.Fatalf("Dump returned %d, want 3", len(out))
	}
	for i, e := range out {
		if e.Seq != uint64(i) || e.Node != i {
			t.Fatalf("event %d: seq=%d node=%d", i, e.Seq, e.Node)
		}
	}
}

// TestSampleTick: 1-in-N sampling fires on every Nth tick exactly.
func TestSampleTick(t *testing.T) {
	l := NewEventLog(8, 4)
	fired := 0
	for i := 1; i <= 40; i++ {
		if l.SampleTick() {
			fired++
			if i%4 != 0 {
				t.Fatalf("fired on tick %d", i)
			}
		}
	}
	if fired != 10 {
		t.Fatalf("fired %d times, want 10", fired)
	}
	var nilLog *EventLog
	if nilLog.SampleTick() {
		t.Fatal("nil log sampled true")
	}
}

// TestRegistrySnapshot exercises counters, gauges and lag gauges
// through a registry round trip.
func TestRegistrySnapshot(t *testing.T) {
	r := New(Options{EventCapacity: 16, EventSampleN: 1})
	r.ObserveTxnLatency(true, 10*time.Microsecond)
	r.ObserveTxnLatency(false, 20*time.Microsecond)
	r.ObserveHop(time.Microsecond)
	r.ObserveExec(2 * time.Microsecond)
	r.ObserveAdvance([4]time.Duration{1, 2, 3, 4}, 10, 5)
	r.Inc(CtrTxnsSubmitted, 2)
	r.Inc(CtrTxnsCommitted, 1)
	r.SetGauge(GaugeVersionRead, 3)
	r.SetCounterLag(CounterLag{Version: 4, SumLag: 7, MaxPairLag: 2})
	r.SetCounterLag(CounterLag{Version: 2, SumLag: 0, MaxPairLag: 0})
	r.RecordEvent(Event{Kind: EvVersionSwitch, Version: 4})

	s := r.Snapshot()
	if s.TxnRead.Count != 1 || s.TxnUpdate.Count != 1 {
		t.Fatalf("txn counts: read=%d update=%d", s.TxnRead.Count, s.TxnUpdate.Count)
	}
	if s.Counters["txns_submitted"] != 2 || s.Counters["txns_committed"] != 1 {
		t.Fatalf("counters: %v", s.Counters)
	}
	if s.Counters["advancements"] != 1 {
		t.Fatalf("ObserveAdvance should bump advancements: %v", s.Counters)
	}
	if s.AdvSweeps.Sum != 5 || s.AdvPhases[3].Count != 1 {
		t.Fatalf("advance: sweeps=%+v phases=%+v", s.AdvSweeps, s.AdvPhases)
	}
	if s.Gauges[GaugeVersionRead] != 3 {
		t.Fatalf("gauges: %v", s.Gauges)
	}
	// Lags come back sorted by version.
	if len(s.CounterLags) != 2 || s.CounterLags[0].Version != 2 || s.CounterLags[1].SumLag != 7 {
		t.Fatalf("lags: %+v", s.CounterLags)
	}
	if s.EventsRecorded != 1 {
		t.Fatalf("events recorded = %d", s.EventsRecorded)
	}

	// GC of old lag gauges.
	r.DropLagsBelow(4)
	if got := r.Snapshot().CounterLags; len(got) != 1 || got[0].Version != 4 {
		t.Fatalf("after DropLagsBelow: %+v", got)
	}
}

// TestNilRegistry: every method is a no-op on nil.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.ObserveTxnLatency(true, time.Second)
	r.ObserveHop(time.Second)
	r.ObserveExec(time.Second)
	r.ObserveAdvance([4]time.Duration{}, 0, 0)
	r.Inc(CtrDualWrites, 1)
	r.SetGauge("g", 1)
	r.SetCounterLag(CounterLag{})
	r.DropLagsBelow(10)
	r.RecordEvent(Event{})
	if r.SampleTick() {
		t.Fatal("nil registry sampled true")
	}
	if s := r.Snapshot(); s.Counters != nil || s.TxnRead.Count != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	if r.Events() != nil {
		t.Fatal("nil registry returned events")
	}
}

// TestWritePrometheus checks the exposition contains the advertised
// families with correct label shapes.
func TestWritePrometheus(t *testing.T) {
	r := New(Options{})
	r.ObserveTxnLatency(true, time.Millisecond)
	r.ObserveAdvance([4]time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}, 4*time.Millisecond, 3)
	r.SetGauge(GaugeVersionRead, 1)
	r.SetGauge(GaugeVersionUpdate, 2)
	r.SetCounterLag(CounterLag{Version: 2, SumLag: 5, MaxPairLag: 1})
	r.SetCounterLag(CounterLag{Part: 1, Version: 2, SumLag: 7, MaxPairLag: 2})
	r.SetGauge(PartitionVersionGauge(0), 3)
	r.SetGauge(PartitionVersionGauge(1), 4)

	var sb strings.Builder
	WritePrometheus(&sb, r.Snapshot())
	out := sb.String()
	for _, want := range []string{
		`threev_txn_latency_seconds{kind="read",quantile="0.5"}`,
		`threev_txn_latency_seconds_count{kind="update"} 0`,
		`threev_subtxn_hop_seconds{quantile="0.99"}`,
		`threev_subtxn_hop_seconds_count 0`,
		`threev_advance_phase_seconds{phase="4",quantile="1"}`,
		`threev_advance_sweeps{quantile="1"} 3`,
		`threev_events_total{event="advancements"} 1`,
		"threev_version_read 1\n",
		"threev_version_update 2\n",
		`threev_counter_lag{part="0",version="2",stat="sum"} 5`,
		`threev_counter_lag{part="0",version="2",stat="max_pair"} 1`,
		`threev_counter_lag{part="1",version="2",stat="sum"} 7`,
		`threev_partition_version{part="0"} 3`,
		`threev_partition_version{part="1"} 4`,
		"threev_eventlog_recorded_total 0",
		`threev_txn_stage_seconds{stage="wire",quantile="0.5"}`,
		`threev_txn_stage_seconds_count{stage="fsync"} 0`,
		"threev_trace_spans_recorded_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// No empty label set artifacts.
	if strings.Contains(out, "{}") {
		t.Fatalf("exposition contains empty label braces:\n%s", out)
	}
}

// TestReplicationMetricsExposition pins the replica-group metric
// surface: the replication counters land under threev_events_total with
// their documented event names — deterministic (no cluster, no clock).
// Replica lag has no gauge of its own: replica children are counted
// subtransactions, so it is part of threev_counter_lag.
func TestReplicationMetricsExposition(t *testing.T) {
	r := New(Options{})
	r.Inc(CtrReplSends, 7)
	r.Inc(CtrReplApplies, 5)

	snap := r.Snapshot()
	for name, want := range map[string]int64{
		"repl_sends":   7,
		"repl_applies": 5,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("counter %q = %d, want %d", name, got, want)
		}
	}

	var sb strings.Builder
	WritePrometheus(&sb, snap)
	out := sb.String()
	for _, want := range []string{
		`threev_events_total{event="repl_sends"} 7`,
		`threev_events_total{event="repl_applies"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Owner groups have no leader, so there is no promotion to count.
	if strings.Contains(out, "promotions") {
		t.Fatalf("exposition still counts promotions:\n%s", out)
	}
}
