package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter indices for Registry.Inc / Snapshot.Counters.
const (
	CtrTxnsSubmitted = iota
	CtrTxnsCommitted
	CtrTxnsCompensated
	CtrTxnsAborted
	CtrAdvancements
	CtrDualWrites
	CtrCoordResends
	CtrCheckpoints
	CtrTakeovers
	CtrStaleTermRejects
	CtrReplSends
	CtrReplApplies
	numCounters
)

// counterNames are the exposition names, index-aligned with the Ctr
// constants.
var counterNames = [numCounters]string{
	"txns_submitted",
	"txns_committed",
	"txns_compensated",
	"txns_aborted",
	"advancements",
	"dual_writes",
	"coord_resends",
	"checkpoints",
	"takeovers",
	"stale_term_rejects",
	"repl_sends",
	"repl_applies",
}

// Gauge names set by the protocol layers.
const (
	GaugeVersionRead   = "version_read"
	GaugeVersionUpdate = "version_update"
	// Transport-level accounting, refreshed from transport.Stats at
	// snapshot time: messages lost to fault injection (drops +
	// partition blackholing), injected duplicates, and the reliable
	// session layer's repair work (retransmissions sent, duplicate
	// frames discarded at receivers).
	GaugeNetDropped     = "transport_dropped"
	GaugeNetDuplicated  = "transport_duplicated"
	GaugeNetRetransmits = "transport_retransmits"
	GaugeNetDupDropped  = "transport_dup_dropped"
	// Real-network accounting (tcpnet transport only): frame bytes on
	// the wire and outbound connections re-dialed after a failure.
	GaugeNetBytesSent     = "net_bytes_sent"
	GaugeNetBytesReceived = "net_bytes_received"
	GaugeNetReconnects    = "net_reconnects"
	// Durability accounting (wal package): the active segment index and
	// the total bytes appended to the log since open.
	GaugeWALSegment = "wal_segment"
	GaugeWALBytes   = "wal_bytes_appended"
	// Failover accounting: the highest coordinator fencing term this
	// process has observed (0 until a fenced coordinator speaks), and
	// whether a locally hosted manager currently holds the active
	// coordinator role (1) or all local managers are standbys (0).
	GaugeCoordTerm   = "coord_term"
	GaugeCoordActive = "coord_active"
	// Batching accounting: total link flushes and the mean number of
	// messages coalesced per flush (1.0 means no coalescing happened).
	// Derived from the batch-size histogram at snapshot time.
	GaugeNetFlushes       = "net_flushes"
	GaugeNetBatchMeanSize = "net_batch_mean_size"
)

// PartitionVersionGauge names the per-partition read-version gauge
// ("partition_version_p<part>", exposed as threev_partition_version_p<part>).
// Partitioned clusters publish one per partition next to the legacy
// global version_read/version_update pair, which track partition 0.
func PartitionVersionGauge(part int) string {
	return fmt.Sprintf("partition_version_p%d", part)
}

// CounterLag is one sampled observation of the quiescence quantity for
// a version v: how far the request counters R[v][p][q] run ahead of the
// completion counters C[v][p][q]. Quiescence (advancement Phases 2/4)
// is exactly SumLag == 0 twice in a row.
type CounterLag struct {
	// Part is the partition whose counter matrix was sampled (always 0
	// in unpartitioned clusters; each partition's matrix is independent).
	Part    int   `json:"part,omitempty"`
	Version int64 `json:"version"`
	// SumLag is Σ_pq (R[v][p][q] − C[v][p][q]).
	SumLag int64 `json:"sum_lag"`
	// MaxPairLag is max_pq (R[v][p][q] − C[v][p][q]).
	MaxPairLag int64 `json:"max_pair_lag"`
}

// Options configures a Registry.
type Options struct {
	// EventCapacity bounds the event ring; 0 means 4096.
	EventCapacity int
	// EventSampleN keeps 1 in N transaction-level events; 0 means 16.
	// Protocol-level events (version switches, GC, advancement phases)
	// are always recorded.
	EventSampleN int
	// TraceSampleN enables distributed tracing (span recording, stage
	// attribution, /traces.json) and head-samples 1 in N submitted
	// transactions (1 = every transaction). 0 — the default — disables
	// tracing entirely: no span ring is allocated and no trace context is
	// stamped on messages, so every frame header carries flags 0.
	TraceSampleN int
	// TraceSlow, when positive, post-hoc records a root-only span for
	// every transaction (sampled or not) whose end-to-end latency
	// reaches it, and fires the slow-trace hook. Tracing must be
	// enabled (TraceSampleN > 0).
	TraceSlow time.Duration
	// TraceCapacity bounds the span ring; 0 means 4096 spans.
	TraceCapacity int
}

// Registry is the per-cluster observability hub. All methods are safe
// for concurrent use and all are no-ops on a nil receiver.
type Registry struct {
	txnRead    Histogram // end-to-end read txn latency (ns)
	txnUpdate  Histogram // end-to-end update txn latency (ns)
	subtxnHop  Histogram // send → execution-start per-hop latency (ns)
	subtxnExec Histogram // subtransaction service time (ns)

	advPhase  [4]Histogram // advancement phase wall time (ns)
	advTotal  Histogram    // full cycle wall time (ns)
	advSweeps Histogram    // counter sweeps per cycle (count)

	wireEncode Histogram // frame encode time (ns; tcpnet only)
	wireDecode Histogram // frame decode time (ns; tcpnet only)

	batchSize  Histogram // messages coalesced per link flush (count)
	batchLinks sync.Map  // link label ("from→to" / peer addr) -> *Histogram

	walAppend Histogram // WAL record append time (ns; durable nodes only)
	walFsync  Histogram // WAL fsync/group-commit time (ns; durable nodes only)

	counters [numCounters]atomic.Int64

	events *EventLog
	trace  *tracer // nil when tracing is disabled (TraceSampleN == 0)

	mu     sync.Mutex
	gauges map[string]float64
	lags   map[lagKey]CounterLag
}

// lagKey identifies one lag gauge: a (partition, version) pair.
type lagKey struct {
	part    int
	version int64
}

// New builds a Registry.
func New(opts Options) *Registry {
	cap := opts.EventCapacity
	if cap <= 0 {
		cap = 4096
	}
	sample := opts.EventSampleN
	if sample <= 0 {
		sample = 16
	}
	r := &Registry{
		events: NewEventLog(cap, sample),
		gauges: make(map[string]float64),
		lags:   make(map[lagKey]CounterLag),
	}
	if opts.TraceSampleN > 0 {
		spanCap := opts.TraceCapacity
		if spanCap <= 0 {
			spanCap = 4096
		}
		r.trace = &tracer{
			sampleN: int64(opts.TraceSampleN),
			slow:    opts.TraceSlow,
			ring:    NewSpanRing(spanCap),
		}
	}
	return r
}

// ObserveTxnLatency records one completed transaction's end-to-end
// latency.
func (r *Registry) ObserveTxnLatency(readOnly bool, d time.Duration) {
	if r == nil {
		return
	}
	if readOnly {
		r.txnRead.ObserveDuration(d)
	} else {
		r.txnUpdate.ObserveDuration(d)
	}
}

// ObserveHop records the send→execution-start latency of one
// subtransaction RPC.
func (r *Registry) ObserveHop(d time.Duration) {
	if r == nil {
		return
	}
	r.subtxnHop.ObserveDuration(d)
}

// ObserveExec records one subtransaction's local service time.
func (r *Registry) ObserveExec(d time.Duration) {
	if r == nil {
		return
	}
	r.subtxnExec.ObserveDuration(d)
}

// ObserveAdvance records one completed advancement cycle's per-phase
// wall times and total sweep count, and bumps the advancement counter.
func (r *Registry) ObserveAdvance(phases [4]time.Duration, total time.Duration, sweeps int) {
	if r == nil {
		return
	}
	for i, d := range phases {
		r.advPhase[i].ObserveDuration(d)
	}
	r.advTotal.ObserveDuration(total)
	r.advSweeps.Observe(int64(sweeps))
	r.counters[CtrAdvancements].Add(1)
}

// ObserveWireEncode records one frame's binary-encode latency (tcpnet
// sender path).
func (r *Registry) ObserveWireEncode(d time.Duration) {
	if r == nil {
		return
	}
	r.wireEncode.ObserveDuration(d)
}

// ObserveWireDecode records one frame's binary-decode latency (tcpnet
// receiver path).
func (r *Registry) ObserveWireDecode(d time.Duration) {
	if r == nil {
		return
	}
	r.wireDecode.ObserveDuration(d)
}

// ObserveBatchSize records one link flush of n coalesced messages.
// link labels the directed link ("0→2" for in-process transports, the
// peer address for tcpnet); every transport that batches feeds this,
// so the snapshot proves — per link — that coalescing actually
// happened (a mean of 1.0 means it did not).
func (r *Registry) ObserveBatchSize(link string, n int) {
	if r == nil {
		return
	}
	r.batchSize.Observe(int64(n))
	if h, ok := r.batchLinks.Load(link); ok {
		h.(*Histogram).Observe(int64(n))
		return
	}
	h, _ := r.batchLinks.LoadOrStore(link, &Histogram{})
	h.(*Histogram).Observe(int64(n))
}

// ObserveWALAppend records one WAL record's append (frame + buffered
// write) latency.
func (r *Registry) ObserveWALAppend(d time.Duration) {
	if r == nil {
		return
	}
	r.walAppend.ObserveDuration(d)
}

// ObserveWALFsync records one fsync (group-commit flush) latency on the
// WAL's active segment.
func (r *Registry) ObserveWALFsync(d time.Duration) {
	if r == nil {
		return
	}
	r.walFsync.ObserveDuration(d)
}

// Inc bumps one of the Ctr* counters by delta.
func (r *Registry) Inc(counter int, delta int64) {
	if r == nil || counter < 0 || counter >= numCounters {
		return
	}
	r.counters[counter].Add(delta)
}

// SetGauge publishes a named gauge value.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// SetCounterLag publishes the latest lag observation for a
// (partition, version) pair.
func (r *Registry) SetCounterLag(l CounterLag) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lags[lagKey{l.Part, l.Version}] = l
	r.mu.Unlock()
}

// DropLagsBelow forgets lag gauges for versions below v in every
// partition (mirroring the protocol's counter garbage collection).
func (r *Registry) DropLagsBelow(v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for k := range r.lags {
		if k.version < v {
			delete(r.lags, k)
		}
	}
	r.mu.Unlock()
}

// DropPartLagsBelow forgets one partition's lag gauges for versions
// below v; the partitioned coordinator calls it after each sweep so a
// partition's GC never erases another partition's live gauges.
func (r *Registry) DropPartLagsBelow(part int, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for k := range r.lags {
		if k.part == part && k.version < v {
			delete(r.lags, k)
		}
	}
	r.mu.Unlock()
}

// SampleTick reports whether a sampled (transaction-level) event should
// be recorded now. Returns false on a nil registry, so callers can skip
// building the Event entirely.
func (r *Registry) SampleTick() bool {
	if r == nil {
		return false
	}
	return r.events.SampleTick()
}

// RecordEvent appends an event to the ring (always; pair with
// SampleTick for high-frequency kinds).
func (r *Registry) RecordEvent(e Event) {
	if r == nil {
		return
	}
	r.events.Record(e)
}

// Events returns the retained event-log entries oldest-first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events.Dump()
}

// Snapshot is a point-in-time, JSON-serializable view of the whole
// registry — the value ClusterMetrics.Obs carries and the exposition
// endpoint serves.
type Snapshot struct {
	TxnRead    HistSnapshot `json:"txn_read"`
	TxnUpdate  HistSnapshot `json:"txn_update"`
	SubtxnHop  HistSnapshot `json:"subtxn_hop"`
	SubtxnExec HistSnapshot `json:"subtxn_exec"`

	AdvPhases [4]HistSnapshot `json:"advance_phases"`
	AdvTotal  HistSnapshot    `json:"advance_total"`
	AdvSweeps HistSnapshot    `json:"advance_sweeps"`

	WireEncode HistSnapshot `json:"wire_encode"`
	WireDecode HistSnapshot `json:"wire_decode"`

	// BatchSize is the distribution of messages coalesced per link
	// flush across every batching transport; BatchLinks breaks it down
	// by directed link (empty when batching never ran).
	BatchSize  HistSnapshot            `json:"batch_size"`
	BatchLinks map[string]HistSnapshot `json:"batch_links,omitempty"`

	WALAppend HistSnapshot `json:"wal_append"`
	WALFsync  HistSnapshot `json:"wal_fsync"`

	// Stages are the per-stage latency-attribution histograms for
	// head-sampled root transactions, index-aligned with the Stage
	// constants (wire, queue, service, ack, total, fsync, session).
	// All zero-valued when tracing is disabled.
	Stages [NumStages]HistSnapshot `json:"stages"`

	Counters    map[string]int64   `json:"counters,omitempty"`
	Gauges      map[string]float64 `json:"gauges,omitempty"`
	CounterLags []CounterLag       `json:"counter_lags,omitempty"`

	EventsRecorded uint64 `json:"events_recorded"`
	SpansRecorded  uint64 `json:"spans_recorded"`
}

// Snapshot captures the registry. A nil registry yields a zero value.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.TxnRead = r.txnRead.Snapshot()
	s.TxnUpdate = r.txnUpdate.Snapshot()
	s.SubtxnHop = r.subtxnHop.Snapshot()
	s.SubtxnExec = r.subtxnExec.Snapshot()
	for i := range r.advPhase {
		s.AdvPhases[i] = r.advPhase[i].Snapshot()
	}
	s.AdvTotal = r.advTotal.Snapshot()
	s.AdvSweeps = r.advSweeps.Snapshot()
	s.WireEncode = r.wireEncode.Snapshot()
	s.WireDecode = r.wireDecode.Snapshot()
	s.BatchSize = r.batchSize.Snapshot()
	r.batchLinks.Range(func(k, v any) bool {
		if s.BatchLinks == nil {
			s.BatchLinks = make(map[string]HistSnapshot)
		}
		s.BatchLinks[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	s.WALAppend = r.walAppend.Snapshot()
	s.WALFsync = r.walFsync.Snapshot()
	if r.trace != nil {
		for i := range r.trace.stages {
			s.Stages[i] = r.trace.stages[i].Snapshot()
		}
		s.SpansRecorded = r.trace.ring.Recorded()
	}
	s.Counters = make(map[string]int64, numCounters)
	for i := 0; i < numCounters; i++ {
		s.Counters[counterNames[i]] = r.counters[i].Load()
	}
	r.mu.Lock()
	s.Gauges = make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	s.CounterLags = make([]CounterLag, 0, len(r.lags))
	for _, l := range r.lags {
		s.CounterLags = append(s.CounterLags, l)
	}
	r.mu.Unlock()
	if s.BatchSize.Count > 0 {
		// Derived gauges so exposition (and CI's batched smoke) can
		// assert coalescing without digging into histogram buckets.
		s.Gauges[GaugeNetFlushes] = float64(s.BatchSize.Count)
		s.Gauges[GaugeNetBatchMeanSize] = s.BatchSize.Mean()
	}
	sort.Slice(s.CounterLags, func(i, j int) bool {
		if s.CounterLags[i].Part != s.CounterLags[j].Part {
			return s.CounterLags[i].Part < s.CounterLags[j].Part
		}
		return s.CounterLags[i].Version < s.CounterLags[j].Version
	})
	s.EventsRecorded = r.events.Recorded()
	return s
}
