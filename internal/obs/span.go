package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing half of the observability layer:
// a compact trace context that rides network frames, a bounded
// lock-free span ring per registry, per-stage latency attribution for
// sampled root transactions, and assembly of recorded spans into causal
// trees for the /traces.json endpoint.
//
// Identifier scheme (all uint64, all nonzero when meaningful):
//
//   - transaction trace ids are the transaction id itself
//     (origin<<48|seq, bits 62/63 clear), so a trace is findable from a
//     log line with no extra lookup;
//   - span ids minted by NextSpanID set bit 62 (1<<62 | node<<48 | seq),
//     so they can never collide with a root span id, which equals the
//     trace id;
//   - advancement-sweep trace ids set bit 63, so sweep traces can never
//     merge with transaction traces during assembly.

// TraceContext is the compact causal context carried across processes
// in the wire codec's frame header: which trace the message belongs to
// and which span caused it. The zero value means "not sampled" — the
// sampling bit is TraceID != 0, so an untraced message costs only its
// header's flags byte on the wire.
type TraceContext struct {
	TraceID uint64
	// SpanID is the sender-side span that caused this message; the
	// receiver uses it as the parent of whatever span it records.
	SpanID uint64
}

// Sampled reports whether the context carries a live trace.
func (tc TraceContext) Sampled() bool { return tc.TraceID != 0 }

// SpanStage is one named sub-interval of a span (queue wait, fsync
// barrier, ...). Dur is nanoseconds except where a span's documentation
// says otherwise.
type SpanStage struct {
	Name string `json:"name"`
	Dur  int64  `json:"dur_ns"`
}

// Span is one recorded interval of a trace. It is flat and
// wire-friendly (core ships spans home in SpanReportMsg frames);
// assembly into trees happens at read time.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Name identifies the interval: "txn" (root, submit→completion),
	// "subtxn"/"query"/"compensate" (one execution), "advance" and
	// "phase1".."phase4" (sweeps).
	Name string `json:"name"`
	// Node is the recording endpoint (database node id, or the
	// coordinator id for sweep spans).
	Node  int   `json:"node"`
	Start int64 `json:"start_unix_ns"`
	Dur   int64 `json:"dur_ns"`
	// Attr is a small free-form annotation ("t0.42 committed",
	// "sweeps=3").
	Attr   string      `json:"attr,omitempty"`
	Stages []SpanStage `json:"stages,omitempty"`
}

// SpanRing is a bounded lock-free span store: writers claim a slot with
// one atomic add and publish with one atomic pointer store, so
// recording never contends on a mutex (unlike the EventLog, whose
// mutex is fine for its sampled, lower-rate traffic). Old spans are
// overwritten once the ring laps; readers may observe a torn window
// (miss a span being overwritten mid-scan) but never a torn span.
type SpanRing struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Span]
}

// NewSpanRing builds a ring holding up to capacity spans (minimum 64).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 64 {
		capacity = 64
	}
	return &SpanRing{slots: make([]atomic.Pointer[Span], capacity)}
}

// Record publishes one span. Safe for unsynchronized concurrent use.
func (r *SpanRing) Record(s Span) {
	if r == nil {
		return
	}
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(&s)
}

// Recorded returns the total number of spans ever recorded (including
// ones the ring has since overwritten).
func (r *SpanRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Dump returns the retained spans, oldest first.
func (r *SpanRing) Dump() []Span {
	if r == nil {
		return nil
	}
	n := r.pos.Load()
	cap64 := uint64(len(r.slots))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Span, 0, n-start)
	for i := start; i < n; i++ {
		if p := r.slots[i%cap64].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// TraceSpan is one node of an assembled trace tree.
type TraceSpan struct {
	Span
	Children []*TraceSpan `json:"children,omitempty"`
}

// Trace is one assembled causal tree.
type Trace struct {
	TraceID uint64 `json:"trace_id"`
	// Root is the tree (nil when the root span was never recorded or
	// was overwritten; the trace is then incomplete by definition).
	Root *TraceSpan `json:"root,omitempty"`
	// Spans counts every span recorded for this trace; Orphans counts
	// spans whose parent span is missing (excluding the root itself).
	Spans   int `json:"spans"`
	Orphans int `json:"orphans"`
	// Complete: a root exists and every other span hangs off it.
	Complete bool  `json:"complete"`
	DurNS    int64 `json:"dur_ns"`
}

// AssembleTraces groups spans by trace id and links parents to
// children. Orphan spans (parent missing — lost report, lapped ring)
// are kept as extra roots under no parent and counted, so incomplete
// traces are visible rather than silently pretty. Traces are returned
// newest-root-first; children are sorted by start time.
func AssembleTraces(spans []Span) []Trace {
	byTrace := make(map[uint64][]*TraceSpan)
	for i := range spans {
		s := &TraceSpan{Span: spans[i]}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]Trace, 0, len(byTrace))
	for tid, nodes := range byTrace {
		byID := make(map[uint64]*TraceSpan, len(nodes))
		for _, n := range nodes {
			byID[n.SpanID] = n
		}
		t := Trace{TraceID: tid, Spans: len(nodes)}
		for _, n := range nodes {
			if n.ParentID != 0 {
				if p, ok := byID[n.ParentID]; ok && p != n {
					p.Children = append(p.Children, n)
					continue
				}
			}
			// No parent recorded: the trace root (ParentID 0) or an
			// orphan.
			if n.ParentID == 0 && t.Root == nil {
				t.Root = n
			} else {
				t.Orphans++
			}
		}
		for _, n := range nodes {
			sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Start < n.Children[j].Start })
		}
		if t.Root != nil {
			t.DurNS = t.Root.Dur
		}
		t.Complete = t.Root != nil && t.Orphans == 0
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		var si, sj int64
		if out[i].Root != nil {
			si = out[i].Root.Start
		}
		if out[j].Root != nil {
			sj = out[j].Root.Start
		}
		if si != sj {
			return si > sj
		}
		return out[i].TraceID > out[j].TraceID
	})
	return out
}

// Latency-stage indices for the per-stage attribution histograms. The
// first five stages partition a sampled root transaction's end-to-end
// latency exactly (StageTotal): wire transit of the root
// subtransaction, its queue wait, its service time, and everything
// after its execution until the completion edge (subtree + acks).
// StageFsync is a sub-interval of StageService and StageSession a
// sub-interval of StageWire; neither joins the partition sum.
const (
	StageWire    = iota // root subtxn: send → session delivery
	StageQueue          // root subtxn: delivery → worker pickup
	StageService        // root subtxn: worker execution (fsync included)
	StageAck            // root exec end → completion observed at the handle
	StageTotal          // submit → completion (same sampled population)
	StageFsync          // durability barrier inside StageService
	StageSession        // reliable-session reorder hold inside StageWire
	NumStages
)

// StageNames are the exposition labels, index-aligned with the Stage
// constants.
var StageNames = [NumStages]string{"wire", "queue", "service", "ack", "total", "fsync", "session"}

// rootExec is the root subtransaction's stage breakdown, parked by the
// executing node until the completion edge merges it into the root
// span (the two happen on different goroutines in general, but the
// node's report always happens-before completion).
type rootExec struct {
	node                        int
	wire, queue, service, fsync time.Duration
	execEnd                     time.Time
}

// tracer is the Registry's tracing state; nil when tracing is disabled
// (TraceSampleN == 0), so the disabled path costs one nil check.
type tracer struct {
	sampleN int64
	slow    time.Duration
	tick    atomic.Int64
	spanSeq atomic.Uint64
	ring    *SpanRing

	stages [NumStages]Histogram

	pendMu sync.Mutex
	pend   map[uint64]rootExec

	hookMu sync.Mutex
	slow1  func(Span)
}

// TraceEnabled reports whether span recording is on (a registry built
// with Options.TraceSampleN > 0).
func (r *Registry) TraceEnabled() bool {
	return r != nil && r.trace != nil
}

// TraceSampleTick makes one head-sampling decision: true for 1 in
// TraceSampleN calls (always true when TraceSampleN is 1). False on a
// nil or trace-disabled registry.
func (r *Registry) TraceSampleTick() bool {
	if r == nil || r.trace == nil {
		return false
	}
	return r.trace.tick.Add(1)%r.trace.sampleN == 1%r.trace.sampleN
}

// NextSpanID mints a process-unique span id namespaced by the minting
// endpoint (bit 62 set, see the id scheme above). Zero on a
// trace-disabled registry.
func (r *Registry) NextSpanID(node int) uint64 {
	if r == nil || r.trace == nil {
		return 0
	}
	return 1<<62 | uint64(node+1)<<48 | (r.trace.spanSeq.Add(1) & (1<<48 - 1))
}

// RecordSpan publishes one completed span into the ring.
func (r *Registry) RecordSpan(s Span) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.ring.Record(s)
}

// SpansRecorded returns the total spans ever recorded here.
func (r *Registry) SpansRecorded() uint64 {
	if r == nil || r.trace == nil {
		return 0
	}
	return r.trace.ring.Recorded()
}

// ObserveStage records one value into a stage-attribution histogram.
func (r *Registry) ObserveStage(stage int, d time.Duration) {
	if r == nil || r.trace == nil || stage < 0 || stage >= NumStages {
		return
	}
	r.trace.stages[stage].ObserveDuration(d)
}

// TraceRootExec parks the root subtransaction's stage breakdown for
// traceID until TraceTxnDone merges it into the root span. Called by
// the executing node strictly before it reports the root done, so the
// breakdown is always parked before the completion edge can fire.
func (r *Registry) TraceRootExec(traceID uint64, node int, wire, queue, service, fsync time.Duration, execEnd time.Time) {
	if r == nil || r.trace == nil {
		return
	}
	t := r.trace
	t.pendMu.Lock()
	if t.pend == nil {
		t.pend = make(map[uint64]rootExec)
	}
	if len(t.pend) > 65536 {
		// Backstop against handles that never complete; sampled
		// transactions all complete in practice.
		t.pend = make(map[uint64]rootExec)
	}
	t.pend[traceID] = rootExec{node: node, wire: wire, queue: queue, service: service, fsync: fsync, execEnd: execEnd}
	t.pendMu.Unlock()
}

// SetSlowTraceHook installs fn to be called (synchronously, on the
// completion path) with the root span of every transaction whose
// end-to-end latency reached Options.TraceSlow. Used by threev-node's
// slow-transaction log line.
func (r *Registry) SetSlowTraceHook(fn func(Span)) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.hookMu.Lock()
	r.trace.slow1 = fn
	r.trace.hookMu.Unlock()
}

// TraceTxnDone closes out one completed transaction: head-sampled
// transactions get their root span (stages merged from TraceRootExec)
// recorded and the stage histograms fed; unsampled transactions whose
// latency reached the slow threshold get a post-hoc root-only span, so
// outliers appear in /traces.json?slow=... even at low sample rates.
// It reports whether the transaction was slow.
func (r *Registry) TraceTxnDone(traceID uint64, node int, sampled bool, submitted time.Time, total time.Duration, attr string) (slow bool) {
	if r == nil || r.trace == nil {
		return false
	}
	t := r.trace
	slow = t.slow > 0 && total >= t.slow
	if !sampled && !slow {
		return false
	}
	sp := Span{
		TraceID: traceID,
		SpanID:  traceID, // root span id == trace id by convention
		Name:    "txn",
		Node:    node,
		Start:   submitted.UnixNano(),
		Dur:     int64(total),
		Attr:    attr,
	}
	if sampled {
		t.pendMu.Lock()
		re, ok := t.pend[traceID]
		delete(t.pend, traceID)
		t.pendMu.Unlock()
		if ok {
			ack := total - (re.wire + re.queue + re.service)
			if ack < 0 {
				ack = 0
			}
			sp.Stages = []SpanStage{
				{Name: StageNames[StageWire], Dur: int64(re.wire)},
				{Name: StageNames[StageQueue], Dur: int64(re.queue)},
				{Name: StageNames[StageService], Dur: int64(re.service)},
				{Name: StageNames[StageAck], Dur: int64(ack)},
				{Name: StageNames[StageFsync], Dur: int64(re.fsync)},
			}
			t.stages[StageWire].ObserveDuration(re.wire)
			t.stages[StageQueue].ObserveDuration(re.queue)
			t.stages[StageService].ObserveDuration(re.service)
			t.stages[StageAck].ObserveDuration(ack)
			t.stages[StageTotal].ObserveDuration(total)
			t.stages[StageFsync].ObserveDuration(re.fsync)
		}
	}
	if slow {
		sp.Attr += " slow"
		t.hookMu.Lock()
		fn := t.slow1
		t.hookMu.Unlock()
		if fn != nil {
			fn(sp)
		}
	}
	t.ring.Record(sp)
	return slow
}

// Traces assembles every span currently retained in the ring.
func (r *Registry) Traces() []Trace {
	if r == nil || r.trace == nil {
		return nil
	}
	return AssembleTraces(r.trace.ring.Dump())
}
