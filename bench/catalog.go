package main

import "time"

// This file is the benchmark's declaration: the four workloads and every
// metric name, unit, direction and bound. BENCHMARK.json at the repo root
// repeats it for the driver; TestManifestMatchesList keeps the two equal.

// stackKind selects which layers of the program a workload wires together.
type stackKind int

const (
	// stackMem: one process, mem transport, no session, WAL or replication.
	stackMem stackKind = iota
	// stackDurableTCP: three single-node clusters over loopback TCP with
	// reliable sessions and one WAL per node (the threev-node wiring).
	stackDurableTCP
	// stackRepl: one process, mem transport, reliable sessions, four
	// partitions with replica groups.
	stackRepl
)

// workloadDef fixes one workload. Counts are per second of --seconds so
// that both sides of a comparison do the same work at the same run length.
type workloadDef struct {
	Name string
	Why  string

	Stack      stackKind
	Nodes      int
	Partitions int
	Groups     int
	Span       int
	// UpdateFrac is the share of transactions that are group updates; the
	// rest are reads.
	UpdateFrac float64
	// Zipf > 0 draws groups with P(g) ∝ (g+1)^-Zipf; 0 is uniform.
	Zipf float64
	// LocalReads makes a read touch only the root's node: a distributed-mode
	// handle cannot observe reads executed in another process.
	LocalReads bool

	// ClosedPerSec × seconds transactions run in the closed phase, one
	// Advance() per AdvanceEvery completions. AdvanceEvery is large enough
	// that the advancer keeps up: once advancement runs back to back, how
	// many happen depends on the phase's duration, and every count per
	// transaction (messages, copies, allocations) inherits the timing noise.
	ClosedPerSec int
	AdvanceEvery int
	// Rate is the open phase's fixed submission rate (txn/s): about a third
	// of the closed-phase rate measured on the seed for the mem workloads,
	// less where a third made p90 unsteady (README, "Workloads").
	Rate int
	// OpenAdvance spaces the Advance() calls of the open phase.
	OpenAdvance time.Duration
}

var workloads = []workloadDef{
	{
		Name:  "core-mem",
		Why:   "only core, storage, counters and transport do work: the paper's algorithm by itself, where an apply-path gain must show",
		Stack: stackMem, Nodes: 4, Partitions: 1, Groups: 4096, Span: 2, UpdateFrac: 0.8,
		ClosedPerSec: 7000, AdvanceEvery: 500, Rate: 5000, OpenAdvance: 20 * time.Millisecond,
	},
	{
		Name:  "audit-reads",
		Why:   "same stack used the other way round: 90% four-node reads under constant version switching, so an apply-path gain that taxes ReadMax shows as a loss",
		Stack: stackMem, Nodes: 4, Partitions: 1, Groups: 4096, Span: 4, UpdateFrac: 0.1,
		ClosedPerSec: 7000, AdvanceEvery: 250, Rate: 5000, OpenAdvance: 20 * time.Millisecond,
	},
	{
		Name:  "durable-tcp",
		Why:   "three single-node clusters over loopback TCP with sessions and fsync-interval WALs: wire, tcpnet, reliable, wal and durable do most of the work and the mem workloads bypass all five",
		Stack: stackDurableTCP, Nodes: 3, Partitions: 1, Groups: 4096, Span: 2, UpdateFrac: 0.9, LocalReads: true,
		ClosedPerSec: 10000, AdvanceEvery: 1000, Rate: 4000, OpenAdvance: 20 * time.Millisecond,
	},
	{
		Name:  "repl-skew",
		Why:   "sessions, four partitions and replica streams under Zipf 1.2 keys: hot keys repeat inside one flush window, the only place coalesced replication can show",
		Stack: stackRepl, Nodes: 4, Partitions: 4, Groups: 4096, Span: 2, UpdateFrac: 0.95, Zipf: 1.2,
		ClosedPerSec: 5000, AdvanceEvery: 2500, Rate: 2000, OpenAdvance: 250 * time.Millisecond,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before it is a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd: what a user of the system sees. Measured with tracing off.
//
// The counts and the two p90s keep the bounds the issue set. msgs_per_txn has
// a tenth, not 3%: it counts envelopes, and how many messages share one under
// the session layer's flush window follows the timing (2% spread on
// repl-skew). tps, the two p50s, advance_p50_ms and setup_s have the
// contract's maximum, a quarter, not a tenth: on the seed sandbox (2 vCPUs of
// a shared host) ten identical runs spread by up to 13% on tps, 8% on a p50
// and 8% on advance_p50_ms, and the builder's contract wants every spread
// below a third of its bound. README.md, "End-to-end metrics", has the
// measurements and what the issue's demotion rule would have left.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tps", "1/s", higher, 0.25},
	{"update_p50_ms", "ms", lower, 0.25},
	{"update_p90_ms", "ms", lower, 0.10},
	{"read_p50_ms", "ms", lower, 0.25},
	{"read_p90_ms", "ms", lower, 0.15},
	{"advance_p50_ms", "ms", lower, 0.25},
	{"allocs_per_txn", "count", lower, 0.02},
	{"alloc_kb_per_txn", "KB", lower, 0.05},
	{"msgs_per_txn", "count", lower, 0.10},
	{"heap_live_mb", "MB", lower, 0.10},
}

// perLayer: one module per prefix. Taken from the traced run.
var perLayer = []metricDef{
	{"driver.update_p99_ms", "ms", lower, 0},
	{"driver.update_p999_ms", "ms", lower, 0},
	{"driver.read_p99_ms", "ms", lower, 0},
	{"driver.gen_late_p99_ms", "ms", lower, 0},
	{"driver.cpu_us_per_txn", "us", lower, 0},
	{"driver.gc_cycles", "count", lower, 0},
	{"driver.gc_pause_ms_total", "ms", lower, 0},
	{"driver.trace_overhead_frac", "frac", lower, 0},

	{"core.submit_us_per_txn", "us", lower, 0},
	{"core.stage_wire_ms_p50", "ms", lower, 0},
	{"core.stage_queue_ms_p50", "ms", lower, 0},
	{"core.stage_service_ms_p50", "ms", lower, 0},
	{"core.stage_ack_ms_p50", "ms", lower, 0},
	{"core.adv_phase1_ms_p50", "ms", lower, 0},
	{"core.adv_phase2_ms_p50", "ms", lower, 0},
	{"core.adv_phase3_ms_p50", "ms", lower, 0},
	{"core.adv_phase4_ms_p50", "ms", lower, 0},
	{"core.adv_sweeps_per_advance", "count", lower, 0},
	{"core.dual_writes_per_ktxn", "count", lower, 0},
	{"core.implicit_advances_per_advance", "count", lower, 0},
	{"core.repl_sends_per_txn", "count", lower, 0},
	{"core.repl_acks_per_send", "count", lower, 0},

	{"transport.subtxn_msgs_per_txn", "count", lower, 0},
	{"transport.counter_msgs_per_advance", "count", lower, 0},
	{"transport.flushes_per_txn", "count", lower, 0},
	{"transport.mean_batch", "count", higher, 0},
	{"transport.send_ns_per_msg", "ns", lower, 0},
	{"transport.deliver_ns_per_msg", "ns", lower, 0},
	{"transport.max_queue_depth", "count", lower, 0},
	{"transport.kernel_ns_per_msg", "ns", lower, 0},

	{"reliable.acks_per_data", "count", lower, 0},
	{"reliable.retransmits", "count", lower, 0},
	{"reliable.dup_dropped", "count", lower, 0},
	{"reliable.kernel_ns_per_msg", "ns", lower, 0},

	{"wire.encode_ns_per_msg", "ns", lower, 0},
	{"wire.decode_ns_per_msg", "ns", lower, 0},
	{"wire.bytes_per_msg", "B", lower, 0},
	{"wire.allocs_per_msg", "count", lower, 0},

	{"tcpnet.bytes_per_txn", "B", lower, 0},
	{"tcpnet.frames_per_txn", "count", lower, 0},
	{"tcpnet.reconnects", "count", lower, 0},

	{"wal.records_per_txn", "count", lower, 0},
	{"wal.bytes_per_txn", "B", lower, 0},
	{"wal.fsyncs_per_txn", "count", lower, 0},
	{"wal.append_ns_per_rec", "ns", lower, 0},
	{"wal.barrier_us_p50", "us", lower, 0},

	{"durable.checkpoint_ms", "ms", lower, 0},
	{"durable.recover_ms", "ms", lower, 0},

	{"storage.copies_per_ktxn", "count", lower, 0},
	{"storage.kb_copied_per_txn", "KB", lower, 0},
	{"storage.gc_dropped_per_advance", "count", lower, 0},
	{"storage.apply_ns_per_op", "ns", lower, 0},
	{"storage.read_ns_per_op", "ns", lower, 0},
	{"storage.allocs_per_apply", "count", lower, 0},
	{"storage.gc_us_per_run", "us", lower, 0},

	{"counters.inc_ns", "ns", lower, 0},
	{"counters.snapshot_ns", "ns", lower, 0},

	{"partition.of_ns_per_key", "ns", lower, 0},
}
