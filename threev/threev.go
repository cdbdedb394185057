// Package threev is the public API of this reproduction of the 3V
// algorithm from Jagadish, Mumick & Rabinovich, "Scalable Versioning in
// Distributed Databases with Commuting Updates" (ICDE 1997).
//
// A DB is a simulated distributed database: a set of nodes, each owning
// a fragment of the data, connected by an asynchronous in-process
// network. Update transactions whose operations commute (increments,
// tuple inserts) execute with no global synchronization whatsoever;
// read-only transactions never take locks and never wait; and version
// advancement — the process that makes recent updates visible to
// readers — runs fully asynchronously with user transactions
// (Theorem 4.2 of the paper).
//
// Quick start:
//
//	db, _ := threev.Open(threev.Config{Nodes: 3})
//	defer db.Close()
//	db.Preload(1, "patient-7", map[string]int64{"due": 0})
//
//	// Record charges on two departments' databases in one transaction.
//	h, _ := db.Submit(threev.At(0).
//		Add("radiology-7", "due", 120).
//		Child(threev.At(1).Add("patient-7", "due", 80)).
//		Update())
//	h.Wait()
//
//	db.Advance() // publish version 1 to readers
//
//	q, _ := db.Submit(threev.At(1).Read("patient-7").Query())
//	q.Wait()
//	fmt.Println(q.Reads()[0].Record.Field("due")) // 80
//
// Note on layering: in this repository the protocol lives in
// internal/core and the data model in internal/model; this package
// re-exports the handful of model types a client needs. A standalone
// release would promote those packages out of internal/.
package threev

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// Re-exported model types; see the package comment on layering.
type (
	// NodeID identifies a database node.
	NodeID = model.NodeID
	// Version is a data/transaction version number.
	Version = model.Version
	// TxnID identifies a global transaction.
	TxnID = model.TxnID
	// Record is a versioned data item's value.
	Record = model.Record
	// Tuple is one entry of a record's append-only log.
	Tuple = model.Tuple
	// ReadResult is one read observation returned by a query.
	ReadResult = model.ReadResult
	// TxnSpec is the explicit transaction-tree form accepted by Submit;
	// most callers use the Sub builder instead.
	TxnSpec = model.TxnSpec
	// Handle observes a submitted transaction.
	Handle = core.Handle
	// Status is a transaction outcome.
	Status = core.Status
	// AdvanceReport describes one version-advancement cycle.
	AdvanceReport = core.AdvanceReport
	// Metrics aggregates cluster accounting.
	Metrics = core.ClusterMetrics
	// ObsSnapshot is a point-in-time view of the observability layer:
	// latency histograms, phase timers, counters, gauges, counter lag.
	ObsSnapshot = obs.Snapshot
	// ObsEvent is one structured protocol event from the event log.
	ObsEvent = obs.Event
)

// Transaction outcomes (re-exported).
const (
	StatusPending     = core.StatusPending
	StatusCommitted   = core.StatusCommitted
	StatusCompensated = core.StatusCompensated
	StatusAborted     = core.StatusAborted
)

// Config parameterizes Open.
type Config struct {
	// Nodes is the number of database nodes (required).
	Nodes int
	// NonCommuting enables the NC3V extension, admitting transactions
	// built with Set/Scale that do not commute. It adds commute-lock
	// acquisition to well-behaved update transactions (never a wait
	// unless a non-commuting transaction is active).
	NonCommuting bool
	// LockWait bounds NC3V lock waits; 0 means one second.
	LockWait time.Duration
	// NetworkLatency and NetworkJitter shape the simulated network;
	// jitter > 0 allows message reordering.
	NetworkLatency time.Duration
	NetworkJitter  time.Duration
	// Seed makes jitter reproducible; 0 selects a fixed default. Fault
	// injection draws from the same seeded source.
	Seed int64
	// Faults injects network faults (drops, duplicates, partitions,
	// extra delay) per directed link; the zero value injects nothing.
	// Any nonzero drop rate requires Reliable, or the protocol can
	// wedge on a lost message.
	Faults transport.Faults
	// Reliable interposes the reliable-delivery session layer
	// (sequence numbers, dedup, cumulative acks, retransmission)
	// between the protocol and the network, restoring exactly-once
	// FIFO delivery over a faulty network.
	Reliable bool
	// ReliableConfig tunes retransmission when Reliable is set; the
	// zero value selects defaults.
	ReliableConfig reliable.Config
	// AckTimeout bounds every coordinator wait on node responses; when
	// exceeded, Advance returns a report with Err set (core.ErrTimeout)
	// instead of blocking forever. 0 means wait forever, the paper's
	// reliable-network behaviour.
	AckTimeout time.Duration
	// ResendInterval makes the coordinator re-broadcast unanswered
	// (idempotent) notices to silent nodes on this period; 0 means
	// never.
	ResendInterval time.Duration
	// Batching turns on end-to-end hot-path batching: each link's
	// messages leave as batched envelopes per 50µs flush window — in the
	// network, or with Reliable in the reliable session alone, whose
	// flushes carry its delayed acks (ReliableConfig.FlushInterval, when
	// set, replaces the 50µs there) — node workers admit work in chunks
	// of 64 that share one WAL barrier (except under NonCommuting, where
	// chunked admission is disabled), and the coordinator's quiescence
	// sweeps use the batched counter protocol. Advancement traffic is
	// exempt from the window: its notices, counter sweeps and replies
	// flush their link at once, so a version switch takes no longer with
	// Batching on. So is anything a node sends to itself.
	Batching bool
}

// Batching's flush window and admission chunk size (see Config.Batching).
const (
	batchWindow = 50 * time.Microsecond
	execChunk   = 64
)

// DB is a running 3V database.
type DB struct {
	cluster *core.Cluster

	autoMu   sync.Mutex
	autoStop chan struct{}
	autoWG   sync.WaitGroup
	policy   *policyLoop
}

// Open builds and starts a DB.
func Open(cfg Config) (*DB, error) {
	nc := transport.Config{
		BaseLatency: cfg.NetworkLatency,
		Jitter:      cfg.NetworkJitter,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
	}
	chunk := 0
	if cfg.Batching {
		nc.BatchWindow = batchWindow
		if !cfg.NonCommuting {
			chunk = execChunk
		}
	}
	c, err := core.NewCluster(core.Config{
		Nodes:           cfg.Nodes,
		NCMode:          cfg.NonCommuting,
		LockWait:        cfg.LockWait,
		Reliable:        cfg.Reliable,
		ReliableConfig:  cfg.ReliableConfig,
		AckTimeout:      cfg.AckTimeout,
		ResendInterval:  cfg.ResendInterval,
		ExecChunk:       chunk,
		BatchedCounters: cfg.Batching,
		NetConfig:       nc,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{cluster: c}
	c.Start()
	return db, nil
}

// Close stops auto-advancement and any policy loop, then shuts the
// database down. Wait for outstanding handles first.
func (db *DB) Close() {
	db.StopAutoAdvance()
	db.StopPolicy()
	db.cluster.Close()
}

// Preload installs an initial version-0 record at a node; call before
// submitting transactions that touch it. (Items can also be created on
// first write.)
func (db *DB) Preload(node NodeID, key string, fields map[string]int64) {
	rec := model.NewRecord()
	for k, v := range fields {
		rec.Fields[k] = v
	}
	db.cluster.Preload(node, key, rec)
}

// Submit validates and launches a transaction built with the Sub
// builder (or an explicit TxnSpec via SubmitSpec).
func (db *DB) Submit(spec *TxnSpec) (*Handle, error) {
	return db.cluster.Submit(spec)
}

// SubmitBatch validates and launches a group of transactions in one
// admission flush: all specs are validated before any is launched, and
// roots bound for the same node travel in one batched envelope.
// Semantically equivalent to a loop of Submit calls — each member is
// still an independent transaction with its own handle — but the hot
// path pays per-destination, not per-transaction, costs.
func (db *DB) SubmitBatch(specs []*TxnSpec) ([]*Handle, error) {
	return db.cluster.SubmitBatch(specs)
}

// Advance runs one version-advancement cycle: new updates start
// accumulating in a fresh version, the previous update version is
// published to readers once globally consistent, and superseded
// versions are garbage collected. It blocks until the cycle completes
// but never delays any user transaction.
func (db *DB) Advance() AdvanceReport {
	return db.cluster.Advance()
}

// StartAutoAdvance runs Advance on a fixed interval until
// StopAutoAdvance or Close — the paper's "advance versions every hour"
// policy, at simulation timescales.
func (db *DB) StartAutoAdvance(interval time.Duration) {
	db.autoMu.Lock()
	defer db.autoMu.Unlock()
	if db.autoStop != nil {
		return
	}
	stop := make(chan struct{})
	db.autoStop = stop
	db.autoWG.Add(1)
	go func() {
		defer db.autoWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				db.cluster.Advance()
			}
		}
	}()
}

// StopAutoAdvance halts the auto-advancement loop, waiting for any
// in-flight cycle to finish.
func (db *DB) StopAutoAdvance() {
	db.autoMu.Lock()
	stop := db.autoStop
	db.autoStop = nil
	db.autoMu.Unlock()
	if stop != nil {
		close(stop)
		db.autoWG.Wait()
	}
}

// Versions returns the coordinator's view of the current (read, update)
// versions.
func (db *DB) Versions() (vr, vu Version) {
	return db.cluster.Coordinator().Versions()
}

// Metrics returns a snapshot of protocol, storage and transport
// accounting.
func (db *DB) Metrics() Metrics { return db.cluster.Metrics() }

// Obs returns a snapshot of the observability layer: transaction and
// per-hop latency quantiles, advancement phase timings, protocol event
// counters, version gauges and live counter-lag samples.
func (db *DB) Obs() ObsSnapshot { return db.cluster.ObsSnapshot() }

// ObsEvents returns the retained structured protocol events
// (oldest first).
func (db *DB) ObsEvents() []ObsEvent { return db.cluster.ObsEvents() }

// AdvanceHistory returns reports of all completed advancement cycles.
func (db *DB) AdvanceHistory() []AdvanceReport {
	return db.cluster.Coordinator().History()
}

// Violations returns any recorded protocol-invariant violations; a
// correct run returns nil.
func (db *DB) Violations() []string { return db.cluster.Violations() }

// ConvergenceErrors checks, once activity has drained, that every node
// agrees with the coordinator on (vr, vu) and that all live counter
// matrices balance. Nil means the cluster converged — the property a
// chaos run must restore after faults heal.
func (db *DB) ConvergenceErrors() []string { return db.cluster.ConvergenceErrors() }

// Faults returns the runtime fault controls of the underlying network
// (nil if the transport does not inject faults — e.g. a custom
// scripted transport).
func (db *DB) Faults() transport.FaultInjector {
	if fi, ok := db.cluster.Network().(transport.FaultInjector); ok {
		return fi
	}
	return nil
}

// MaxLiveVersions returns the largest number of simultaneously live
// versions any item ever had (the paper bounds it by three).
func (db *DB) MaxLiveVersions() int { return db.cluster.MaxLiveVersionsEver() }

// Cluster exposes the underlying core cluster for advanced
// instrumentation (benchmark harness, verifiers).
func (db *DB) Cluster() *core.Cluster { return db.cluster }

// Sub builds one subtransaction of a transaction tree. Builders are
// single-use: Build/Update/Query consume them.
type Sub struct {
	spec *model.SubtxnSpec
}

// At starts a subtransaction executing on the given node.
func At(node NodeID) *Sub {
	return &Sub{spec: &model.SubtxnSpec{Node: node}}
}

// Read adds local keys to read.
func (s *Sub) Read(keys ...string) *Sub {
	s.spec.Reads = append(s.spec.Reads, keys...)
	return s
}

// Add applies a commuting increment to a record's summary field.
func (s *Sub) Add(key, field string, delta int64) *Sub {
	s.spec.Updates = append(s.spec.Updates, model.KeyOp{Key: key, Op: model.AddOp{Field: field, Delta: delta}})
	return s
}

// Insert appends a tuple to a record's log (a commuting recording
// operation). The caller controls the tuple's identity fields; the
// verification tooling uses Part/Total to audit atomic visibility.
func (s *Sub) Insert(key string, t Tuple) *Sub {
	s.spec.Updates = append(s.spec.Updates, model.KeyOp{Key: key, Op: model.AppendOp{T: t}})
	return s
}

// Set overwrites a summary field — a NON-commuting operation. A tree
// containing Set must be submitted with NonCommuting() and requires
// Config.NonCommuting.
func (s *Sub) Set(key, field string, value int64) *Sub {
	s.spec.Updates = append(s.spec.Updates, model.KeyOp{Key: key, Op: model.SetOp{Field: field, Value: value}})
	return s
}

// Scale multiplies a summary field by num/den — a NON-commuting
// operation (e.g. applying a surcharge percentage).
func (s *Sub) Scale(key, field string, num, den int64) *Sub {
	s.spec.Updates = append(s.spec.Updates, model.KeyOp{Key: key, Op: model.ScaleOp{Field: field, Num: num, Den: den}})
	return s
}

// Op appends a raw model operation (escape hatch for custom commuting
// operations).
func (s *Sub) Op(key string, op model.Op) *Sub {
	s.spec.Updates = append(s.spec.Updates, model.KeyOp{Key: key, Op: op})
	return s
}

// Child attaches a child subtransaction, sent to its node after this
// subtransaction's local work.
func (s *Sub) Child(c *Sub) *Sub {
	s.spec.Children = append(s.spec.Children, c.spec)
	return s
}

// Abort marks this subtransaction to abort after executing, triggering
// compensation of its subtree (fault injection).
func (s *Sub) Abort() *Sub {
	s.spec.Abort = true
	return s
}

// Update finalizes the tree as a well-behaved (commuting) update
// transaction.
func (s *Sub) Update() *TxnSpec {
	return &model.TxnSpec{Root: s.spec}
}

// Query finalizes the tree as a read-only transaction.
func (s *Sub) Query() *TxnSpec {
	return &model.TxnSpec{Root: s.spec}
}

// NonCommuting finalizes the tree as a non-well-behaved transaction to
// be executed under NC3V.
func (s *Sub) NonCommuting() *TxnSpec {
	return &model.TxnSpec{Root: s.spec, NonCommuting: true}
}

// Labeled finalizes with a label for traces and diagnostics.
func (s *Sub) Labeled(label string, nonCommuting bool) *TxnSpec {
	return &model.TxnSpec{Root: s.spec, Label: label, NonCommuting: nonCommuting}
}

// String renders the builder's current tree.
func (s *Sub) String() string {
	return fmt.Sprintf("%v", (&model.TxnSpec{Root: s.spec}).String())
}
