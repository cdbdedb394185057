package core

import (
	"repro/internal/counters"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/transport"
)

// This file defines the node's durability seam. core stays free of any
// disk or codec dependency: it describes each command and each executed
// subtransaction's effects to a Journal (implemented by
// internal/durable over internal/wal + internal/wire), and accepts
// recovered state back through NodeRestore. With a nil Journal the node
// skips every hook and runs exactly the pre-durability path.
//
// The invariant the hooks thread through the execution path is
// "nothing acknowledged is ever lost":
//
//   - a subtransaction command is journaled on arrival (Enq), before
//     the reliable session acknowledges the frame that carried it, so a
//     crashed node still knows every command its peers consider
//     delivered;
//   - a subtransaction's effects — store ops, counter increments, and
//     the exact child frames it spawns — are journaled atomically
//     (Exec) and made durable before any child frame reaches the wire,
//     so recovery can re-send the same frames with the same sequence
//     numbers and peers dedup them;
//   - version switches and GC are journaled (VersionUpdate/VersionRead/
//     GC) before the node acknowledges them to the coordinator.
//
// Replaying effects in WAL order is correct even though it can differ
// from the original latch order: concurrent subtransactions only ever
// race commuting ops (AddOp and friends; NC mode is forbidden with a
// journal), and the generalized dual write applies each op to every
// version ≥ v, so both interleavings produce identical version chains.

// ExecRecord is the complete effect set of one executed
// subtransaction — everything recovery must re-apply if the node dies
// after this record is durable.
type ExecRecord struct {
	// EnqID identifies the command (from Journal.Enq) this execution
	// consumed; recovery drops it from the pending set.
	EnqID    uint64
	Txn      model.TxnID
	From     model.NodeID
	Version  model.Version
	Root     bool
	ReadOnly bool
	// Part is the keyspace partition the subtransaction belongs to;
	// recovery restores its counter increments into that partition's
	// table. Always 0 in unpartitioned deployments.
	Part int
	// Ops are the store mutations in application order, each
	// EnsureVersion(Key, Version) followed by ApplyFrom(Key, Version, Op).
	// Abort inverses appear after the ops they undo.
	Ops []model.KeyOp
	// IncR lists the destinations whose request counter R[Version][self][to]
	// this execution bumped, in order: the root's self-increment first
	// (roots only), then one entry per spawned child and compensator,
	// then one per replica child. The completion increment
	// C[Version][From][self] is implied.
	IncR []model.NodeID
	// Local holds child/compensator commands addressed to this node
	// itself, in spawn order. They never touch the network: Exec assigns
	// each a pending enq id (returned in order) and the node loops them
	// straight back to its worker pool, so a crash after Exec re-enqueues
	// them from the pending set instead of losing them.
	Local []SubtxnMsg
}

// Journal receives the node's durability callbacks. Exec,
// VersionUpdate, VersionRead, GC and CoordTerm are durable
// before they return. Enq is lazy: the reliable session's NoteRecv
// barrier covers it before the frame that carried the command is
// acknowledged. Replica children need no callbacks of their own: the
// sender journals them as outbox frames of its Exec record, the
// receiver as an Enq and an Exec like any other subtransaction.
type Journal interface {
	// Enq records an arrived subtransaction command and returns its
	// journal-assigned id.
	Enq(from model.NodeID, msg SubtxnMsg) uint64
	// Exec records a chunk of executions: recs[i] with its outbox
	// outboxes[i] (child, compensator and replica SubtxnMsgs, in spawn
	// order) for every i. One durability barrier covers the whole chunk,
	// strictly before the first frame of any member leaves (group
	// commit). It
	// returns one id slice per record, aligned with recs: a
	// journal-assigned enq id per rec.Local entry, in order, which the
	// caller re-enqueues locally. The node defers every acknowledgement
	// edge of every member — child transmission, client completion and
	// the completion-counter increment — until Exec returns.
	Exec(recs []ExecRecord, outboxes [][]transport.Message) [][]uint64
	// VersionUpdate records partition part's vu = max(vu, v)
	// (advancement Phase 1).
	VersionUpdate(part int, v model.Version)
	// VersionRead records partition part's vr = max(vr, v)
	// (advancement Phase 3).
	VersionRead(part int, v model.Version)
	// GC records the truncation of partition part's versions below v
	// (Phase 4).
	GC(part int, v model.Version)
	// CoordTerm records the node's highest observed coordinator fencing
	// term, term = max(term, t), so a restarted node cannot acknowledge
	// a coordinator the cluster fenced off before the crash.
	CoordTerm(t uint64)
}

// PendingSubtxn is a command that was journaled (Enq) but whose
// execution record never became durable: recovery re-enqueues it.
type PendingSubtxn struct {
	EnqID uint64
	From  model.NodeID
	Msg   SubtxnMsg
}

// NodeRestore carries a crashed node's recovered state into NewCluster
// (distributed mode, single local node). Store and counter tables are
// adopted as-is; Pending is re-enqueued to the worker pool on Start,
// preserving original enq ids so re-execution journals against the
// same command.
type NodeRestore struct {
	Store   *storage.Store
	Pending []PendingSubtxn
	// CoordTerm is the highest coordinator fencing term the node had
	// durably observed before the crash (0 when failover never ran).
	CoordTerm uint64
	// PartVR/PartVU/PartCounters carry each partition's version pair and
	// counter table; index = partition id, and all three have length
	// Partitions (1 when unpartitioned).
	PartVR, PartVU []model.Version
	PartCounters   []*counters.Table
}
