// Package core implements the paper's contribution: the 3V
// multiversioning algorithm (Sections 2 and 4), its completely
// asynchronous version-advancement protocol with counter-based
// termination detection (Sections 2.2 and 4.3), compensation-aware
// bookkeeping (Section 3.2), and the NC3V extension for non-commuting
// update transactions (Section 5).
//
// Topology: a cluster of N database nodes (ids 0..N-1) plus one
// coordinator endpoint (id N) that drives version advancement. All
// parties communicate exclusively through a transport.Network, so every
// protocol interaction — subtransaction shipping, advancement notices,
// counter snapshots, NC3V votes and decisions — is an asynchronous
// message that tests can delay or reorder.
package core

import (
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// SubtxnMsg ships one subtransaction to the node that must execute it
// (Spec.Node == the envelope's To). Version is the transaction version
// number V(T) assigned by the root and carried by every descendant
// (Section 4.1); a zero-valued Version together with Root=true means
// "assign on arrival" — the root subtransaction is versioned by the
// receiving node reading its current vu (or vr for queries).
type SubtxnMsg struct {
	Txn     model.TxnID
	Version model.Version
	Root    bool
	// Assigned marks a root whose version number was already assigned
	// (and request-counted): an NC3V root parked during a version
	// advancement is re-dispatched with Assigned=true so it is not
	// re-versioned.
	Assigned bool
	Spec     *model.SubtxnSpec
	// ReadOnly marks subtransactions of read-only transactions, which
	// are versioned from vr rather than vu.
	ReadOnly bool
	// NC marks subtransactions of non-well-behaved transactions, which
	// run under the NC3V protocol: NC locks, no dual writes, two-phase
	// commit. RootNode is the node coordinating K's 2PC (the node that
	// received the root).
	NC       bool
	RootNode model.NodeID
	// Compensating marks compensating subtransactions. They follow
	// exactly the ordinary protocol (Section 3.2: "we do not
	// distinguish between compensating and ordinary subtransactions");
	// the flag exists only for observability.
	Compensating bool
	// SentAt is the sender's wall clock at Send time, used by the
	// observability layer to histogram per-hop RPC latency (queue +
	// network + worker wait). Zero when the sender is not instrumented
	// (scripted replays); the protocol never reads it.
	SentAt time.Time
	// Part is the keyspace partition the transaction belongs to
	// (partition.Map.Of over the tree's keys, stamped on the root by
	// Cluster.Submit and inherited by every descendant). All counter
	// increments for the transaction land in partition Part's table, so
	// quiescence detection for one partition never waits on another's
	// traffic. Always 0 in single-partition deployments.
	Part int
	// Replica marks a replica child: the effect set a subtransaction
	// applied in partition Part, shipped as Spec.Updates to another owner
	// of Part. It is counted in R and C like any child, spawns nothing,
	// is never re-replicated, and is invisible to transaction handles.
	Replica bool
}

// StartAdvancementMsg is the Phase 1 notice: switch the update version
// to NewVU, allocating fresh counters (Section 4.3). Term is the
// sending coordinator's fencing term (see CoordStateMsg).
type StartAdvancementMsg struct {
	NewVU model.Version
	Term  uint64
	// Part scopes the notice to one partition's epoch.
	Part int
}

// AckAdvancementMsg acknowledges StartAdvancementMsg.
type AckAdvancementMsg struct {
	NewVU model.Version
	Node  model.NodeID
	Part  int
}

// ReadVersionMsg is the Phase 3 notice: queries arriving from now on
// use NewVR. Term fences stale coordinators.
type ReadVersionMsg struct {
	NewVR model.Version
	Term  uint64
	Part  int
}

// AckReadVersionMsg acknowledges ReadVersionMsg.
type AckReadVersionMsg struct {
	NewVR model.Version
	Node  model.NodeID
	Part  int
}

// GCMsg is the Phase 4 notice: garbage-collect all data and counter
// versions below Keep (the new read version). Term fences stale
// coordinators.
type GCMsg struct {
	Keep model.Version
	Term uint64
	// Part scopes collection: only keys owned by the partition are
	// dropped, so one partition's Phase 4 cannot disturb versions still
	// live in another partition's epoch.
	Part int
}

// AckGCMsg acknowledges GCMsg.
type AckGCMsg struct {
	Keep model.Version
	Node model.NodeID
	Part int
}

// CounterReqMsg asks a node for its counter rows for one version; the
// coordinator sends these during Phases 2 and 4. Round tags the sweep
// so late replies from a previous sweep are not mixed into the current
// snapshot. Term fences stale coordinators.
type CounterReqMsg struct {
	Version model.Version
	Round   int
	Term    uint64
	Part    int
}

// CounterReplyMsg carries one node's R row (requests sent, indexed by
// destination) and C row (completions here, indexed by invoking node)
// for the requested version.
type CounterReplyMsg struct {
	Version model.Version
	Round   int
	Node    model.NodeID
	R       []int64
	C       []int64
	Part    int
}

// CountersReqMsg is the batched form of CounterReqMsg: one request
// asking a node for its counter rows for every listed version, so a
// quiescence sweep costs one request/reply pair per node however many
// versions it is tracking. Round and Term work exactly as in
// CounterReqMsg.
type CountersReqMsg struct {
	Versions []model.Version
	Round    int
	Term     uint64
	Part     int
}

// VersionCounters is one version's R/C rows inside a CountersMsg.
type VersionCounters struct {
	Version model.Version
	R       []int64
	C       []int64
}

// CountersMsg answers a CountersReqMsg: the node's counter rows for
// every requested version, snapshotted together in one message. All
// entries are fresh reads taken when the request was served — the
// double-collect quiescence detector requires two consecutive fresh
// snapshots, so entries are never cached across rounds.
type CountersMsg struct {
	Round   int
	Node    model.NodeID
	Entries []VersionCounters
	Part    int
}

// Advancement traffic is urgent (transport.Urgent): a phase notice, a
// counter sweep, a version probe or a reply to one flushes its link at
// once instead of waiting out a batch window. Advancement is a chain of
// coordinator↔node rounds, each of which would otherwise pay one window
// per direction, and it gains nothing from coalescing — a round is one
// message per link. Subtransactions, replica children and everything
// else keep their windows: coalescing is what makes their throughput.
func (StartAdvancementMsg) Urgent() bool { return true }
func (AckAdvancementMsg) Urgent() bool   { return true }
func (ReadVersionMsg) Urgent() bool      { return true }
func (AckReadVersionMsg) Urgent() bool   { return true }
func (GCMsg) Urgent() bool               { return true }
func (AckGCMsg) Urgent() bool            { return true }
func (CounterReqMsg) Urgent() bool       { return true }
func (CounterReplyMsg) Urgent() bool     { return true }
func (CountersReqMsg) Urgent() bool      { return true }
func (CountersMsg) Urgent() bool         { return true }
func (VersionProbeMsg) Urgent() bool     { return true }
func (VersionReplyMsg) Urgent() bool     { return true }

// NCVoteMsg is the first phase of NC3V's two-phase commit: a node that
// finished executing a subtransaction of non-commuting transaction Txn
// reports to the transaction's coordinating node whether its local part
// succeeded (OK) and how many child subtransactions it spawned
// (Children), which lets the coordinator know how many more votes to
// expect without knowing the tree shape in advance.
type NCVoteMsg struct {
	Txn      model.TxnID
	Node     model.NodeID
	OK       bool
	Children int
	// Root marks the root subtransaction's vote. The coordinator must
	// not decide before it arrives: a child's vote can overtake the
	// root's on the network, and without this guard a single child vote
	// would look like a complete tree (votes == expected == 1) and
	// trigger a premature partial decision.
	Root bool
}

// NCDecisionMsg is the second phase: commit or abort. On commit a
// participant makes its local effects permanent, increments the
// completion counters for every subtransaction of Txn it executed
// (atomically with commitment, per Section 5 step 6) and releases NC
// locks; on abort it rolls back via its undo log first.
type NCDecisionMsg struct {
	Txn    model.TxnID
	Commit bool
}

// VersionProbeMsg asks a node for its current (vr, vu) pair. A
// recovering coordinator (see Coordinator.Recover) uses probes to
// reconstruct where a crashed predecessor left off. Term fences stale
// coordinators.
type VersionProbeMsg struct {
	Round int
	Term  uint64
	Part  int
}

// VersionReplyMsg answers a VersionProbeMsg. BelowVR reports whether
// the node still holds data versions below its read version — evidence
// of an interrupted Phase 4 (garbage collection pending).
type VersionReplyMsg struct {
	Round   int
	Node    model.NodeID
	VR      model.Version
	VU      model.Version
	BelowVR bool
	Part    int
}

// UnlockMsg is the asynchronous clean-up phase for well-behaved
// transactions in NC3V mode: once the whole tree of Txn has committed,
// the cluster tells every involved node to release Txn's commute locks
// (Section 5: "a special clean-up phase ... asynchronous with respect
// to well-behaved transactions").
type UnlockMsg struct {
	Txn model.TxnID
}

// CoordStateMsg is the active coordinator's lease heartbeat and state
// mirror, broadcast to every node each Config.FailoverConfig
// LeaseInterval. Term is the sender's fencing term; Coord its endpoint
// id; VR/VU the versions it has installed; Phase the advancement phase
// in flight (0 = idle, 1–4 mid-sweep). Nodes relay it to their
// co-located FailoverManager, whose coordinator lease it renews
// (failover.go); a missing one eventually triggers a standby takeover.
type CoordStateMsg struct {
	Term  uint64
	Coord model.NodeID
	VR    model.Version
	VU    model.Version
	Phase int
}

// StaleTermMsg tells a coordinator it has been fenced off: the sending
// node has observed Term (higher than the recipient's), so the
// recipient must stop driving sweeps (see ErrStaleTerm).
type StaleTermMsg struct {
	Term uint64
	Node model.NodeID
}

// SpanReportMsg ships completed trace spans from an executing node home
// to the transaction's root node, where the full causal tree assembles
// (internal/obs.AssembleTraces). It is observability-only traffic: sent
// solely for head-sampled transactions, never read by the protocol, and
// absent entirely when tracing is disabled.
type SpanReportMsg struct {
	Spans []obs.Span
}
