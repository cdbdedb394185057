package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/localcc"
	"repro/internal/locks"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// observer receives instrumentation callbacks from nodes. The cluster
// implements it to drive transaction handles; the protocol itself never
// waits on an observer.
type observer interface {
	onSpawn(txn model.TxnID, n int)
	// onDone reports one terminated subtransaction; root marks the
	// tree's root, which is the completion edge for handles in
	// distributed mode (descendants may terminate in other processes).
	onDone(txn model.TxnID, node model.NodeID, reads []model.ReadResult, aborted, root bool)
	onVersion(txn model.TxnID, v model.Version)
	onNCAbort(txn model.TxnID)
}

// NodeMetrics counts protocol events at one node. All fields are
// cumulative.
type NodeMetrics struct {
	RootsAssigned    int64 // root subtransactions versioned here
	SubtxnsExecuted  int64 // update subtransactions executed (incl. compensating)
	QueriesExecuted  int64 // read-only subtransactions executed
	DualWrites       int64 // update ops applied to more than one version
	ImplicitAdvances int64 // vu advanced by an arriving subtransaction's version-id
	Compensations    int64 // compensating subtransactions sent
	LockAborts       int64 // subtransactions cancelled by lock timeout
	NCExecuted       int64 // NC subtransactions executed
	NCAborts         int64 // NC decisions that were aborts (counted at participants)
	Violations       []string
}

// ncExec records one executed NC subtransaction awaiting the 2PC
// decision.
type ncExec struct {
	source model.NodeID
	ver    model.Version
	reads  []model.ReadResult
	undo   []ncUndo
}

// ncUndo is one before-image for NC rollback.
type ncUndo struct {
	key  string
	ver  model.Version
	prev *model.Record // nil means the version was created by this txn: drop it
}

// ncCoordState is the 2PC coordinator state kept at the node that
// received an NC transaction's root.
type ncCoordState struct {
	votes     int
	expected  int
	ok        bool
	rootVoted bool
	nodes     map[model.NodeID]bool
}

// ncPartState is the participant state for one NC transaction at one
// node.
type ncPartState struct {
	execs []ncExec
}

// workItem is a unit handed to the node's worker pool.
type workItem struct {
	from model.NodeID
	sub  SubtxnMsg
	// enqID is the journal's id for this command (0 when not journaled);
	// the execution record cites it so recovery can retire the command.
	enqID uint64
	// tc is the trace context the command's envelope carried; recvAt is
	// its delivery time (stamped only for sampled commands, so queue
	// wait can be attributed without clock reads on the untraced path).
	tc     obs.TraceContext
	recvAt time.Time
}

// parkedNC is an NC3V root waiting out a version advancement.
type parkedNC struct {
	from model.NodeID
	msg  SubtxnMsg
}

// workQueue is an unbounded FIFO so that the node's delivery goroutine
// never blocks handing work to (possibly busy) workers — control
// messages must keep flowing even when every worker is waiting on an
// NC lock. It is backed by a growable power-of-two ring (internal/ring)
// rather than an append + items[1:] slice, so steady-state memory is
// bounded by the backlog high-water mark instead of growing with
// cumulative throughput, and bursts stop triggering per-lap
// reallocations.
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ring.Ring[workItem]
	closed bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workQueue) put(it workItem) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items.Push(it)
	q.cond.Signal()
}

func (q *workQueue) get() (workItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.items.Pop()
}

// getChunk blocks for at least one item, then drains up to max items in
// one critical section — the receive-side half of batching: a worker
// wakes once per chunk instead of once per message. Appends into buf
// (callers pass a reused buf[:0]) and returns false only when the queue
// is closed and empty.
func (q *workQueue) getChunk(buf []workItem, max int) ([]workItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	for len(buf) < max {
		it, ok := q.items.Pop()
		if !ok {
			break
		}
		buf = append(buf, it)
	}
	return buf, len(buf) > 0
}

func (q *workQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// verPair is one partition's version-number pair at a node.
type verPair struct {
	vu, vr model.Version
}

// Node is one database site running the 3V protocol. Create nodes via
// Cluster; direct construction is for tests and the trace replay.
type Node struct {
	id      model.NodeID
	n       int // number of database nodes in the cluster
	nparts  int // number of keyspace partitions (>= 1)
	pmap    *partition.Map
	coordID model.NodeID
	net     transport.Network
	store   *storage.Store
	// cnts holds one independent R/C counter table per partition: a
	// transaction's increments all land in its partition's table, so
	// quiescence of one partition is decided without reading another's
	// counters. cnts[0] is the whole table in unpartitioned mode.
	cnts    []*counters.Table
	latches *localcc.Manager
	lm      *locks.Manager // non-nil only in NC mode
	obs     observer
	reg     *obs.Registry // nil when observability is disabled
	ncMode  bool
	journal Journal // nil without durability

	// coordTerm is the highest coordinator fencing term this node has
	// observed on any partition (0 until a coordinator speaks).
	// It feeds the journal and the obs gauge; the fencing decision
	// itself is per partition (coordTerms below), so a successor
	// re-driving partition A's sweep fences A immediately while a
	// not-yet-recovered partition B still accepts its (idempotent)
	// stragglers until the successor's first message touches B.
	coordTerm atomic.Uint64
	// coordTerms are the per-partition fencing registers: phase
	// messages for partition i carrying a term below coordTerms[i] are
	// rejected. Partition-less control traffic (heartbeats, stale-term
	// notices) folds into every register.
	coordTerms []atomic.Uint64
	// onCoordState, when set (the node hosts a FailoverManager),
	// receives every accepted coordinator heartbeat so the manager can
	// renew its lease view. Set before Start; immutable afterwards.
	onCoordState func(CoordStateMsg)

	// Replica-group state (Config.Replicate). replicate gates the
	// replica fan-out; replSendHook/replApplyHook are the chaos
	// harness's crashpoint seams. All are set before the node's handler
	// is registered; immutable afterwards.
	replicate     bool
	replSendHook  func(part int)
	replApplyHook func(part int)

	// chk excludes subtransaction execution during checkpoint freezes:
	// executeChunk holds it shared around a journaled chunk so the effect
	// records and the in-memory mutations they describe always land on
	// the same side of a checkpoint anchor. Frozen takes it exclusively.
	// Unused (never locked) when journal is nil.
	chk sync.RWMutex

	// verMu guards pv (every partition's version pair). Critical
	// sections are a handful of machine instructions; per Section 4's
	// model, accesses to version numbers and counters are atomic but
	// sit outside local concurrency control, so they can never delay a
	// subtransaction on another item's behalf. Root version assignment
	// and its R-counter bump share one critical section with version
	// advancement so that a root assigned version v is always visible
	// in v's counters before the node acknowledges advancing past v.
	// One mutex across partitions is deliberate: the sections are so
	// short that sharding it buys nothing, and a sweep never holds it
	// while waiting — so partition A's advancement cannot block on
	// partition B's traffic through this lock.
	verMu  sync.Mutex
	vrCond *sync.Cond
	pv     []verPair
	// ncParked holds NC3V roots that were assigned a version during an
	// in-flight advancement (vu == vr+2) and must wait for the read
	// version to catch up (Section 5 step 2). They are parked here
	// rather than blocking a worker goroutine, and re-dispatched by
	// handleReadVersion.
	ncParked []parkedNC

	work    *workQueue
	workers int
	// inline executes each subtransaction in the delivery call instead
	// of on the worker pool; set exactly when the transport is the
	// scripted one, whose driver delivers one message at a time.
	inline bool
	// chunk is the admission chunk size (Config.ExecChunk): each worker
	// wakeup drains up to this many queued subtransactions and executes
	// them under one checkpoint hold and, when journaled, one durability
	// barrier. <= 1 preserves one-at-a-time admission.
	chunk int
	wg    sync.WaitGroup

	ncMu    sync.Mutex
	ncCoord map[model.TxnID]*ncCoordState
	ncPart  map[model.TxnID]*ncPartState

	metMu   sync.Mutex
	metrics NodeMetrics
}

// newNode wires a node; the caller registers node.handleMessage on the
// network and calls start. pmap may be nil (single partition).
func newNode(id model.NodeID, n int, pmap *partition.Map, coordID model.NodeID, net transport.Network, observer observer, ncMode bool, workers int, lm *locks.Manager, reg *obs.Registry) *Node {
	if workers <= 0 {
		workers = 4
	}
	nparts := 1
	if pmap != nil && pmap.P > 1 {
		nparts = pmap.P
	}
	nd := &Node{
		id:         id,
		n:          n,
		nparts:     nparts,
		pmap:       pmap,
		coordID:    coordID,
		net:        net,
		store:      storage.New(),
		cnts:       make([]*counters.Table, nparts),
		coordTerms: make([]atomic.Uint64, nparts),
		latches:    localcc.New(),
		lm:         lm,
		obs:        observer,
		reg:        reg,
		ncMode:     ncMode,
		pv:         make([]verPair, nparts),
		work:       newWorkQueue(),
		workers:    workers,
		ncCoord:    make(map[model.TxnID]*ncCoordState),
		ncPart:     make(map[model.TxnID]*ncPartState),
	}
	for i := range nd.pv {
		// Initial state per partition: read version 0, update version 1.
		nd.pv[i] = verPair{vu: 1, vr: 0}
		nd.cnts[i] = counters.NewTable(id, n)
	}
	nd.vrCond = sync.NewCond(&nd.verMu)
	return nd
}

// partOK validates a message's partition index; out-of-range indices
// are protocol violations (a peer running a different placement map).
func (nd *Node) partOK(part int) bool {
	if part >= 0 && part < nd.nparts {
		return true
	}
	nd.violate("node %v: partition %d out of range (P=%d)", nd.id, part, nd.nparts)
	return false
}

// gcPred returns the key filter for one partition's garbage collection,
// or nil in unpartitioned mode (collect everything).
func (nd *Node) gcPred(part int) func(string) bool {
	if nd.nparts <= 1 {
		return nil
	}
	return func(key string) bool { return nd.pmap.Of(key) == part }
}

// start launches the worker pool (skipped when executing inline).
func (nd *Node) start() {
	if nd.inline {
		return
	}
	max := nd.chunk
	if max < 1 {
		max = 1
	}
	for i := 0; i < nd.workers; i++ {
		nd.wg.Add(1)
		go func() {
			defer nd.wg.Done()
			buf := make([]workItem, 0, max)
			for {
				items, ok := nd.work.getChunk(buf[:0], max)
				if !ok {
					return
				}
				nd.executeChunk(items)
			}
		}()
	}
}

// stop drains the worker pool. In-flight subtransactions finish;
// queued ones are abandoned (callers quiesce first).
func (nd *Node) stop() {
	nd.work.close()
	// Wake any NC roots waiting for a read-version change so their
	// workers can observe shutdown via lock timeouts; harmless
	// otherwise.
	nd.verMu.Lock()
	nd.vrCond.Broadcast()
	nd.verMu.Unlock()
	nd.wg.Wait()
}

// Frozen runs fn with subtransaction execution paused: every worker is
// between subtransactions and stays parked until fn returns. The
// durability layer composes this with the session's delivery gate to
// take checkpoints that are consistent across the store, the counter
// table, the pending-command set and the session link state.
func (nd *Node) Frozen(fn func()) {
	nd.chk.Lock()
	defer nd.chk.Unlock()
	fn()
}

// Store exposes the node's storage engine (tests, trace, verifiers).
func (nd *Node) Store() *storage.Store { return nd.store }

// Counters exposes the node's counter table (tests, trace, verifiers).
// In partitioned mode this is partition 0's table; see CountersPart.
func (nd *Node) Counters() *counters.Table { return nd.cnts[0] }

// CountersPart exposes one partition's counter table.
func (nd *Node) CountersPart(part int) *counters.Table { return nd.cnts[part] }

// Partitions returns the number of keyspace partitions at this node.
func (nd *Node) Partitions() int { return nd.nparts }

// Versions returns the node's current (vr, vu) pair. In partitioned
// mode this is partition 0's pair; see VersionsPart.
func (nd *Node) Versions() (vr, vu model.Version) { return nd.VersionsPart(0) }

// VersionsPart returns one partition's current (vr, vu) pair.
func (nd *Node) VersionsPart(part int) (vr, vu model.Version) {
	nd.verMu.Lock()
	defer nd.verMu.Unlock()
	return nd.pv[part].vr, nd.pv[part].vu
}

// TermPart returns the highest coordinator fencing term this node has
// observed for one partition (the operator-surface companion of
// VersionsPart; threev-node's /state reports it per partition).
func (nd *Node) TermPart(part int) uint64 {
	if part < 0 || part >= len(nd.coordTerms) {
		return 0
	}
	return nd.coordTerms[part].Load()
}

// minVR returns the smallest read version across partitions — the
// conservative bound used for store-wide trigger quantities (pending
// items, divergence), whose per-key partition is not tracked there.
func (nd *Node) minVR() model.Version {
	nd.verMu.Lock()
	defer nd.verMu.Unlock()
	min := nd.pv[0].vr
	for _, p := range nd.pv[1:] {
		if p.vr < min {
			min = p.vr
		}
	}
	return min
}

// Metrics returns a copy of the node's counters.
func (nd *Node) Metrics() NodeMetrics {
	nd.metMu.Lock()
	defer nd.metMu.Unlock()
	m := nd.metrics
	m.Violations = append([]string(nil), nd.metrics.Violations...)
	return m
}

func (nd *Node) violate(format string, args ...any) {
	nd.metMu.Lock()
	defer nd.metMu.Unlock()
	nd.metrics.Violations = append(nd.metrics.Violations, fmt.Sprintf(format, args...))
}

// handleMessage is the node's transport handler. Subtransactions are
// dispatched to the worker pool; all control traffic is handled inline
// (it is quick and must keep flowing even when workers are blocked on
// NC locks).
func (nd *Node) handleMessage(m transport.Message) {
	switch p := m.Payload.(type) {
	case SubtxnMsg:
		var enqID uint64
		if nd.journal != nil {
			// Journal the command before the session layer acknowledges
			// the frame that carried it (the NoteRecv barrier after this
			// handler returns covers the append): a restarted node must
			// know every command its peers consider delivered.
			enqID = nd.journal.Enq(m.From, p)
		}
		var recvAt time.Time
		if m.TC.Sampled() && nd.reg.TraceEnabled() {
			recvAt = time.Now()
		}
		it := workItem{from: m.From, sub: p, enqID: enqID, tc: m.TC, recvAt: recvAt}
		if nd.inline {
			nd.executeChunk([]workItem{it})
		} else {
			nd.work.put(it)
		}
	case StartAdvancementMsg:
		if nd.admitPhase(m.From, p.Part, p.Term) {
			nd.handleStartAdvancement(m.From, p)
		}
	case ReadVersionMsg:
		if nd.admitPhase(m.From, p.Part, p.Term) {
			nd.handleReadVersion(m.From, p)
		}
	case GCMsg:
		if nd.admitPhase(m.From, p.Part, p.Term) {
			nd.handleGC(m.From, p)
		}
	case CounterReqMsg:
		if nd.admitPhase(m.From, p.Part, p.Term) {
			nd.handleCounterReq(m.From, p)
		}
	case CountersReqMsg:
		if nd.admitPhase(m.From, p.Part, p.Term) {
			nd.handleCountersReq(m.From, p)
		}
	case VersionProbeMsg:
		if !nd.admitPhase(m.From, p.Part, p.Term) {
			return
		}
		vr, vu := nd.VersionsPart(p.Part)
		below := false
		if pred := nd.gcPred(p.Part); pred != nil {
			below = nd.store.HasVersionsBelowFunc(vr, pred)
		} else {
			below = nd.store.HasVersionsBelow(vr)
		}
		nd.net.Send(transport.Message{From: nd.id, To: m.From, Payload: VersionReplyMsg{
			Round: p.Round, Node: nd.id, VR: vr, VU: vu,
			BelowVR: below, Part: p.Part,
		}})
	case CoordStateMsg:
		if !nd.observeTermAll(p.Term) {
			nd.rejectStale(m.From, 0)
			return
		}
		if f := nd.onCoordState; f != nil {
			f(p)
		}
	case StaleTermMsg:
		// Addressed to coordinator endpoints; one reaching a node is
		// stray cross-talk. Fold the term in and drop it.
		nd.observeTermAll(p.Term)
	case NCVoteMsg:
		nd.handleNCVote(p)
	case NCDecisionMsg:
		nd.handleNCDecision(p)
	case UnlockMsg:
		if nd.lm != nil {
			nd.lm.ReleaseAll(p.Txn)
		}
	case SpanReportMsg:
		// Spans shipped home by executing nodes: record them into this
		// (the root) node's ring for assembly.
		for _, s := range p.Spans {
			nd.reg.RecordSpan(s)
		}
	default:
		nd.violate("node %v: unknown payload %T", nd.id, m.Payload)
	}
}

// admitPhase is the guard in front of every fenced phase message: the
// partition index must be in range, and the coordinator's term must not
// be stale — a stale one is answered with StaleTermMsg. It reports
// whether the caller may act on the message.
func (nd *Node) admitPhase(from model.NodeID, part int, term uint64) bool {
	if !nd.partOK(part) {
		return false
	}
	if !nd.observeTerm(part, term) {
		nd.rejectStale(from, part)
		return false
	}
	return true
}

// raiseTerm folds t into a term register (r = max(r, t)). ok is false
// when t is stale — below the register; raised is true when t moved the
// register up.
func raiseTerm(r *atomic.Uint64, t uint64) (raised, ok bool) {
	for {
		cur := r.Load()
		if t <= cur {
			return false, t == cur
		}
		if r.CompareAndSwap(cur, t) {
			return true, true
		}
	}
}

// observeTerm folds a coordinator fencing term into one partition's
// register, returning false when t is stale — below a term this
// partition has already seen — in which case the caller must drop the
// message. A term raising the cross-partition high-water mark is
// journaled before the node acts on any message carrying it, so a
// restarted node cannot be tricked into acknowledging an
// already-fenced coordinator.
func (nd *Node) observeTerm(part int, t uint64) bool {
	raised, ok := raiseTerm(&nd.coordTerms[part], t)
	if raised {
		nd.noteTermHigh(t)
	}
	return ok
}

// observeTermAll folds a partition-less term (heartbeat, stale-term
// notice) into every partition's register. It reports false when the
// term is stale on every partition.
func (nd *Node) observeTermAll(t uint64) bool {
	ok := false
	for part := range nd.coordTerms {
		if nd.observeTerm(part, t) {
			ok = true
		}
	}
	return ok
}

// noteTermHigh journals and gauges a term that raised any partition's
// register, deduplicated through the cross-partition high-water mark.
func (nd *Node) noteTermHigh(t uint64) {
	if raised, _ := raiseTerm(&nd.coordTerm, t); raised {
		if nd.journal != nil {
			nd.journal.CoordTerm(t)
		}
		nd.reg.SetGauge(obs.GaugeCoordTerm, float64(t))
	}
}

// seedTerm installs a restored fencing term on every partition
// (restart adoption; the journal already holds it).
func (nd *Node) seedTerm(t uint64) {
	nd.coordTerm.Store(t)
	for i := range nd.coordTerms {
		nd.coordTerms[i].Store(t)
	}
}

// rejectStale counts a fenced-off phase message and tells its sender
// which term supersedes it, so a deposed coordinator stops re-driving
// its sweep instead of timing out.
func (nd *Node) rejectStale(from model.NodeID, part int) {
	nd.reg.Inc(obs.CtrStaleTermRejects, 1)
	nd.net.Send(transport.Message{From: nd.id, To: from, Payload: StaleTermMsg{
		Term: nd.coordTerms[part].Load(), Node: nd.id,
	}})
}

// maybeAdvanceVU performs the implicit advancement notification of
// Section 2.2: an arriving subtransaction carrying a version greater
// than the local update version is itself the notice that advancement
// has begun.
func (nd *Node) maybeAdvanceVU(part int, v model.Version) {
	nd.verMu.Lock()
	defer nd.verMu.Unlock()
	if v > nd.pv[part].vu {
		nd.pv[part].vu = v
		nd.cnts[part].EnsureVersion(v)
		nd.metMu.Lock()
		nd.metrics.ImplicitAdvances++
		nd.metMu.Unlock()
		nd.checkVersionInvariantLocked(part)
	}
}

func (nd *Node) handleStartAdvancement(from model.NodeID, p StartAdvancementMsg) {
	nd.verMu.Lock()
	if p.NewVU > nd.pv[p.Part].vu {
		nd.pv[p.Part].vu = p.NewVU
		nd.cnts[p.Part].EnsureVersion(p.NewVU)
		nd.checkVersionInvariantLocked(p.Part)
	}
	nd.verMu.Unlock()
	if nd.journal != nil {
		// Durable before the ack: the coordinator will never repeat a
		// notice every node acknowledged.
		nd.journal.VersionUpdate(p.Part, p.NewVU)
	}
	nd.net.Send(transport.Message{From: nd.id, To: from, Payload: AckAdvancementMsg{NewVU: p.NewVU, Node: nd.id, Part: p.Part}})
}

func (nd *Node) handleReadVersion(from model.NodeID, p ReadVersionMsg) {
	var release []parkedNC
	nd.verMu.Lock()
	if p.NewVR > nd.pv[p.Part].vr {
		nd.pv[p.Part].vr = p.NewVR
		nd.vrCond.Broadcast()
		nd.checkVersionInvariantLocked(p.Part)
	}
	if p.Part == 0 {
		// NC3V roots only park in unpartitioned mode (partition 0).
		keep := nd.ncParked[:0]
		for _, it := range nd.ncParked {
			if it.msg.Version == nd.pv[0].vr+1 {
				release = append(release, it)
			} else {
				keep = append(keep, it)
			}
		}
		nd.ncParked = keep
	}
	nd.verMu.Unlock()
	// Re-dispatch NC roots whose advancement window has closed.
	for _, it := range release {
		nd.work.put(workItem{from: it.from, sub: it.msg})
	}
	if nd.journal != nil {
		nd.journal.VersionRead(p.Part, p.NewVR)
	}
	nd.net.Send(transport.Message{From: nd.id, To: from, Payload: AckReadVersionMsg{NewVR: p.NewVR, Node: nd.id, Part: p.Part}})
}

func (nd *Node) handleGC(from model.NodeID, p GCMsg) {
	if pred := nd.gcPred(p.Part); pred != nil {
		nd.store.GCFunc(p.Keep, pred)
	} else {
		nd.store.GC(p.Keep)
	}
	nd.cnts[p.Part].DropBelow(p.Keep)
	nd.reg.RecordEvent(obs.Event{Kind: obs.EvGC, Node: int(nd.id), Version: int64(p.Keep)})
	if nd.journal != nil {
		nd.journal.GC(p.Part, p.Keep)
	}
	nd.net.Send(transport.Message{From: nd.id, To: from, Payload: AckGCMsg{Keep: p.Keep, Node: nd.id, Part: p.Part}})
}

// sendStamp returns the SentAt stamp for outgoing subtransactions: the
// current time when instrumented, zero (no clock read) otherwise.
func (nd *Node) sendStamp() time.Time {
	if nd.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

func (nd *Node) handleCounterReq(from model.NodeID, p CounterReqMsg) {
	cnt := nd.cnts[p.Part]
	nd.net.Send(transport.Message{From: nd.id, To: from, Payload: CounterReplyMsg{
		Version: p.Version,
		Round:   p.Round,
		Node:    nd.id,
		R:       cnt.SnapshotR(p.Version),
		C:       cnt.SnapshotC(p.Version),
		Part:    p.Part,
	}})
}

// handleCountersReq answers a batched counter sweep: one reply frame
// carrying a counter-matrix row pair per requested version. Snapshots
// are taken fresh at reply time — never cached across rounds — because
// the coordinator's double-collect detector compares consecutive
// rounds and a stale snapshot could fake quiescence.
func (nd *Node) handleCountersReq(from model.NodeID, p CountersReqMsg) {
	cnt := nd.cnts[p.Part]
	entries := make([]VersionCounters, len(p.Versions))
	for i, v := range p.Versions {
		entries[i] = VersionCounters{Version: v, R: cnt.SnapshotR(v), C: cnt.SnapshotC(v)}
	}
	nd.net.Send(transport.Message{From: nd.id, To: from, Payload: CountersMsg{
		Round:   p.Round,
		Node:    nd.id,
		Entries: entries,
		Part:    p.Part,
	}})
}

// checkVersionInvariantLocked asserts Section 4.4 property 3 for one
// partition: vr < vu ≤ vr + 2. Called with verMu held.
func (nd *Node) checkVersionInvariantLocked(part int) {
	vr, vu := nd.pv[part].vr, nd.pv[part].vu
	if !(vr < vu && vu <= vr+2) {
		nd.violate("node %v: partition %d version invariant broken: vr=%d vu=%d", nd.id, part, vr, vu)
	}
}

// execChunk accumulates the durability records and deferred tails of
// one admission chunk. Each journaled execution contributes its record,
// its outbox, and a tail closure; executeChunk then makes the whole
// chunk durable under one barrier and only afterwards runs the tails —
// the acknowledgement edges (child transmission is inside the journal
// call; local re-enqueue, client completion and the completion-counter
// increment are in the tail). Deferring IncC is always safe: the
// quiescence detector only ever errs toward "not yet terminated".
type execChunk struct {
	recs     []ExecRecord
	outboxes [][]transport.Message
	tails    []func(ids []uint64, fsyncD time.Duration, localAt time.Time)
	traced   bool
}

// executeChunk executes a chunk of work items: one drained by a worker,
// or a single item delivered inline. Without a journal every item runs
// to completion in turn (the chunk only amortized the queue wakeup);
// with one, the chunk holds the checkpoint barrier shared and its
// members share a single durability barrier (Journal.Exec).
func (nd *Node) executeChunk(items []workItem) {
	var ch *execChunk
	if nd.journal != nil {
		nd.chk.RLock()
		defer nd.chk.RUnlock()
		ch = &execChunk{}
	}
	for _, it := range items {
		nd.executeSubtxn(it.from, it.sub, it.enqID, it.tc, it.recvAt, ch)
	}
	if ch == nil || len(ch.recs) == 0 {
		return
	}
	var t0 time.Time
	if ch.traced {
		t0 = time.Now()
	}
	idss := nd.journal.Exec(ch.recs, ch.outboxes)
	var fsyncD time.Duration
	var localAt time.Time
	if ch.traced {
		// The shared barrier's full duration is charged to every traced
		// member: that is the fsync latency each one actually waited.
		fsyncD = time.Since(t0)
		localAt = time.Now()
	}
	for i, tail := range ch.tails {
		tail(idss[i], fsyncD, localAt)
	}
}

// executeSubtxn runs one subtransaction of executeChunk's chunk. enqID
// is the journal's id for the command (0 when not journaled); tc and
// recvAt are the envelope's trace context and delivery time (zero when
// the command is unsampled or tracing is off). batch is non-nil exactly
// when the node journals: the tail — durability barrier, local
// re-enqueue, span, completion report and C-counter increment — is then
// deferred to the chunk (see execChunk), with everything it needs
// captured in a closure. Otherwise the tail runs before return.
func (nd *Node) executeSubtxn(from model.NodeID, msg SubtxnMsg, enqID uint64, tc obs.TraceContext, recvAt time.Time, batch *execChunk) {
	var start time.Time
	if nd.reg != nil {
		start = time.Now()
		if !msg.SentAt.IsZero() {
			nd.reg.ObserveHop(start.Sub(msg.SentAt))
		}
		defer func() { nd.reg.ObserveExec(time.Since(start)) }()
	}
	// Trace bookkeeping for sampled commands: mint this execution's span
	// id (children cite it as their parent) and split the pre-execution
	// delay into wire transit and worker-queue wait. NC subtransactions
	// are not traced (their 2PC detour is outside the stage model).
	traced := tc.Sampled() && nd.reg.TraceEnabled() && !msg.NC
	var spanID uint64
	var childTC obs.TraceContext
	var wireD, queueD time.Duration
	if traced {
		spanID = nd.reg.NextSpanID(int(nd.id))
		childTC = obs.TraceContext{TraceID: tc.TraceID, SpanID: spanID}
		if !recvAt.IsZero() {
			if !msg.SentAt.IsZero() {
				if wireD = recvAt.Sub(msg.SentAt); wireD < 0 {
					wireD = 0
				}
			}
			if queueD = start.Sub(recvAt); queueD < 0 {
				queueD = 0
			}
		}
	}
	if msg.NC {
		nd.executeNC(from, msg)
		return
	}
	// When journaled, the effect record is accumulated alongside the
	// in-memory mutations and every outgoing frame is held back in the
	// outbox: the chunk's journal.Exec makes records and frames durable
	// together, then transmits. Without a journal, send transmits
	// immediately and the path is exactly the pre-durability one.
	part := msg.Part
	if part < 0 || part >= nd.nparts {
		nd.violate("node %v: subtxn %v partition %d out of range (P=%d)", nd.id, msg.Txn, part, nd.nparts)
		part = 0
	}
	cnt := nd.cnts[part]
	var rec *ExecRecord
	var outbox []transport.Message
	if batch != nil {
		rec = &ExecRecord{EnqID: enqID, Txn: msg.Txn, From: from, Root: msg.Root, ReadOnly: msg.ReadOnly, Part: part}
	}
	send := func(m transport.Message) {
		if rec != nil {
			// Self-targeted children skip the network entirely: Exec
			// assigns them pending enq ids and they re-enter the worker
			// pool below, so a crash after the barrier re-enqueues rather
			// than loses them (and a retransmit can never double-run them).
			if m.To == nd.id {
				rec.Local = append(rec.Local, m.Payload.(SubtxnMsg))
			} else {
				outbox = append(outbox, m)
			}
			return
		}
		nd.net.Send(m)
	}
	v := msg.Version
	if msg.Root {
		// Step 1: assign the current update (or read) version and bump
		// the local-local request counter in one atomic step with
		// respect to version advancement.
		nd.verMu.Lock()
		if msg.ReadOnly {
			v = nd.pv[part].vr
		} else {
			v = nd.pv[part].vu
		}
		cnt.IncR(v, nd.id)
		nd.verMu.Unlock()
		if rec != nil {
			rec.IncR = append(rec.IncR, nd.id)
		}
		nd.metMu.Lock()
		nd.metrics.RootsAssigned++
		nd.metMu.Unlock()
		nd.obs.onVersion(msg.Txn, v)
	} else if !msg.ReadOnly {
		// Step 2: implicit advancement notification.
		nd.maybeAdvanceVU(part, v)
	}
	if rec != nil {
		rec.Version = v
	}

	spec := msg.Spec
	aborting := spec.Abort && !msg.ReadOnly
	// ops are the store mutations applied, abort inverses included: the
	// effect record's Ops and the replica children's Updates.
	var ops []model.KeyOp

	// In NC mode, well-behaved update subtransactions take commute
	// locks (two-phase, released by the asynchronous clean-up). Queries
	// take no locks (Section 8).
	lockOK := true
	if nd.ncMode && !msg.ReadOnly {
		lockOK = nd.acquireCommuteLocks(msg.Txn, spec)
		if !lockOK {
			// Lock timeout: cancel this subtree. Nothing was applied.
			nd.metMu.Lock()
			nd.metrics.LockAborts++
			nd.metMu.Unlock()
			aborting = true
		}
	}

	var reads []model.ReadResult
	if lockOK {
		keys := touchedKeys(spec)
		release := nd.latches.Acquire(keys)

		// Steps 3: reads see the maximum existing version ≤ V(T).
		for _, k := range spec.Reads {
			rec, ver, ok := nd.store.ReadMax(k, v)
			if ok {
				reads = append(reads, model.ReadResult{Node: nd.id, Key: k, VersionRead: ver, Record: rec})
			} else {
				reads = append(reads, model.ReadResult{Node: nd.id, Key: k, VersionRead: 0, Record: model.NewRecord()})
			}
		}

		// Step 4: copy-on-update, then apply to all versions ≥ V(T)
		// (the generalized dual write).
		if !msg.ReadOnly {
			ops = spec.Updates
			for _, u := range spec.Updates {
				nd.store.EnsureVersion(u.Key, v)
				if n := nd.store.ApplyFrom(u.Key, v, u.Op); n > 1 {
					nd.metMu.Lock()
					nd.metrics.DualWrites += int64(n - 1)
					nd.metMu.Unlock()
					nd.reg.Inc(obs.CtrDualWrites, int64(n-1))
					if nd.reg.SampleTick() {
						nd.reg.RecordEvent(obs.Event{Kind: obs.EvDualWrite, Node: int(nd.id),
							Txn: msg.Txn.String(), Version: int64(v), Detail: u.Key})
					}
				}
			}
		}
		release()
	}

	// Step 5: spawn children; bump the request counter strictly before
	// each send.
	if lockOK {
		for _, child := range spec.Children {
			cnt.IncR(v, child.Node)
			if rec != nil {
				rec.IncR = append(rec.IncR, child.Node)
			}
			nd.obs.onSpawn(msg.Txn, 1)
			send(transport.Message{From: nd.id, To: child.Node, TC: childTC, Payload: SubtxnMsg{
				Txn:          msg.Txn,
				Version:      v,
				Spec:         child,
				ReadOnly:     msg.ReadOnly,
				RootNode:     msg.RootNode,
				Compensating: msg.Compensating,
				SentAt:       nd.sendStamp(),
				Part:         part,
			}})
		}
	}

	if aborting {
		ops = nd.abortSubtree(msg.Txn, v, part, spec, lockOK, ops, rec, send, childTC, msg.RootNode)
	}

	// Replica groups: the applied effect set (inverses included — an
	// aborted subtree's net effect replicates as-is) goes to the other
	// owners of this partition as counted version-v children. A replica
	// child is itself never replicated.
	if nd.replicate && !msg.Replica && len(ops) > 0 {
		nd.spawnReplicas(msg.Txn, v, part, ops, rec, send)
	}
	if rec != nil {
		rec.Ops = ops
	}

	// finish is the termination tail: re-enqueue of journaled local
	// children, trace recording, and the acknowledgement edges (client
	// completion, C-counter increment). When journaled it is deferred
	// until after the chunk's shared durability barrier.
	finish := func(ids []uint64, fsyncD time.Duration, localAt time.Time) {
		if rec != nil {
			for i, m := range rec.Local {
				nd.work.put(workItem{from: nd.id, sub: m, enqID: ids[i], tc: childTC, recvAt: localAt})
			}
		}
		nd.finishSubtxn(from, msg, v, part, reads, aborting, traced, tc, spanID, start, wireD, queueD, fsyncD)
	}

	if rec == nil {
		finish(nil, 0, time.Time{})
		return
	}
	// Journaled: park the record, its outbox and the tail with the
	// chunk. Nothing observable has happened yet — children are unsent,
	// completion unreported, IncC pending — so the chunk's one barrier
	// covers every acknowledgement edge of every member.
	batch.recs = append(batch.recs, *rec)
	batch.outboxes = append(batch.outboxes, outbox)
	batch.tails = append(batch.tails, finish)
	if traced {
		batch.traced = true
	}
}

// finishSubtxn is Step 6 plus trace recording: runs strictly after the
// subtransaction's effects are durable (when journaled). It reports
// completion and only then increments the completion counter.
func (nd *Node) finishSubtxn(from model.NodeID, msg SubtxnMsg, v model.Version, part int, reads []model.ReadResult, aborting, traced bool, tc obs.TraceContext, spanID uint64, start time.Time, wireD, queueD, fsyncD time.Duration) {
	if msg.Replica {
		// Replica children terminate like any subtransaction but are
		// invisible to handles and transaction metrics.
		nd.cnts[part].IncC(v, from)
		nd.reg.Inc(obs.CtrReplApplies, 1)
		if h := nd.replApplyHook; h != nil {
			h(part)
		}
		return
	}
	if traced {
		// Park the root's stage breakdown for the completion edge, then
		// record this execution's span — locally when this node is the
		// trace's root, else shipped home in a SpanReportMsg. Both happen
		// strictly before onDone so the completion path always finds the
		// breakdown parked.
		execEnd := time.Now()
		serviceD := execEnd.Sub(start)
		if msg.Root {
			nd.reg.TraceRootExec(tc.TraceID, int(nd.id), wireD, queueD, serviceD, fsyncD, execEnd)
		}
		name := "subtxn"
		if msg.ReadOnly {
			name = "query"
		}
		if msg.Compensating {
			name = "compensate"
		}
		attr := msg.Txn.String()
		if aborting {
			attr += " aborted"
		}
		sp := obs.Span{
			TraceID:  tc.TraceID,
			SpanID:   spanID,
			ParentID: tc.SpanID,
			Name:     name,
			Node:     int(nd.id),
			Start:    start.UnixNano(),
			Dur:      int64(serviceD),
			Attr:     attr,
			Stages: []obs.SpanStage{
				{Name: obs.StageNames[obs.StageWire], Dur: int64(wireD)},
				{Name: obs.StageNames[obs.StageQueue], Dur: int64(queueD)},
				{Name: obs.StageNames[obs.StageFsync], Dur: int64(fsyncD)},
			},
		}
		if nd.id == msg.RootNode {
			nd.reg.RecordSpan(sp)
		} else {
			nd.net.Send(transport.Message{From: nd.id, To: msg.RootNode, Payload: SpanReportMsg{Spans: []obs.Span{sp}}})
		}
	}

	// Step 6: report, then increment the completion counter and
	// terminate. source(T) is the invoking node; for roots it is this
	// node itself (the cluster submits roots with From == To).
	nd.metMu.Lock()
	if msg.ReadOnly {
		nd.metrics.QueriesExecuted++
	} else {
		nd.metrics.SubtxnsExecuted++
	}
	nd.metMu.Unlock()
	nd.obs.onDone(msg.Txn, nd.id, reads, aborting, msg.Root)
	nd.cnts[part].IncC(v, from)
}

// abortSubtree implements Section 3.2 for a subtransaction that aborts
// after doing its local work and spawning its children: roll back the
// local updates by applying their inverses (inverses of commuting ops
// commute, so this is correct regardless of interleaving) and send a
// compensating subtransaction chasing each spawned child. If applied is
// false the local updates were never performed (lock timeout) and only
// the children need compensating — but in that case no children were
// sent either, so there is nothing to do beyond bookkeeping. It returns
// ops, the applied ops so far, extended with the inverses it applied.
func (nd *Node) abortSubtree(txn model.TxnID, v model.Version, part int, spec *model.SubtxnSpec, applied bool, ops []model.KeyOp, rec *ExecRecord, send func(transport.Message), childTC obs.TraceContext, rootNode model.NodeID) []model.KeyOp {
	if !applied {
		return ops
	}
	if len(spec.Updates) > 0 {
		keys := make([]string, 0, len(spec.Updates))
		for _, u := range spec.Updates {
			keys = append(keys, u.Key)
		}
		release := nd.latches.Acquire(keys)
		// Full slice expression: ops aliases spec.Updates, which the
		// inverses must not overwrite.
		ops = ops[:len(ops):len(ops)]
		for _, u := range spec.Updates {
			if inv := u.Op.Inverse(); inv != nil {
				nd.store.ApplyFrom(u.Key, v, inv)
				ops = append(ops, model.KeyOp{Key: u.Key, Op: inv})
			}
		}
		release()
	}
	for _, child := range spec.Children {
		comp := child.Compensator()
		nd.cnts[part].IncR(v, comp.Node)
		if rec != nil {
			rec.IncR = append(rec.IncR, comp.Node)
		}
		nd.obs.onSpawn(txn, 1)
		nd.metMu.Lock()
		nd.metrics.Compensations++
		nd.metMu.Unlock()
		send(transport.Message{From: nd.id, To: comp.Node, TC: childTC, Payload: SubtxnMsg{
			Txn:          txn,
			Version:      v,
			Spec:         comp,
			RootNode:     rootNode,
			Compensating: true,
			SentAt:       nd.sendStamp(),
			Part:         part,
		}})
	}
	return ops
}

// spawnReplicas is Step 5 for the partition's owner group
// (Config.Replicate): one replica child per other owner, carrying the
// applied ops as its Updates (shared, never copied), with the request
// counter bumped strictly before each send — into the effect record's
// IncR when journaled, so a crash keeps or loses the bump together with
// the effects.
//
// Replica children ride the ordinary subtransaction path — R at the
// sender, C at each owner — so the advancement that closes a version
// also proves every owner holds all of that version's updates, and a
// lagging owner shows up in the ordinary R−C counter-lag gauges. The
// group has no leader: whichever owner executes an update replicates
// it, commuting ops merge in any order, and any owner serves reads at
// the read version.
func (nd *Node) spawnReplicas(txn model.TxnID, v model.Version, part int, ops []model.KeyOp, rec *ExecRecord, send func(transport.Message)) {
	for _, owner := range nd.pmap.OwnerSet(part) {
		if owner == nd.id {
			continue
		}
		nd.cnts[part].IncR(v, owner)
		if rec != nil {
			rec.IncR = append(rec.IncR, owner)
		}
		send(transport.Message{From: nd.id, To: owner, Payload: SubtxnMsg{
			Txn:     txn,
			Version: v,
			Spec:    &model.SubtxnSpec{Node: owner, Updates: ops},
			Part:    part,
			Replica: true,
		}})
		nd.reg.Inc(obs.CtrReplSends, 1)
	}
	if h := nd.replSendHook; h != nil {
		h(part)
	}
}

// acquireCommuteLocks takes CU locks on updated keys and CR locks on
// read keys for a well-behaved subtransaction. The fast path
// (TryAcquire) never waits; when an NC transaction holds a conflicting
// lock the slow path waits up to the lock manager's bound. Returns
// false on timeout (the subtree is then cancelled). Locks are held
// until the cluster's clean-up UnlockMsg.
func (nd *Node) acquireCommuteLocks(txn model.TxnID, spec *model.SubtxnSpec) bool {
	for _, u := range spec.Updates {
		if nd.lm.TryAcquire(txn, u.Key, locks.CommuteUpdate) {
			continue
		}
		if err := nd.lm.Acquire(txn, u.Key, locks.CommuteUpdate); err != nil {
			nd.lm.ReleaseAll(txn)
			return false
		}
	}
	for _, k := range spec.Reads {
		if nd.lm.TryAcquire(txn, k, locks.CommuteRead) {
			continue
		}
		if err := nd.lm.Acquire(txn, k, locks.CommuteRead); err != nil {
			nd.lm.ReleaseAll(txn)
			return false
		}
	}
	return true
}

// touchedKeys returns the local keys a spec reads or updates.
func touchedKeys(spec *model.SubtxnSpec) []string {
	keys := make([]string, 0, len(spec.Reads)+len(spec.Updates))
	keys = append(keys, spec.Reads...)
	for _, u := range spec.Updates {
		keys = append(keys, u.Key)
	}
	return keys
}
