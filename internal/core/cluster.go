package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/locks"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// Config parameterizes a Cluster.
type Config struct {
	// Nodes is the number of database nodes (ids 0..Nodes-1). The
	// coordinator occupies endpoint id Nodes.
	Nodes int
	// Partitions splits the keyspace into P independently versioned
	// partitions (see internal/partition): each runs its own R/C counter
	// matrix, quiescence detection and epoch, so advancing one partition
	// never waits on in-flight traffic in another. Every transaction must
	// stay within one partition (its keys all hash to the same partition;
	// keyless trees run in partition 0). 0 or 1 selects the unpartitioned
	// behaviour. Incompatible with NCMode: NC3V's commute locks and
	// read-version parking assume the single global epoch.
	Partitions int
	// LocalNodes, when non-nil, selects distributed mode: only the
	// listed node ids are hosted by this process; the rest live in
	// other processes reachable through Transport, which must then be
	// supplied explicitly (e.g. a tcpnet.Net spanning the processes).
	// Submit only accepts transactions whose root node is local, and
	// the returned handle completes when the root subtransaction
	// terminates — descendants running in other processes are not
	// observable here (the protocol itself never waits on them either).
	// NCMode is unsupported in distributed mode: NC3V's 2PC bookkeeping
	// is cluster-local. nil (the default) hosts everything in-process.
	LocalNodes []int
	// LocalCoordinator hosts the advancement coordinator (endpoint id
	// Nodes) in this process. Distributed mode only; ignored when
	// LocalNodes is nil, where the coordinator is always local. Without
	// Failover the coordinator runs in node 0's FailoverManager, so
	// LocalNodes must then include node 0.
	LocalCoordinator bool
	// Workers is the per-node worker-pool width for subtransaction
	// execution; 0 means 4.
	Workers int
	// NCMode enables the NC3V extension: well-behaved transactions take
	// commute locks and non-well-behaved transactions are admitted.
	// With NCMode false, submitting a NonCommuting transaction is an
	// error and no locks exist at all (plain 3V).
	NCMode bool
	// LockWait bounds NC3V lock waits (deadlock victims time out);
	// 0 means one second.
	LockWait time.Duration
	// PollInterval spaces the coordinator's counter sweeps; 0 means
	// 200µs.
	PollInterval time.Duration
	// Transport, when non-nil, overrides the network. Otherwise a live
	// transport.Net is built from NetConfig (whose Nodes field is filled
	// in automatically). A *transport.Script makes every node execute
	// subtransactions inline in the scripted delivery call instead of on
	// the worker pool, so replays (the Table 1 trace) are fully
	// deterministic. The scripted transport cannot be combined with
	// NCMode: NC3V subtransactions block on locks and the read-version
	// wait, which would deadlock a single-threaded scripted delivery.
	Transport transport.Network
	// NetConfig configures the default live network.
	NetConfig transport.Config
	// Reliable wraps the network (owned or supplied) in the
	// reliable-delivery session layer (transport/reliable): sequence
	// numbers, dedup, cumulative acks and retransmission. Required for
	// correct operation whenever NetConfig.Faults drops messages.
	Reliable bool
	// ReliableConfig tunes the session layer when Reliable is set; the
	// zero value selects defaults. Its FlushInterval is the stack's one
	// batch window: 0 falls back to NetConfig.BatchWindow, and the
	// network the cluster builds under a session has no window of its
	// own.
	ReliableConfig reliable.Config
	// Journal, when non-nil, receives the local node's durability
	// callbacks (command arrival, execution effects, version switches,
	// GC). Distributed mode with exactly one local node only; requires
	// Reliable and is incompatible with the scripted transport (execution
	// must run on the worker pool so checkpoint freezes have a lock
	// boundary) and NCMode. The session layer's own hooks are wired
	// separately through ReliableConfig.Journal/Restore/Gate.
	Journal Journal
	// Restore, when non-nil, rebuilds the local node from recovered
	// state before Start: store, counters, (vr, vu) and the commands
	// that were journaled but never durably executed (re-enqueued to the
	// worker pool on Start). Same restrictions as Journal.
	Restore *NodeRestore
	// Failover removes the coordinator single point of failure. The
	// coordinator always runs in a FailoverManager under a positive
	// fencing term (see failover.go); without Failover there is one,
	// node 0's, and its lease never ticks. Failover gives every locally
	// hosted node a manager, owning coordinator endpoint Nodes+id, and
	// starts the lease: the active manager heartbeats, and a standby
	// takes over under a higher term when the heartbeats stop. The
	// network must then route endpoints
	// 0..2*Nodes-1 (owned networks are sized automatically; an explicit
	// Transport must span them). In-process clusters start with node
	// 0's manager active; distributed processes start active only with
	// LocalCoordinator set.
	Failover bool
	// FailoverConfig tunes the coordinator lease when Failover is set;
	// the zero value selects defaults.
	FailoverConfig LeaseConfig
	// Replicate makes partition owner groups real (see
	// Node.spawnReplicas): every subtransaction that applies updates in a
	// partition sends the applied effect set to the partition's other
	// owners as counted replica children, so the advancement that closes
	// a version also proves every owner holds its updates, and any owner
	// serves reads and takes updates. Requires Reliable (a replica child
	// lost on the network would never be counted complete) and is
	// meaningful only when owner groups have at least two members
	// (Nodes >= 2).
	Replicate bool
	// ExecChunk batches the receive side of the hot path: each node
	// worker wakeup drains up to ExecChunk queued subtransactions and
	// executes them as one chunk — one checkpoint hold, and (with a
	// Journal) a single WAL barrier covering the whole chunk, with every
	// member's acknowledgement edges deferred past it. <= 1 preserves
	// one-at-a-time admission. Incompatible with NCMode (an NC
	// subtransaction can block on locks mid-chunk, starving the chunk's
	// tail); ignored under the scripted transport, which executes inline.
	ExecChunk int
	// BatchedCounters switches the coordinator's quiescence sweeps to
	// the batched counter protocol (CountersReqMsg out, one CountersMsg
	// back per node per round) instead of per-version CounterReqMsg
	// exchanges. Counter snapshots are still taken fresh every round.
	BatchedCounters bool
	// AckTimeout bounds every coordinator wait on node responses
	// (advancement acks, counter replies, version probes). 0 preserves
	// the paper's behaviour: wait forever on the assumed-reliable
	// network. When it fires, Advance/Recover surface ErrTimeout
	// instead of wedging.
	AckTimeout time.Duration
	// ResendInterval makes the coordinator re-broadcast unanswered
	// notices/requests to the nodes still missing, every interval (all
	// coordinator messages are idempotent). 0 means never re-send.
	ResendInterval time.Duration
	// DisableObs turns the observability layer off entirely (no
	// registry is allocated; every instrumentation call is a no-op).
	// Used to measure instrumentation overhead; leave false otherwise.
	DisableObs bool
	// Obs tunes the observability layer (event ring capacity and
	// sampling); the zero value selects defaults.
	Obs obs.Options
}

// Cluster is a running 3V system: Nodes database nodes, one
// advancement coordinator, and a network connecting them. It is the
// package's facade; the public threev package wraps it.
type Cluster struct {
	cfg     Config
	net     transport.Network
	ownsNet bool
	// nodes has length cfg.Nodes; in distributed mode entries for
	// remotely hosted nodes are nil.
	nodes       []*Node
	distributed bool
	reg         *obs.Registry // nil when cfg.DisableObs

	// nparts is the partition count (>= 1); pmap routes keys to
	// partitions and partitions to owner node groups.
	nparts int
	pmap   *partition.Map

	// fo holds the managers that host this process's coordinators: one
	// per locally hosted node with Config.Failover, else node 0's alone
	// (none in a process that does not host the coordinator).
	fo []*FailoverManager

	hookMu    sync.Mutex
	phaseHook func(part, phase int)

	seq     atomic.Uint64
	handles sync.Map // model.TxnID -> *Handle

	updatesDone atomic.Int64

	closed atomic.Bool
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: Config.Nodes must be positive, got %d", cfg.Nodes)
	}
	_, scripted := cfg.Transport.(*transport.Script)
	if scripted && cfg.NCMode {
		return nil, fmt.Errorf("core: the scripted transport cannot be combined with NCMode")
	}
	if cfg.ExecChunk > 1 && cfg.NCMode {
		return nil, fmt.Errorf("core: ExecChunk cannot be combined with NCMode")
	}
	if cfg.Partitions > 1 && cfg.NCMode {
		return nil, fmt.Errorf("core: Partitions cannot be combined with NCMode (NC3V assumes a single global epoch)")
	}
	if cfg.Replicate && !cfg.Reliable {
		return nil, fmt.Errorf("core: Replicate requires the reliable session layer (a replica child lost on the network would hold up its version forever)")
	}
	if cfg.Replicate && cfg.NCMode {
		return nil, fmt.Errorf("core: Replicate cannot be combined with NCMode")
	}
	if cfg.Journal != nil || cfg.Restore != nil {
		if cfg.LocalNodes == nil || len(cfg.LocalNodes) != 1 {
			return nil, fmt.Errorf("core: Journal/Restore require distributed mode with exactly one local node")
		}
		if !cfg.Reliable {
			return nil, fmt.Errorf("core: Journal/Restore require the reliable session layer")
		}
		if scripted {
			return nil, fmt.Errorf("core: Journal cannot be combined with the scripted transport")
		}
	}
	localSet := map[int]bool{}
	if cfg.LocalNodes != nil {
		if cfg.Transport == nil {
			return nil, fmt.Errorf("core: distributed mode (LocalNodes) requires an explicit Transport")
		}
		if cfg.NCMode {
			return nil, fmt.Errorf("core: NCMode is unsupported in distributed mode (NC3V 2PC state is cluster-local)")
		}
		for _, id := range cfg.LocalNodes {
			if id < 0 || id >= cfg.Nodes {
				return nil, fmt.Errorf("core: LocalNodes id %d out of range [0,%d)", id, cfg.Nodes)
			}
			if localSet[id] {
				return nil, fmt.Errorf("core: LocalNodes id %d listed twice", id)
			}
			localSet[id] = true
		}
		if cfg.LocalCoordinator && !cfg.Failover && !localSet[0] {
			return nil, fmt.Errorf("core: without Failover the coordinator runs beside node 0; LocalCoordinator requires LocalNodes to include 0")
		}
	}
	nparts := cfg.Partitions
	if nparts < 1 {
		nparts = 1
	}
	c := &Cluster{cfg: cfg, distributed: cfg.LocalNodes != nil,
		nparts: nparts, pmap: partition.NewMap(nparts, cfg.Nodes)}
	if !cfg.DisableObs {
		c.reg = obs.New(cfg.Obs)
		c.reg.SetGauge(obs.GaugeVersionRead, 0)
		c.reg.SetGauge(obs.GaugeVersionUpdate, 1)
		if nparts > 1 {
			for p := 0; p < nparts; p++ {
				c.reg.SetGauge(obs.PartitionVersionGauge(p), 0)
			}
		}
	}
	// Endpoint space: nodes 0..Nodes-1 plus coordinator endpoints Nodes+id,
	// one per node that may host a manager: node 0's alone without
	// failover, every node's with it.
	endpoints := cfg.Nodes + 1
	if cfg.Failover {
		endpoints = 2 * cfg.Nodes
	}
	if cfg.Transport != nil {
		c.net = cfg.Transport
	} else {
		nc := cfg.NetConfig
		nc.Nodes = endpoints
		if cfg.Reliable {
			nc.BatchWindow = 0 // the session's window is the only one
		}
		mn := transport.NewNet(nc)
		mn.SetObs(c.reg)
		c.net = mn
		c.ownsNet = true
	}
	if cfg.Reliable {
		// The session layer owns whatever it wraps; closing it closes
		// the inner network, so the cluster now owns the wrapper.
		rc := cfg.ReliableConfig
		rc.Obs = c.reg
		if rc.FlushInterval <= 0 {
			rc.FlushInterval = cfg.NetConfig.BatchWindow
		}
		c.net = reliable.Wrap(c.net, endpoints, rc)
		c.ownsNet = true
	}
	coordID := model.NodeID(cfg.Nodes)
	c.nodes = make([]*Node, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		if c.distributed && !localSet[i] {
			continue
		}
		var lm *locks.Manager
		if cfg.NCMode {
			lm = locks.New()
			lm.WaitBound = cfg.LockWait
		}
		nd := newNode(model.NodeID(i), cfg.Nodes, c.pmap, coordID, c.net, c, cfg.NCMode, cfg.Workers, lm, c.reg)
		nd.inline = scripted
		nd.chunk = cfg.ExecChunk
		nd.journal = cfg.Journal
		nd.replicate = cfg.Replicate
		if r := cfg.Restore; r != nil {
			if r.Store != nil {
				nd.store = r.Store
			}
			for p := 0; p < nparts && p < len(r.PartVU); p++ {
				nd.pv[p] = verPair{vu: r.PartVU[p], vr: r.PartVR[p]}
				nd.cnts[p] = r.PartCounters[p]
			}
			nd.seedTerm(r.CoordTerm)
		}
		c.nodes[i] = nd
		c.net.Register(nd.id, nd.handleMessage)
	}
	hostsCoord := !c.distributed || cfg.LocalCoordinator
	for i, nd := range c.nodes {
		if nd == nil || (!cfg.Failover && (i != 0 || !hostsCoord)) {
			continue
		}
		m := newFailoverManager(c, nd)
		nd.onCoordState = m.noteBeat
		c.net.Register(m.ep, m.handleEndpoint)
		c.fo = append(c.fo, m)
		if hostsCoord && (c.distributed || i == 0) {
			m.promote()
		}
	}
	return c, nil
}

// Start launches node worker pools and (if owned) the network.
func (c *Cluster) Start() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.start()
		}
	}
	if r := c.cfg.Restore; r != nil {
		// Re-enqueue the commands recovery found journaled but not
		// durably executed, under their original ids so re-execution
		// journals against the same command. Peers treat the resulting
		// child frames as retransmissions (same sequence numbers).
		nd := c.nodes[c.cfg.LocalNodes[0]]
		for _, p := range r.Pending {
			nd.work.put(workItem{from: p.From, sub: p.Msg, enqID: p.EnqID})
		}
	}
	c.net.Start()
	if c.cfg.Failover {
		for _, m := range c.fo {
			m.lease.start(m.tick)
		}
	}
}

// Close shuts the cluster down. Callers should quiesce (wait for
// outstanding handles) first; queued work is abandoned. Any
// coordinator blocked in Advance/Recover is woken and unwinds with
// ErrClosed.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	// Stop every manager first: this unwinds any in-flight takeover (its
	// Recover returns ErrClosed) and blocks until its goroutines exit, so
	// Close can never race an election into a half-run sweep.
	for _, m := range c.fo {
		m.stop()
	}
	if c.ownsNet {
		c.net.Close()
	}
	for _, nd := range c.nodes {
		if nd != nil {
			nd.stop()
		}
	}
}

// Node returns database node i (tests, trace, verifiers). In
// distributed mode it is nil for nodes hosted by other processes.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NumNodes returns the number of database nodes cluster-wide
// (including, in distributed mode, nodes hosted elsewhere).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Partitions returns the partition count (1 when unpartitioned).
func (c *Cluster) Partitions() int { return c.nparts }

// PlacementMap returns the cluster's partition placement map. The map
// is immutable after construction; callers must not mutate it.
func (c *Cluster) PlacementMap() *partition.Map { return c.pmap }

// Replicating reports whether per-partition replica groups are active.
func (c *Cluster) Replicating() bool { return c.cfg.Replicate }

// SetReplHooks arms callbacks fired after a subtransaction's replica
// fan-out is sent and after a replica child finishes at its owner —
// the seams the crash harness uses to kill processes at deterministic
// replication points. Pass nil, nil to disarm. Affects all local nodes.
func (c *Cluster) SetReplHooks(send, apply func(part int)) {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.replSendHook = send
			nd.replApplyHook = apply
		}
	}
}

// PartitionState is one partition's operator-visible status, as served
// by threev-node's /state and checked by the verifiers.
type PartitionState struct {
	Part int           `json:"part"`
	VR   model.Version `json:"vr"`
	VU   model.Version `json:"vu"`
	// MaxLag is the largest outstanding R−C counter-lag entry for the
	// partition, or -1 in distributed-mode processes, where the
	// cluster-wide matrix is not computable locally.
	MaxLag int64 `json:"max_lag"`
}

// PartitionStates reports each partition's version pair (the
// coordinator's view when hosted here, else the first local node's) and
// its largest outstanding counter lag.
func (c *Cluster) PartitionStates() []PartitionState {
	coord := c.currentCoordinator()
	var ref *Node
	for _, nd := range c.nodes {
		if nd != nil {
			ref = nd
			break
		}
	}
	out := make([]PartitionState, c.nparts)
	for p := 0; p < c.nparts; p++ {
		st := PartitionState{Part: p}
		if coord != nil {
			st.VR, st.VU = coord.VersionsPart(p)
		} else if ref != nil {
			st.VR, st.VU = ref.VersionsPart(p)
		}
		if c.distributed {
			st.MaxLag = -1
		}
		out[p] = st
	}
	if !c.distributed {
		for _, l := range c.CounterLagSamples() {
			if l.Part >= 0 && l.Part < len(out) && l.MaxPairLag > out[l.Part].MaxLag {
				out[l.Part].MaxLag = l.MaxPairLag
			}
		}
	}
	return out
}

// PartitionPairs returns each partition's (vr, vu) pair indexed by
// partition id — the flat form verify.CheckPartitions consumes.
func (c *Cluster) PartitionPairs() [][2]model.Version {
	states := c.PartitionStates()
	out := make([][2]model.Version, len(states))
	for i, st := range states {
		out[i] = [2]model.Version{st.VR, st.VU}
	}
	return out
}

// Coordinator returns the current advancement coordinator, or nil in a
// distributed-mode process that does not host it.
func (c *Cluster) Coordinator() *Coordinator { return c.currentCoordinator() }

func (c *Cluster) currentCoordinator() *Coordinator {
	if m := c.activeManager(); m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.coord
	}
	return nil
}

// activeManager returns the local failover manager currently holding
// the coordinator role, or nil (this process hosts no coordinator, or
// only standbys). Two local managers can transiently both be active —
// near-simultaneous takeovers before the lower term's coordinator is
// fenced and demoted — so the highest term wins routing.
func (c *Cluster) activeManager() *FailoverManager {
	var best *FailoverManager
	var bestTerm uint64
	for _, m := range c.fo {
		if active, term := m.snapshot(); active && (best == nil || term > bestTerm) {
			best, bestTerm = m, term
		}
	}
	return best
}

// FailoverManagers returns the local managers (tests, chaos harness):
// one per local node with Config.Failover, else node 0's alone.
func (c *Cluster) FailoverManagers() []*FailoverManager { return c.fo }

// CoordinatorStatus reports whether this process currently hosts the
// active advancement coordinator and the highest fencing term observed
// here.
func (c *Cluster) CoordinatorStatus() (active bool, term uint64) {
	for _, m := range c.fo {
		a, t := m.snapshot()
		if a {
			active = true
		}
		if t > term {
			term = t
		}
	}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if t := nd.coordTerm.Load(); t > term {
			term = t
		}
	}
	return active, term
}

// SetPhaseHook arms a callback fired after each completed phase (1–4)
// of every advancement cycle driven from this process — sweeps, and the
// cycles Recover or the catch-up before a sweep finish — the seam the
// chaos harness uses to kill the coordinator at a deterministic
// protocol point. Pass nil to disarm. A failover takeover's coordinator
// inherits the hook; CrashCoordinator's successor starts without one.
// The hook runs on the sweep's goroutine, outside coordinator locks.
// Partition-aware callers should use SetPartPhaseHook, which also
// reports which partition's sweep completed the phase.
func (c *Cluster) SetPhaseHook(h func(phase int)) {
	if h == nil {
		c.SetPartPhaseHook(nil)
		return
	}
	c.SetPartPhaseHook(func(_, phase int) { h(phase) })
}

// SetPartPhaseHook arms the partition-aware variant of SetPhaseHook:
// the callback receives (partition, phase) after each completed phase
// of every sweep driven from this process. Pass nil to disarm.
func (c *Cluster) SetPartPhaseHook(h func(part, phase int)) {
	c.hookMu.Lock()
	c.phaseHook = h
	c.hookMu.Unlock()
	for _, m := range c.fo {
		m.mu.Lock()
		co := m.coord
		m.mu.Unlock()
		if co != nil {
			co.setPhaseHook(h)
		}
	}
}

func (c *Cluster) getPhaseHook() func(part, phase int) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	return c.phaseHook
}

// KillActiveCoordinator chaos-crashes whichever local manager is
// currently active: its in-flight sweep unwinds with ErrCrashed and the
// manager leaves the election permanently, so with Failover a standby
// must take over via lease expiry (without it, nothing does). Returns
// the killed term and true, or 0 and false when no local manager was
// active.
func (c *Cluster) KillActiveCoordinator() (uint64, bool) {
	m := c.activeManager()
	if m == nil {
		return 0, false
	}
	return m.kill()
}

// Network returns the underlying transport (stats, scripted delivery).
func (c *Cluster) Network() transport.Network { return c.net }

// Session returns the reliable-delivery session layer, or nil when the
// cluster was built without Reliable. The durability layer binds to it
// for the two-phase (Prepare/CommitPrepared) child sends.
func (c *Cluster) Session() *reliable.Session {
	s, _ := c.net.(*reliable.Session)
	return s
}

// Preload installs an initial version-0 record at a node, as in the
// paper's initial state. Call before Start.
func (c *Cluster) Preload(node model.NodeID, key string, rec *model.Record) {
	nd := c.nodes[node]
	if nd == nil {
		panic(fmt.Sprintf("core: Preload of node %d, which is not hosted by this process", node))
	}
	nd.store.Preload(key, rec)
}

// Submit validates and launches a transaction; the returned handle
// observes its progress. The root subtransaction is sent to
// spec.Root.Node and versioned there, per the tree model.
func (c *Cluster) Submit(spec *model.TxnSpec) (*Handle, error) {
	if err := c.validateSpec(spec); err != nil {
		return nil, err
	}
	h, m := c.launch(spec)
	c.net.Send(m)
	return h, nil
}

// SubmitBatch validates and launches a group of transactions as one
// admission flush: all specs are validated before any is launched, and
// the root subtransactions bound for the same node travel in a single
// batched loopback envelope instead of one frame each. Returns one
// handle per spec, aligned with specs. Semantically equivalent to
// calling Submit in a loop — every member still runs as an independent
// transaction — but the hot path pays one send (and downstream, one
// admission wakeup) per destination instead of per transaction.
func (c *Cluster) SubmitBatch(specs []*model.TxnSpec) ([]*Handle, error) {
	for _, spec := range specs {
		if err := c.validateSpec(spec); err != nil {
			return nil, err
		}
	}
	handles := make([]*Handle, len(specs))
	byNode := make(map[model.NodeID][]transport.Message)
	var order []model.NodeID
	for i, spec := range specs {
		h, m := c.launch(spec)
		handles[i] = h
		if _, ok := byNode[m.To]; !ok {
			order = append(order, m.To)
		}
		byNode[m.To] = append(byNode[m.To], m)
	}
	for _, n := range order {
		msgs := byNode[n]
		if len(msgs) == 1 {
			c.net.Send(msgs[0])
			continue
		}
		c.net.Send(transport.Message{From: n, To: n, Payload: transport.BatchMsg{Msgs: msgs}})
	}
	return handles, nil
}

// validateSpec runs Submit's admission checks without side effects, so
// SubmitBatch can reject a whole batch before launching any member.
func (c *Cluster) validateSpec(spec *model.TxnSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.NonCommuting && !c.cfg.NCMode {
		return fmt.Errorf("core: non-commuting transaction %q requires NCMode", spec.Label)
	}
	if int(spec.Root.Node) >= len(c.nodes) {
		return fmt.Errorf("core: root node %d out of range", spec.Root.Node)
	}
	if c.nodes[spec.Root.Node] == nil {
		return fmt.Errorf("core: root node %d is not hosted by this process (submit at its host)", spec.Root.Node)
	}
	if c.nparts > 1 {
		part := -1
		if err := checkSinglePartition(c.pmap, spec.Root, spec.Label, &part); err != nil {
			return err
		}
	}
	return nil
}

// checkSinglePartition enforces the partitioned admission rule: every
// key a transaction tree touches must hash to one partition.
// Cross-partition trees would increment counters in two independent
// epochs and are out of scope until distributed NC3V (DESIGN.md §5a).
func checkSinglePartition(pmap *partition.Map, s *model.SubtxnSpec, label string, part *int) error {
	check := func(key string) error {
		p := pmap.Of(key)
		if *part == -1 {
			*part = p
			return nil
		}
		if *part != p {
			return fmt.Errorf("core: transaction %q touches partitions %d and %d; cross-partition transactions are unsupported", label, *part, p)
		}
		return nil
	}
	for _, k := range s.Reads {
		if err := check(k); err != nil {
			return err
		}
	}
	for _, op := range s.Updates {
		if err := check(op.Key); err != nil {
			return err
		}
	}
	for _, ch := range s.Children {
		if err := checkSinglePartition(pmap, ch, label, part); err != nil {
			return err
		}
	}
	return nil
}

// specPartition returns the partition a validated spec is pinned to:
// the partition of the first key the tree touches (keyless trees run in
// partition 0). validateSpec has already checked the tree is
// single-partition, so any key is representative.
func (c *Cluster) specPartition(spec *model.TxnSpec) int {
	if c.nparts <= 1 {
		return 0
	}
	part := -1
	if err := checkSinglePartition(c.pmap, spec.Root, spec.Label, &part); err != nil || part < 0 {
		return 0
	}
	return part
}

// launch creates the handle and root message for a validated spec. The
// caller sends the returned message (directly, or inside a batch).
func (c *Cluster) launch(spec *model.TxnSpec) (*Handle, transport.Message) {
	// TxnIDs embed the root node id, and each node is hosted by exactly
	// one process, so the per-process sequence stays globally unique.
	id := model.MakeTxnID(spec.Root.Node, c.seq.Add(1))
	h := newHandle(id)
	h.rootOnly = c.distributed
	h.isUpdate = !spec.ReadOnly()
	h.needsUnlock = c.cfg.NCMode && h.isUpdate && !spec.NonCommuting
	c.handles.Store(id, h)
	h.addExpected(1)
	c.reg.Inc(obs.CtrTxnsSubmitted, 1)
	if c.reg.SampleTick() {
		c.reg.RecordEvent(obs.Event{Kind: obs.EvTxnSpawn, Node: int(spec.Root.Node),
			Txn: id.String(), Detail: spec.Label})
	}
	// Head sampling: 1 in TraceSampleN submissions carries a trace
	// context (trace id = transaction id, root span id = trace id by
	// convention). SentAt aligns with the handle's submit stamp so the
	// stage partition telescopes to the handle's measured latency.
	if c.reg.TraceSampleTick() && !spec.NonCommuting {
		h.tc = obs.TraceContext{TraceID: uint64(id), SpanID: uint64(id)}
	}
	var sentAt time.Time
	if c.reg != nil {
		sentAt = h.submitted
	}
	return h, transport.Message{
		From: spec.Root.Node,
		To:   spec.Root.Node,
		TC:   h.tc,
		Payload: SubtxnMsg{
			Txn:      id,
			Root:     true,
			Spec:     spec.Root,
			ReadOnly: spec.ReadOnly(),
			NC:       spec.NonCommuting,
			RootNode: spec.Root.Node,
			SentAt:   sentAt,
			Part:     c.specPartition(spec),
		},
	}
}

// Advance runs one full version-advancement cycle and blocks until it
// completes (user transactions are unaffected throughout). In a
// distributed-mode process without the coordinator it fails with
// ErrNoCoordinator.
func (c *Cluster) Advance() AdvanceReport {
	coord := c.currentCoordinator()
	if coord == nil {
		return AdvanceReport{Interrupted: true, Err: ErrNoCoordinator}
	}
	return coord.RunAdvancement()
}

// AdvancePartition runs one advancement cycle for a single partition
// and blocks until it completes. Sweeps for different partitions are
// independent: each takes its own per-partition lock, exchanges
// partition-tagged messages and polls a disjoint counter matrix, so an
// advancement of partition a never waits on in-flight traffic in
// partition b.
func (c *Cluster) AdvancePartition(part int) AdvanceReport {
	if part < 0 || part >= c.nparts {
		return AdvanceReport{Part: part, Interrupted: true,
			Err: fmt.Errorf("core: partition %d out of range [0,%d)", part, c.nparts)}
	}
	coord := c.currentCoordinator()
	if coord == nil {
		return AdvanceReport{Part: part, Interrupted: true, Err: ErrNoCoordinator}
	}
	return coord.RunAdvancementPart(part)
}

// AdvanceAsync launches an advancement cycle in the background.
func (c *Cluster) AdvanceAsync() <-chan AdvanceReport {
	ch := make(chan AdvanceReport, 1)
	go func() { ch <- c.Advance() }()
	return ch
}

// observer implementation: route node callbacks to handles. Lookups
// that miss (a handle for a foreign cluster, never here in practice)
// are ignored.

func (c *Cluster) handleFor(txn model.TxnID) *Handle {
	v, ok := c.handles.Load(txn)
	if !ok {
		return nil
	}
	return v.(*Handle)
}

func (c *Cluster) onSpawn(txn model.TxnID, n int) {
	if h := c.handleFor(txn); h != nil && !h.rootOnly {
		h.addExpected(n)
	}
}

func (c *Cluster) onDone(txn model.TxnID, node model.NodeID, reads []model.ReadResult, aborted, root bool) {
	h := c.handleFor(txn)
	if h == nil {
		return
	}
	if h.rootOnly && !root {
		// Distributed mode: descendants (local or remote) do not gate
		// the handle; the root's termination is the completion edge.
		return
	}
	completed := h.reportDone(node, reads, aborted, &c.updatesDone)
	if completed && c.reg != nil {
		status := h.Status()
		total := h.Latency()
		c.reg.ObserveTxnLatency(!h.isUpdate, total)
		kind, ctr := obs.EvTxnDone, ctrForStatus(status)
		if status != StatusCommitted {
			kind = obs.EvTxnAbort
		}
		c.reg.Inc(ctr, 1)
		if c.reg.SampleTick() {
			c.reg.RecordEvent(obs.Event{Kind: kind, Node: int(node), Txn: txn.String(),
				Detail: status.String()})
		}
		// Completion edge of the trace: record the root span (merging the
		// stage breakdown the root's executing node parked) and feed the
		// stage histograms; slow unsampled transactions get a post-hoc
		// root-only span.
		c.reg.TraceTxnDone(uint64(txn), int(node), h.tc.Sampled(), h.submitted, total,
			txn.String()+" "+status.String())
	}
	if h.Status() != StatusPending && h.takeUnlock() {
		// Asynchronous clean-up phase (Section 5): release the commute
		// locks this well-behaved transaction holds, now that its whole
		// tree has committed.
		coordID := model.NodeID(c.cfg.Nodes)
		for _, n := range h.Nodes() {
			c.net.Send(transport.Message{From: coordID, To: n, Payload: UnlockMsg{Txn: txn}})
		}
	}
}

func (c *Cluster) onVersion(txn model.TxnID, v model.Version) {
	if h := c.handleFor(txn); h != nil {
		h.reportVersion(v)
	}
}

func (c *Cluster) onNCAbort(txn model.TxnID) {
	if h := c.handleFor(txn); h != nil {
		h.reportNCAbort()
	}
}

// ctrForStatus maps a terminal handle status to its obs counter.
func ctrForStatus(s Status) int {
	switch s {
	case StatusCompensated:
		return obs.CtrTxnsCompensated
	case StatusAborted:
		return obs.CtrTxnsAborted
	default:
		return obs.CtrTxnsCommitted
	}
}

// ClusterMetrics aggregates per-node, transport and observability
// accounting.
type ClusterMetrics struct {
	PerNode   []NodeMetrics
	Storage   []storage.Stats
	Transport transport.Stats
	// Obs is the observability snapshot (latency histograms, phase
	// timers, counter-lag gauges); zero-valued when observability is
	// disabled.
	Obs obs.Snapshot
}

// Metrics returns a snapshot of all counters.
func (c *Cluster) Metrics() ClusterMetrics {
	m := ClusterMetrics{Transport: c.net.Stats(), Obs: c.ObsSnapshot()}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		m.PerNode = append(m.PerNode, nd.Metrics())
		m.Storage = append(m.Storage, nd.store.Stats())
	}
	return m
}

// Obs exposes the cluster's observability registry (nil when disabled).
func (c *Cluster) Obs() *obs.Registry { return c.reg }

// ObsSnapshot refreshes the live counter-lag gauges from the nodes'
// counter tables and returns the full observability snapshot. It is
// safe to call concurrently with a running workload: it only reads
// counter snapshots the protocol itself exchanges.
func (c *Cluster) ObsSnapshot() obs.Snapshot {
	if c.reg == nil {
		return obs.Snapshot{}
	}
	for _, l := range c.CounterLagSamples() {
		c.reg.SetCounterLag(l)
	}
	ts := c.net.Stats()
	c.reg.SetGauge(obs.GaugeNetDropped, float64(ts.Dropped+ts.PartitionDrops))
	c.reg.SetGauge(obs.GaugeNetDuplicated, float64(ts.Duplicated))
	c.reg.SetGauge(obs.GaugeNetRetransmits, float64(ts.Retransmits))
	c.reg.SetGauge(obs.GaugeNetDupDropped, float64(ts.DupDropped))
	c.reg.SetGauge(obs.GaugeNetBytesSent, float64(ts.BytesSent))
	c.reg.SetGauge(obs.GaugeNetBytesReceived, float64(ts.BytesReceived))
	c.reg.SetGauge(obs.GaugeNetReconnects, float64(ts.Reconnects))
	return c.reg.Snapshot()
}

// ObsEvents returns the retained structured-event-log entries
// oldest-first (post-mortem dump).
func (c *Cluster) ObsEvents() []obs.Event { return c.reg.Events() }

// ObsTraces assembles the sampled-transaction and sweep traces recorded
// on this process, newest-root-first. Empty unless tracing was enabled
// via obs.Options.TraceSampleN.
func (c *Cluster) ObsTraces() []obs.Trace { return c.reg.Traces() }

// CounterLagSamples assembles, for every version that still has
// counter rows anywhere, the cluster-wide R[v][p][q] − C[v][p][q] lag —
// the exact quantity whose convergence to zero the advancement
// coordinator polls for in Phases 2 and 4. Sampling is asynchronous
// (the same sloppy-read regime the coordinator operates under), so a
// transiently negative pair is clamped rather than reported.
func (c *Cluster) CounterLagSamples() []obs.CounterLag {
	var out []obs.CounterLag
	for part := 0; part < c.nparts; part++ {
		versions := make(map[model.Version]bool)
		for _, nd := range c.nodes {
			if nd == nil {
				continue
			}
			for _, v := range nd.cnts[part].Versions() {
				versions[v] = true
			}
		}
		for v := range versions {
			snap := counters.NewSnapshot(len(c.nodes))
			for _, nd := range c.nodes {
				if nd == nil {
					continue
				}
				snap.SetFromNode(nd.id, nd.cnts[part].SnapshotR(v), nd.cnts[part].SnapshotC(v))
			}
			lag := lagOf(snap)
			lag.Version = int64(v)
			lag.Part = part
			out = append(out, lag)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Part != out[j].Part {
			return out[i].Part < out[j].Part
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// ConvergenceErrors checks that the cluster has settled into the
// quiescent state the protocol promises once all activity stops: every
// node and the coordinator agree on (vr, vu), and for every live
// version the cluster-wide counter matrices balance (R[v] == C[v]^T) —
// no subtransaction was ever lost or double-counted. Call after
// workloads drain (and, under fault injection, after Heal plus a
// settle delay); a healthy cluster returns nil.
func (c *Cluster) ConvergenceErrors() []string {
	var errs []string
	if coord := c.currentCoordinator(); coord != nil {
		for part := 0; part < c.nparts; part++ {
			cvr, cvu := coord.VersionsPart(part)
			for _, nd := range c.nodes {
				if nd == nil {
					continue
				}
				vr, vu := nd.VersionsPart(part)
				if vr != cvr || vu != cvu {
					if c.nparts > 1 {
						errs = append(errs, fmt.Sprintf(
							"partition %d: node %d at (vr=%d, vu=%d), coordinator at (vr=%d, vu=%d)",
							part, nd.id, vr, vu, cvr, cvu))
					} else {
						errs = append(errs, fmt.Sprintf(
							"node %d at (vr=%d, vu=%d), coordinator at (vr=%d, vu=%d)",
							nd.id, vr, vu, cvr, cvu))
					}
				}
			}
		}
	}
	if c.distributed {
		// Counter matrices span processes and each process holds only its
		// own nodes' rows, so the cluster-wide balance check is not
		// computable here. Cross-process balance is what a completed
		// advancement cycle certifies: its quiescence polls collect the
		// full matrix over the network.
		sort.Strings(errs)
		return errs
	}
	for part := 0; part < c.nparts; part++ {
		versions := make(map[model.Version]bool)
		for _, nd := range c.nodes {
			for _, v := range nd.cnts[part].Versions() {
				versions[v] = true
			}
		}
		for v := range versions {
			snap := counters.NewSnapshot(len(c.nodes))
			for _, nd := range c.nodes {
				snap.SetFromNode(nd.id, nd.cnts[part].SnapshotR(v), nd.cnts[part].SnapshotC(v))
			}
			if !snap.Balanced() {
				if c.nparts > 1 {
					errs = append(errs, fmt.Sprintf(
						"partition %d version %d counters unbalanced: R != C (lost or duplicated subtransactions)", part, v))
				} else {
					errs = append(errs, fmt.Sprintf(
						"version %d counters unbalanced: R != C (lost or duplicated subtransactions)", v))
				}
			}
		}
	}
	sort.Strings(errs)
	return errs
}

// Violations gathers every recorded invariant violation across nodes;
// a correct run returns nil.
func (c *Cluster) Violations() []string {
	var out []string
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		out = append(out, nd.Metrics().Violations...)
	}
	return out
}

// CommittedUpdates returns the number of update transactions that have
// fully committed since the cluster started — the quantity behind the
// "advance once N update transactions have accumulated" trigger policy.
func (c *Cluster) CommittedUpdates() int64 { return c.updatesDone.Load() }

// PendingItems sums, across nodes, the items carrying updates not yet
// visible to readers (each node judged against its own read version).
func (c *Cluster) PendingItems() int {
	n := 0
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		n += nd.store.PendingItems(nd.minVR())
	}
	return n
}

// Divergence sums, across nodes, the per-item difference of the named
// summary field between the newest version and the readable version —
// the paper's value-divergence trigger quantity.
func (c *Cluster) Divergence(field string) int64 {
	var total int64
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		total += nd.store.Divergence(nd.minVR(), field)
	}
	return total
}

// MaxLiveVersionsEver returns the largest number of simultaneously live
// versions any item on any node ever had — the paper's "at most three
// copies" bound, measured.
func (c *Cluster) MaxLiveVersionsEver() int {
	max := 0
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if n := nd.store.Stats().MaxLiveVersions; n > max {
			max = n
		}
	}
	return max
}

var _ observer = (*Cluster)(nil)
