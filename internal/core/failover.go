package core

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file hosts the advancement coordinator: every coordinator a
// cluster runs is built and owned by a FailoverManager under a positive
// fencing term. Without Config.Failover there is one manager, node 0's,
// and its lease never ticks. With it, the coordinator is no longer a
// single point of failure. recovery.go showed that a successor can
// finish any interrupted cycle from the nodes' observable state, because
// every phase is an idempotent max-merge; what remained was detection
// and election. The paper (Section 4.3) assumes "a distributed mutual
// exclusion mechanism" keeps one advancement running; here that is a
// heartbeat lease with candidate position = node id:
//
//   - every locally hosted node gets a FailoverManager owning
//     coordinator endpoint Nodes+id (node 0's is endpoint Nodes);
//   - the active manager broadcasts CoordStateMsg heartbeats, mirroring
//     its term, (vr, vu) and current phase to all standbys;
//   - a standby whose lease lapses claims the role, journals the term
//     through the node's Journal.CoordTerm, and re-drives the in-flight
//     sweep via Coordinator.Recover — exactly the idempotent
//     ResendInterval path;
//   - the nodes' stale-term fencing (Node.observeTerm) deposes
//     whichever coordinator loses a race of takeovers.
//
// Safety never depends on the lease: the coordinator's phases are
// idempotent max-merges (DESIGN.md §5a item 8). The lease adds
// determinism and liveness.

// FailoverManager supervises one locally hosted node's claim on the
// coordinator role. At most one manager cluster-wide is active (holds a
// live Coordinator and heartbeats); the rest are standbys watching the
// lease through their co-located node's accepted heartbeats.
type FailoverManager struct {
	c     *Cluster
	node  *Node
	ep    model.NodeID // this manager's coordinator endpoint: Nodes + node id
	lease *lease

	mu     sync.Mutex
	active bool
	halted bool         // chaos-killed: never heartbeats or elects again
	coord  *Coordinator // non-nil once this manager ever took over
	wg     sync.WaitGroup
}

func newFailoverManager(c *Cluster, nd *Node) *FailoverManager {
	return &FailoverManager{
		c:     c,
		node:  nd,
		ep:    model.NodeID(c.cfg.Nodes + int(nd.id)),
		lease: newLease(c.cfg.FailoverConfig, nd.id, c.cfg.Nodes),
	}
}

// handleEndpoint is the transport handler for the manager's coordinator
// endpoint: it dispatches to whatever coordinator the manager currently
// hosts (acks and replies keep folding into a demoted coordinator
// harmlessly; a manager that never took over drops the traffic).
func (m *FailoverManager) handleEndpoint(msg transport.Message) {
	m.mu.Lock()
	co := m.coord
	m.mu.Unlock()
	if co != nil {
		co.handleMessage(msg)
	}
}

// noteBeat is called by the co-located node for every heartbeat it
// accepted (stale terms were already fenced off in Node.handleMessage).
// A higher-term heartbeat while this manager holds the role deposes
// its coordinator.
func (m *FailoverManager) noteBeat(p CoordStateMsg) {
	from := model.NodeID(int(p.Coord) - m.c.cfg.Nodes)
	if !m.lease.observe(from, p.Term, time.Now()) {
		return
	}
	m.mu.Lock()
	co := m.coord
	m.mu.Unlock()
	if co != nil {
		co.depose()
	}
}

func (m *FailoverManager) tick(now time.Time) {
	m.mu.Lock()
	co, active, halted := m.coord, m.active, m.halted
	m.mu.Unlock()
	switch {
	case halted:
	case active && co.isDeposed():
		m.demote(co)
	case active:
		m.heartbeat(co)
	case m.lease.due(int(m.node.id), now):
		m.takeover()
	}
}

// heartbeat broadcasts the lease renewal and state mirror. VR/VU come
// from the co-located node (lock-free with respect to the sweep itself;
// Coordinator.Versions would block on advMu for the whole sweep).
func (m *FailoverManager) heartbeat(co *Coordinator) {
	vr, vu := m.node.Versions()
	msg := CoordStateMsg{Term: co.term, Coord: m.ep, VR: vr, VU: vu, Phase: co.currentPhase()}
	for i := 0; i < m.c.cfg.Nodes; i++ {
		m.c.net.Send(transport.Message{From: m.ep, To: model.NodeID(i), Payload: msg})
	}
}

// takeover elects this manager: claim the role, journal its term,
// install a fresh coordinator at our endpoint, and resume the
// predecessor's sweep in the background (heartbeats flow from the
// lease loop while Recover probes and re-drives phases). Also the test
// hook for double-coordinator fencing: calling it on a standby while
// the incumbent is alive starts a second, higher-term coordinator.
func (m *FailoverManager) takeover() *Coordinator {
	m.mu.Lock()
	var co *Coordinator
	if !m.active && !m.halted {
		co = m.claimLocked(m.c.getPhaseHook())
	}
	if co == nil {
		m.mu.Unlock()
		return nil
	}
	m.wg.Add(1)
	m.mu.Unlock()

	// Durable before driving any phase: a post-crash restart of this
	// process must not propose a term at or below this one.
	m.node.observeTermAll(co.term)
	m.c.reg.SetGauge(obs.GaugeCoordActive, 1)
	m.c.reg.Inc(obs.CtrTakeovers, 1)
	m.c.reg.RecordEvent(obs.Event{Kind: obs.EvTakeover, Node: int(m.node.id),
		Detail: "coordinator takeover, term " + itoa(co.term)})
	if f := m.c.cfg.FailoverConfig.OnRoleChange; f != nil {
		f(m.node.id, co.term)
	}
	m.heartbeat(co) // announce immediately; renews standbys' leases

	go func() {
		defer m.wg.Done()
		if _, err := co.Recover(); err != nil {
			// Deposed, closed, or crashed mid-recovery: relinquish the
			// role. A later tick may elect us again if the lease lapses.
			m.demote(co)
		}
	}()
	return co
}

// demote drops the active role for coordinator co (no-op if another
// takeover already replaced it).
func (m *FailoverManager) demote(co *Coordinator) {
	m.mu.Lock()
	if m.coord != co || !m.active {
		m.mu.Unlock()
		return
	}
	m.active = false
	m.mu.Unlock()
	holder, term := m.lease.release(time.Now()) // full lease before trying to re-elect
	m.c.reg.SetGauge(obs.GaugeCoordActive, 0)
	if f := m.c.cfg.FailoverConfig.OnRoleChange; f != nil {
		f(holder, term)
	}
}

// kill chaos-crashes this manager: its coordinator dies mid-sweep (any
// in-flight RunAdvancement/Recover unwinds with ErrCrashed) and the
// manager is permanently out of the election — the in-process stand-in
// for kill -9 of the coordinator's host.
func (m *FailoverManager) kill() (term uint64, wasActive bool) {
	m.mu.Lock()
	co := m.coord
	wasActive = m.active
	m.halted = true
	m.active = false
	m.mu.Unlock()
	m.c.reg.SetGauge(obs.GaugeCoordActive, 0)
	if co != nil {
		co.crash()
	}
	_, term = m.lease.get()
	return term, wasActive
}

// stop shuts the manager down (Cluster.Close): the lease loop exits and
// refuses further claims, any hosted coordinator's waits unwind with
// ErrClosed, and stop blocks until the background recovery goroutine
// (if any) has unwound — so Close never leaks a takeover that would
// double-run a sweep.
func (m *FailoverManager) stop() {
	m.lease.stop()
	m.mu.Lock()
	co := m.coord
	m.mu.Unlock()
	if co != nil {
		co.shutdown()
	}
	m.wg.Wait()
}

// snapshot returns the manager's role and the highest term it has
// minted or heard, for status surfaces.
func (m *FailoverManager) snapshot() (active bool, term uint64) {
	m.mu.Lock()
	active = m.active
	m.mu.Unlock()
	_, term = m.lease.get()
	return active, term
}

// promote makes this manager active without an election, under a term
// above any it has seen or its node has journaled, and journals that
// term: the cluster's starting coordinator (NewCluster: node 0
// in-process, or the process started with the active role in
// distributed mode), or CrashCoordinator's successor, which so fences
// its predecessor. It returns nil once the manager is stopped.
func (m *FailoverManager) promote() *Coordinator {
	m.mu.Lock()
	co := m.claimLocked(nil)
	m.mu.Unlock()
	if co != nil {
		m.node.observeTermAll(co.term)
		m.c.reg.SetGauge(obs.GaugeCoordActive, 1)
	}
	return co
}

// claimLocked makes this manager active, hosting a fresh coordinator
// with chaos hook hook under a term above every term it has seen or
// its node has journaled. It is the one constructor of the
// coordinators a cluster hosts. It returns nil once the manager is
// stopped. Callers hold m.mu and journal the term before announcing it.
func (m *FailoverManager) claimLocked(hook func(part, phase int)) *Coordinator {
	term := m.lease.claim(m.node.coordTerm.Load(), time.Now())
	if term == 0 {
		return nil
	}
	cfg := &m.c.cfg
	co := newCoordinator(cfg.Nodes, m.c.nparts, m.c.net, cfg.PollInterval, cfg.AckTimeout, cfg.ResendInterval, m.c.reg)
	co.id, co.term, co.batchedCounters, co.phaseHook = m.ep, term, cfg.BatchedCounters, hook
	m.coord, m.active = co, true
	return co
}

// LeaseConfig tunes the coordinator lease (Config.FailoverConfig).
// Every rule takes the current time as a parameter:
//
//   - the holder renews the lease by heartbeating every LeaseInterval;
//   - a candidate at position pos is due once the lease has been silent
//     for LeaseTimeout + pos×LeaseInterval, so the lowest live position
//     claims first and its announcement renews everyone else's lease
//     before their own threshold passes;
//   - a claim mints nextTerm above every term seen and above the
//     caller's journaled floor — terms are partitioned by proposer, so
//     two claims never mint the same term;
//   - a beat renews the lease when it carries a higher term (adopting
//     its sender as holder) or comes from the current holder. Because
//     terms are partitioned by proposer, an equal term from any other
//     sender cannot occur.
type LeaseConfig struct {
	// LeaseInterval is the holder's heartbeat period; 0 means 25ms.
	LeaseInterval time.Duration
	// LeaseTimeout is how long a candidate tolerates heartbeat silence
	// before claiming (plus a stagger of one LeaseInterval per candidate
	// position, so earlier positions win ties); 0 means 4×LeaseInterval.
	LeaseTimeout time.Duration
	// OnRoleChange, when set, observes this process's view of the
	// holder changing: on a claim holder is the local node; on stepping
	// down it is the node whose beat won, or -1 when the successor is
	// not yet heard. Called outside locks; used for logging.
	OnRoleChange func(holder model.NodeID, term uint64)
}

func (lc LeaseConfig) withDefaults() LeaseConfig {
	if lc.LeaseInterval <= 0 {
		lc.LeaseInterval = 25 * time.Millisecond
	}
	if lc.LeaseTimeout <= 0 {
		lc.LeaseTimeout = 4 * lc.LeaseInterval
	}
	return lc
}

// nextTerm returns the smallest term node id may propose that is
// strictly greater than maxSeen. Terms are partitioned by proposer —
// term ≡ id+1 (mod n) — so concurrent claims by different nodes always
// mint distinct, totally ordered terms.
func nextTerm(maxSeen uint64, id model.NodeID, n int) uint64 {
	k := maxSeen / uint64(n)
	t := k*uint64(n) + uint64(id) + 1
	if t <= maxSeen {
		t += uint64(n)
	}
	return t
}

// noHolder marks a lease whose holder is unknown (before any beat, or
// after this node stepped down).
const noHolder model.NodeID = -1

// lease is this node's view of the coordinator lease, plus the ticker
// that drives the heartbeats and elections.
type lease struct {
	cfg  LeaseConfig
	self model.NodeID
	n    int // number of proposers (database nodes)

	mu      sync.Mutex
	holder  model.NodeID
	term    uint64    // highest term minted or adopted
	last    time.Time // last renewing beat (or own claim, or release)
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

func newLease(cfg LeaseConfig, self model.NodeID, n int) *lease {
	return &lease{cfg: cfg.withDefaults(), self: self, n: n, holder: noHolder, stopCh: make(chan struct{})}
}

// due reports whether this node, a candidate at position pos, should
// claim the lease at now.
func (l *lease) due(pos int, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	wait := l.cfg.LeaseTimeout + time.Duration(pos)*l.cfg.LeaseInterval
	return l.holder != l.self && now.Sub(l.last) > wait
}

// claim makes this node the holder under a fresh term above every term
// seen and above floor (the caller's journaled high-water mark, so a
// restarted node never re-mints a fenced term). It returns 0 once the
// lease is stopped. The caller journals the term before announcing it.
func (l *lease) claim(floor uint64, now time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return 0
	}
	l.term = nextTerm(max(l.term, floor), l.self, l.n)
	l.holder, l.last = l.self, now
	return l.term
}

// observe folds a beat from node from at term into the lease: a lower
// term is ignored; a higher term, or the current holder's beat, renews
// the lease and makes from the holder. It reports whether this node
// held the lease and has just lost it.
func (l *lease) observe(from model.NodeID, term uint64, now time.Time) (deposed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if term < l.term || (term == l.term && from != l.holder) {
		return false
	}
	deposed = l.holder == l.self && from != l.self
	l.holder, l.term, l.last = from, term, now
	return deposed
}

// release steps this node down (if it still holds the lease) and
// restarts the clock, so it is not due again for a full lease. It
// returns the holder and term afterwards.
func (l *lease) release(now time.Time) (model.NodeID, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder == l.self {
		l.holder = noHolder
	}
	l.last = now
	return l.holder, l.term
}

// get returns this node's view of the holder and term.
func (l *lease) get() (model.NodeID, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holder, l.term
}

// start opens the start-up grace period and launches the ticker, which
// calls tick every LeaseInterval until stop.
func (l *lease) start(tick func(now time.Time)) {
	l.mu.Lock()
	l.last = time.Now()
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(l.cfg.LeaseInterval)
		defer t.Stop()
		for {
			select {
			case <-l.stopCh:
				return
			case <-t.C:
				tick(time.Now())
			}
		}
	}()
}

// stop ends the ticker and refuses further claims; idempotent.
func (l *lease) stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	close(l.stopCh)
	l.mu.Unlock()
	l.wg.Wait()
}

// itoa is strconv.Itoa for uint64 without pulling fmt into the hot path.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
