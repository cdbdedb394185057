package core

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file removes the advancement coordinator as a single point of
// failure. The paper (Section 4.3) assumes "a distributed mutual
// exclusion mechanism" keeps at most one advancement running and never
// discusses coordinator death; recovery.go already showed that a
// successor can finish any interrupted cycle from the nodes' observable
// state because every phase is an idempotent max-merge. What remained
// was detection and election, which this file supplies:
//
//   - every locally hosted node gets a FailoverManager owning
//     coordinator endpoint Nodes+id (node 0's manager owns the legacy
//     endpoint id Nodes);
//   - the active manager broadcasts CoordStateMsg heartbeats every
//     LeaseInterval, mirroring its term, (vr, vu) and current phase to
//     all standbys;
//   - a standby that hears nothing for LeaseTimeout plus an id-scaled
//     stagger (so the lowest live id deterministically moves first)
//     bumps the term, journals it through the node's TermJournal, and
//     re-drives the in-flight sweep via Coordinator.Recover — exactly
//     the idempotent ResendInterval path;
//   - terms are partitioned by proposer (term ≡ id+1 mod Nodes), so
//     two simultaneous takeovers can never mint the same term, and the
//     nodes' stale-term fencing (Node.observeTerm) deposes whichever
//     coordinator loses.
//
// Safety never depends on the lease: even two coordinators driving
// phases concurrently only exchange idempotent max-merges (DESIGN.md
// §5a item 8). The term layer adds liveness and determinism — a deposed
// coordinator stops quickly instead of re-driving a fenced-off sweep.

// FailoverConfig tunes coordinator failover (Config.Failover).
type FailoverConfig struct {
	// LeaseInterval is the active coordinator's heartbeat period;
	// 0 means 25ms.
	LeaseInterval time.Duration
	// LeaseTimeout is how long a standby tolerates heartbeat silence
	// before electing itself (plus an id-scaled stagger of one
	// LeaseInterval per id, so lower ids win ties); 0 means
	// 4×LeaseInterval.
	LeaseTimeout time.Duration
	// OnRoleChange, when set, observes this process's role flips:
	// active=true on takeover (with the new term), active=false on
	// demotion. Called outside manager locks; used for logging.
	OnRoleChange func(active bool, term uint64)
}

func (fc FailoverConfig) withDefaults() FailoverConfig {
	if fc.LeaseInterval <= 0 {
		fc.LeaseInterval = 25 * time.Millisecond
	}
	if fc.LeaseTimeout <= 0 {
		fc.LeaseTimeout = 4 * fc.LeaseInterval
	}
	return fc
}

// nextTerm returns the smallest term node id may propose that is
// strictly greater than maxSeen. Terms are partitioned by proposer —
// term ≡ id+1 (mod n) — so concurrent takeovers by different nodes
// always mint distinct, totally ordered terms.
func nextTerm(maxSeen uint64, id model.NodeID, n int) uint64 {
	k := maxSeen / uint64(n)
	t := k*uint64(n) + uint64(id) + 1
	if t <= maxSeen {
		t += uint64(n)
	}
	return t
}

// failoverSet is the cluster's collection of local managers.
type failoverSet struct {
	managers []*FailoverManager
}

// FailoverManager supervises one locally hosted node's claim on the
// coordinator role. At most one manager cluster-wide is active (holds a
// live Coordinator and heartbeats); the rest are standbys watching the
// lease through their co-located node's accepted heartbeats.
type FailoverManager struct {
	c    *Cluster
	node *Node
	ep   model.NodeID // this manager's coordinator endpoint: Nodes + node id
	cfg  FailoverConfig

	mu       sync.Mutex
	active   bool
	halted   bool // chaos-killed: never heartbeats or elects again
	stopped  bool
	term     uint64       // highest term this manager has minted or heard
	coord    *Coordinator // non-nil once this manager ever took over
	lastBeat time.Time    // last accepted heartbeat from another manager
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newFailoverManager(c *Cluster, nd *Node, cfg FailoverConfig) *FailoverManager {
	return &FailoverManager{
		c:      c,
		node:   nd,
		ep:     model.NodeID(c.cfg.Nodes + int(nd.id)),
		cfg:    cfg,
		stopCh: make(chan struct{}),
	}
}

// Endpoint returns the coordinator endpoint this manager owns.
func (m *FailoverManager) Endpoint() model.NodeID { return m.ep }

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
func (m *FailoverManager) noteBeat(p CoordStateMsg) {
	m.mu.Lock()
	if p.Coord != m.ep && p.Term >= m.term {
		m.lastBeat = time.Now()
	}
	if p.Term > m.term {
		m.term = p.Term
	}
	active := m.active
	co := m.coord
	m.mu.Unlock()
	if active && co != nil && p.Term > co.term {
		// Someone with a higher term is heartbeating: we lost.
		co.depose()
	}
}

// start launches the lease loop (Cluster.Start).
func (m *FailoverManager) start() {
	m.mu.Lock()
	if m.lastBeat.IsZero() {
		m.lastBeat = time.Now() // grace period before the first election
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.LeaseInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-t.C:
				m.tick()
			}
		}
	}()
}

func (m *FailoverManager) tick() {
	m.mu.Lock()
	if m.halted || m.stopped {
		m.mu.Unlock()
		return
	}
	if m.active {
		co, term := m.coord, m.term
		m.mu.Unlock()
		if co.isDeposed() {
			m.demote(co)
			return
		}
		m.heartbeat(co, term)
		return
	}
	last := m.lastBeat
	m.mu.Unlock()
	// Staggered expiry: node id i waits i extra lease intervals, so the
	// lowest live id deterministically claims the role first and its
	// takeover heartbeat renews everyone else's lease before their own
	// threshold passes.
	wait := m.cfg.LeaseTimeout + time.Duration(m.node.id)*m.cfg.LeaseInterval
	if time.Since(last) > wait {
		m.takeover()
	}
}

// heartbeat broadcasts the lease renewal and state mirror. VR/VU come
// from the co-located node (lock-free with respect to the sweep itself;
// Coordinator.Versions would block on advMu for the whole sweep).
func (m *FailoverManager) heartbeat(co *Coordinator, term uint64) {
	vr, vu := m.node.Versions()
	msg := CoordStateMsg{Term: term, Coord: m.ep, VR: vr, VU: vu, Phase: co.currentPhase()}
	for i := 0; i < m.c.cfg.Nodes; i++ {
		m.c.net.Send(transport.Message{From: m.ep, To: model.NodeID(i), Payload: msg})
	}
}

// takeover elects this manager: mint a term above everything seen,
// journal it, install a fresh coordinator at our endpoint, and resume
// the predecessor's sweep in the background (heartbeats flow from the
// lease loop while Recover probes and re-drives phases). Also the test
// hook for double-coordinator fencing: calling it on a standby while
// the incumbent is alive starts a second, higher-term coordinator.
func (m *FailoverManager) takeover() *Coordinator {
	m.mu.Lock()
	if m.active || m.halted || m.stopped {
		m.mu.Unlock()
		return nil
	}
	co := m.claimLocked()
	term := co.term
	m.wg.Add(1)
	m.mu.Unlock()

	// Durable before driving any phase: a post-crash restart of this
	// process must not propose a term at or below this one.
	m.node.observeTermAll(term)
	m.c.reg.SetGauge(obs.GaugeCoordActive, 1)
	m.c.reg.Inc(obs.CtrTakeovers, 1)
	m.c.reg.RecordEvent(obs.Event{Kind: obs.EvTakeover, Node: int(m.node.id),
		Detail: "coordinator takeover, term " + itoa(term)})
	if f := m.cfg.OnRoleChange; f != nil {
		f(true, term)
	}
	m.heartbeat(co, term) // announce immediately; renews standbys' leases

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
	m.lastBeat = time.Now() // full lease before trying to re-elect
	term := m.term
	m.mu.Unlock()
	m.c.reg.SetGauge(obs.GaugeCoordActive, 0)
	if f := m.cfg.OnRoleChange; f != nil {
		f(false, term)
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
	term = m.term
	m.halted = true
	m.active = false
	m.mu.Unlock()
	m.c.reg.SetGauge(obs.GaugeCoordActive, 0)
	if co != nil {
		co.crash()
	}
	return term, wasActive
}

// stop shuts the manager down (Cluster.Close): the lease loop exits,
// any hosted coordinator's waits unwind with ErrClosed, and stop blocks
// until the background recovery goroutine (if any) has unwound — so
// Close never leaks a takeover that would double-run a sweep.
func (m *FailoverManager) stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	co := m.coord
	close(m.stopCh)
	m.mu.Unlock()
	if co != nil {
		co.shutdown()
	}
	m.wg.Wait()
}

// snapshot returns the manager's role and term for status surfaces.
func (m *FailoverManager) snapshot() (active bool, term uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active, m.term
}

// promoteInitial makes this manager the cluster's starting coordinator
// without an election (NewCluster: node 0 in-process, or the process
// started with the active role in distributed mode). The minted term
// sits above any durably recovered one, so a restarted ex-coordinator
// rejoining as active cannot reuse a fenced term.
func (m *FailoverManager) promoteInitial() {
	m.mu.Lock()
	co := m.claimLocked()
	m.mu.Unlock()
	m.node.observeTermAll(co.term)
	m.c.reg.SetGauge(obs.GaugeCoordActive, 1)
}

// claimLocked makes this manager active, hosting a fresh coordinator
// under a term above every term it has seen or its node has journaled.
// The coordinator inherits the cluster's chaos hook (SetPhaseHook).
// Callers hold m.mu.
func (m *FailoverManager) claimLocked() *Coordinator {
	term := nextTerm(max(m.term, m.node.coordTerm.Load()), m.node.id, m.c.cfg.Nodes)
	co := m.c.coordinatorAt(m.ep, term, m.c.getPhaseHook())
	m.term, m.coord, m.active, m.lastBeat = term, co, true, time.Now()
	return co
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
