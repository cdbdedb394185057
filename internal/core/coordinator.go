package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Typed failures a coordinator wait can surface instead of blocking
// forever. Test with errors.Is against AdvanceReport.Err or the error
// returned by Recover.
var (
	// ErrTimeout: a node never acknowledged (or never answered a
	// counter/version request) within Config.AckTimeout, re-broadcasts
	// included. With a reliable transport this indicates a down node;
	// without one, a lost message.
	ErrTimeout = errors.New("core: timed out waiting for node acknowledgements")
	// ErrClosed: Cluster.Close was called while the coordinator was
	// waiting; the cycle is abandoned.
	ErrClosed = errors.New("core: cluster closed while advancement was waiting")
	// ErrCrashed: the coordinator was crashed mid-cycle (see
	// Cluster.CrashCoordinator); a successor's Recover finishes the
	// cycle.
	ErrCrashed = errors.New("core: coordinator crashed")
	// ErrNoCoordinator: Advance was called in a distributed-mode
	// process that does not host the coordinator endpoint (see
	// Config.LocalCoordinator); drive advancement from the process
	// that does.
	ErrNoCoordinator = errors.New("core: this process does not host the advancement coordinator")
	// ErrStaleTerm: a node reported a fencing term higher than this
	// coordinator's — a successor has taken over, so this coordinator
	// is deposed and its in-flight cycle abandoned (the successor
	// re-drives it; every phase is idempotent).
	ErrStaleTerm = errors.New("core: coordinator deposed by a higher term")
)

// AdvanceReport describes one completed version-advancement cycle.
type AdvanceReport struct {
	// Part is the keyspace partition the cycle advanced (always 0 in
	// unpartitioned mode; aggregated reports from RunAdvancement over
	// several partitions report 0).
	Part int
	// Interrupted is true when the cycle did not complete: the
	// coordinator crashed, timed out, or the cluster closed mid-cycle.
	// Err carries the cause.
	Interrupted bool
	// Err is nil for a completed cycle; otherwise one of ErrCrashed,
	// ErrTimeout or ErrClosed.
	Err error
	// NewVU and NewVR are the versions installed by this cycle.
	NewVU, NewVR model.Version
	// Phase1 .. Phase4 are wall-clock durations of the four phases of
	// Section 4.3 (switch update version / updates phase-out / switch
	// read version / query phase-out + GC).
	Phase1, Phase2, Phase3, Phase4 time.Duration
	// SweepsPhase2 and SweepsPhase4 count the asynchronous counter
	// collections the termination detector needed.
	SweepsPhase2, SweepsPhase4 int
	// MaxCounterLag is the largest Σ(R−C) the quiescence polls of
	// Phases 2 and 4 observed — how far behind completion the cluster
	// was when advancement started draining it.
	MaxCounterLag int64
	Total         time.Duration
}

// Coordinator drives version advancement. It occupies its own endpoint
// on the network (id = number of database nodes) and talks to nodes
// exclusively through messages, so its activity is asynchronous with
// respect to every user transaction — the paper's central requirement.
//
// The paper assumes a distributed mutual-exclusion mechanism guarantees
// at most one advancement runs at a time; here a process-local mutex
// plays that role (see DESIGN.md substitutions).
type Coordinator struct {
	id           model.NodeID
	n            int
	net          transport.Network
	pollInterval time.Duration
	// ackTimeout bounds every wait on node responses (0 = wait
	// forever, the paper's reliable-network behaviour); resend is the
	// interval at which unanswered notices are re-broadcast to the
	// nodes still missing (0 = never — all notices are idempotent, so
	// re-broadcast is always safe when enabled).
	ackTimeout time.Duration
	resend     time.Duration
	reg        *obs.Registry // nil when observability is disabled
	// batchedCounters switches the quiescence sweeps to the batched
	// counter protocol: CountersReqMsg out, one CountersMsg per node
	// back (folded into the same replies map, so snapshot building and
	// the double-collect detector are unchanged). Set before Start.
	batchedCounters bool
	// term is this coordinator's fencing term, stamped on every phase
	// message it sends. 0 = unfenced (single-coordinator deployments);
	// failover-managed coordinators get a positive term before their
	// endpoint handler is registered, and the field is immutable after
	// that. See FailoverManager.
	term uint64

	mu      sync.Mutex
	cond    *sync.Cond
	ackVU   map[ackKey]map[model.NodeID]bool
	ackVR   map[ackKey]map[model.NodeID]bool
	ackGC   map[ackKey]map[model.NodeID]bool
	replies map[int]map[model.NodeID]CounterReplyMsg
	probes  map[int]map[model.NodeID]VersionReplyMsg
	round   int
	dead    bool // set by crash(); wakes and unwinds blocked waits
	closed  bool // set by shutdown() (Cluster.Close); unwinds blocked waits
	deposed bool // a node reported a higher term; unwinds waits with ErrStaleTerm
	// phaseHook, when set, is invoked at the end of each completed
	// phase of RunAdvancement with the partition and phase number
	// (1–4). It exists for chaos injection (kill the coordinator
	// mid-sweep at a deterministic protocol point) and runs without
	// c.mu held.
	phaseHook func(part, phase int)

	// nparts is the number of keyspace partitions; parts holds one
	// independent epoch per partition. Each partition has its own
	// advancement mutex, so sweeps on different partitions proceed
	// concurrently — partition A's quiescence never waits on partition
	// B's in-flight traffic. The shared fields above (ack registries,
	// reply maps, round counter) are keyed by partition or by globally
	// unique round, so concurrent sweeps never cross-talk; c.mu is held
	// only for map bookkeeping, never across a wait... the waits
	// themselves release it via cond.
	nparts int
	parts  []*coordPart

	histMu  sync.Mutex
	history []AdvanceReport
}

// ackKey scopes an acknowledgement registry entry to one partition's
// version: two partitions acknowledging the same version number must
// not satisfy each other's waits.
type ackKey struct {
	part int
	v    model.Version
}

// coordPart is one partition's epoch state at the coordinator.
type coordPart struct {
	advMu sync.Mutex // the "distributed mutex": one advancement per partition at a time
	// vu/vr are written only under advMu (one sweep per partition at a
	// time) and additionally under c.mu, so Versions() can observe them
	// without blocking on a sweep in flight (status surfaces poll it
	// while a failover recovery waits on unreachable nodes).
	vu, vr model.Version
	// phase is the advancement phase currently executing on this
	// partition (0 = idle, 1–4 mid-sweep), published in failover
	// heartbeats. Guarded by c.mu.
	phase int
}

// newCoordinator wires a coordinator for n database nodes and nparts
// keyspace partitions (pass 1 for the unpartitioned protocol).
func newCoordinator(n, nparts int, net transport.Network, pollInterval, ackTimeout, resend time.Duration, reg *obs.Registry) *Coordinator {
	if pollInterval <= 0 {
		pollInterval = 200 * time.Microsecond
	}
	if nparts < 1 {
		nparts = 1
	}
	c := &Coordinator{
		id:           model.NodeID(n),
		n:            n,
		nparts:       nparts,
		net:          net,
		pollInterval: pollInterval,
		ackTimeout:   ackTimeout,
		resend:       resend,
		reg:          reg,
		ackVU:        make(map[ackKey]map[model.NodeID]bool),
		ackVR:        make(map[ackKey]map[model.NodeID]bool),
		ackGC:        make(map[ackKey]map[model.NodeID]bool),
		replies:      make(map[int]map[model.NodeID]CounterReplyMsg),
		probes:       make(map[int]map[model.NodeID]VersionReplyMsg),
		parts:        make([]*coordPart, nparts),
	}
	for i := range c.parts {
		c.parts[i] = &coordPart{vu: 1, vr: 0}
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// handleMessage is the coordinator's transport handler.
func (c *Coordinator) handleMessage(m transport.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch p := m.Payload.(type) {
	case AckAdvancementMsg:
		ackInto(c.ackVU, ackKey{p.Part, p.NewVU}, p.Node)
	case AckReadVersionMsg:
		ackInto(c.ackVR, ackKey{p.Part, p.NewVR}, p.Node)
	case AckGCMsg:
		ackInto(c.ackGC, ackKey{p.Part, p.Keep}, p.Node)
	case CounterReplyMsg:
		rm := c.replies[p.Round]
		if rm == nil {
			rm = make(map[model.NodeID]CounterReplyMsg)
			c.replies[p.Round] = rm
		}
		rm[p.Node] = p
	case CountersMsg:
		// Batched reply: fold each entry into the per-round replies map
		// the unbatched path fills, one CounterReplyMsg per version (a
		// sweep round requests exactly one version, so this stores one).
		rm := c.replies[p.Round]
		if rm == nil {
			rm = make(map[model.NodeID]CounterReplyMsg)
			c.replies[p.Round] = rm
		}
		for _, e := range p.Entries {
			rm[p.Node] = CounterReplyMsg{Version: e.Version, Round: p.Round, Node: p.Node, R: e.R, C: e.C}
		}
	case VersionReplyMsg:
		pm := c.probes[p.Round]
		if pm == nil {
			pm = make(map[model.NodeID]VersionReplyMsg)
			c.probes[p.Round] = pm
		}
		pm[p.Node] = p
	case StaleTermMsg:
		// A node has seen a higher term than ours: a successor is
		// active. Depose this coordinator so any blocked wait unwinds
		// with ErrStaleTerm rather than re-driving a fenced-off sweep.
		if p.Term > c.term {
			c.deposed = true
		}
	default:
		return // stray message; ignore
	}
	c.cond.Broadcast()
}

func ackInto(m map[ackKey]map[model.NodeID]bool, k ackKey, node model.NodeID) {
	set := m[k]
	if set == nil {
		set = make(map[model.NodeID]bool)
		m[k] = set
	}
	set[node] = true
}

// Versions returns the coordinator's view of (vr, vu). It never blocks
// on an advancement in flight. In partitioned mode this is partition
// 0's pair; see VersionsPart.
func (c *Coordinator) Versions() (vr, vu model.Version) { return c.VersionsPart(0) }

// VersionsPart returns one partition's (vr, vu) pair.
func (c *Coordinator) VersionsPart(part int) (vr, vu model.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parts[part].vr, c.parts[part].vu
}

// setVersions installs a new version pair for one partition. Callers
// hold the partition's advMu; c.mu is taken so concurrent Versions()
// readers see a consistent pair.
func (c *Coordinator) setVersions(part int, vu, vr model.Version) {
	c.mu.Lock()
	c.parts[part].vu, c.parts[part].vr = vu, vr
	c.mu.Unlock()
}

// History returns reports of completed advancement cycles.
func (c *Coordinator) History() []AdvanceReport {
	c.histMu.Lock()
	defer c.histMu.Unlock()
	out := make([]AdvanceReport, len(c.history))
	copy(out, c.history)
	return out
}

// eachPart runs f once for every partition and returns when all calls
// have: concurrently, one goroutine per partition, because a partition's
// sweep or recovery holds only that partition's advancement lock and is
// mostly timer and network waits; directly on the caller's goroutine
// when there is a single partition.
func (c *Coordinator) eachPart(f func(part int)) {
	if c.nparts == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for part := 0; part < c.nparts; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			f(part)
		}(part)
	}
	wg.Wait()
}

// sweepPacer orders the concurrent sweeps of one RunAdvancement call
// where they load the nodes, because user transactions feel that load.
// A node answers the resync probe and the garbage-collection notice by
// scanning its whole store on its delivery goroutine, and a partition's
// update-version switch makes every replica of its keys copy the record
// at the next update, hot keys within the millisecond. So these are
// steps taken one at a time across the partitions, and a partition holds
// its step from the switch until the outgoing version has drained
// (Phases 1 and 2), which lets its copies land before the next
// partition's begin. The read-version switch and the Phase 4 polls of
// one partition overlap the steps of the others.
//
// Measured on the repl-skew benchmark (P = 4, 2 vCPUs) as Advance() p50
// and the share of updates over 3 ms among those sent in the 100 ms
// after an Advance() starts (9 % when no sweep runs): one sweep after
// another 82 ms, 12 %; unpaced 23 ms, 17 %; probe, switch and GC as
// steps but the drain outside them 34 ms, 15 %; this pacer 49 ms, 13 %.
// The benchmark's update_p90_ms is a median over ten one-second windows
// of which Go's GC cycles already spoil three or four, so it tolerates
// little extra slow traffic: with the 34 ms pacer one run in five came
// out at 4-7 ms instead of 3.2, with this one and with the serial loop
// one in fifteen (ROADMAP.md, 2e).
//
// The first step to fail fails every later step with the same error, so
// silent nodes cost the call one AckTimeout, not one per partition. A
// sweep driven on its own (RunAdvancementPart) brings its own pacer and
// never waits.
type sweepPacer struct {
	mu  sync.Mutex
	err error
}

func (p *sweepPacer) step(f func() error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = f()
	}
	return p.err
}

// RunAdvancement executes one full four-phase advancement cycle
// (Section 4.3) on every partition — all partitions' sweeps run
// concurrently, ordered by a sweepPacer where they load the nodes — and
// blocks until garbage collection has been acknowledged everywhere.
// With one partition this is exactly the unpartitioned protocol. User
// transactions are never blocked by it: every interaction with nodes is
// an asynchronous message. The returned report carries partition 0's
// installed versions; phase durations, Total and sweep counts are sums
// over the partitions (so with several partitions they exceed the
// call's wall time), MaxCounterLag is the largest any partition saw,
// Interrupted is set if any partition's cycle was interrupted and Err is
// the first such error in partition order. A dead, deposed or closed
// coordinator stays that way: every partition's sweep unwinds through
// abortErr, and a partition that had not yet switched its update version
// when another's step failed is left untouched.
func (c *Coordinator) RunAdvancement() AdvanceReport {
	reps := make([]AdvanceReport, c.nparts)
	pace := &sweepPacer{}
	c.eachPart(func(part int) { reps[part] = c.runSweep(part, pace) })
	agg := reps[0]
	for _, rep := range reps[1:] {
		agg.Phase1 += rep.Phase1
		agg.Phase2 += rep.Phase2
		agg.Phase3 += rep.Phase3
		agg.Phase4 += rep.Phase4
		agg.Total += rep.Total
		agg.SweepsPhase2 += rep.SweepsPhase2
		agg.SweepsPhase4 += rep.SweepsPhase4
		if rep.MaxCounterLag > agg.MaxCounterLag {
			agg.MaxCounterLag = rep.MaxCounterLag
		}
		agg.Interrupted = agg.Interrupted || rep.Interrupted
		if agg.Err == nil {
			agg.Err = rep.Err
		}
	}
	return agg
}

// RunAdvancementPart executes one four-phase advancement cycle on a
// single partition. Sweeps on different partitions hold different
// advancement mutexes and therefore run concurrently; each one drains
// and garbage-collects only its own partition's versions and counters.
func (c *Coordinator) RunAdvancementPart(part int) AdvanceReport {
	return c.runSweep(part, &sweepPacer{})
}

// runSweep is one partition's cycle, ordered against the other sweeps
// of the same RunAdvancement call by pace (see sweepPacer). Phase
// durations run from when the sweep got its turn; Total includes the
// waiting.
func (c *Coordinator) runSweep(part int, pace *sweepPacer) AdvanceReport {
	cp := c.parts[part]
	cp.advMu.Lock()
	defer cp.advMu.Unlock()

	// Bring any restarted-from-checkpoint node back to the installed
	// versions before opening a new cycle (no-op unless hardening is on
	// and a node actually lags).
	if err := pace.step(func() error { return c.resyncLagging(part) }); err != nil {
		return AdvanceReport{NewVU: cp.vu + 1, NewVR: cp.vr + 1, Interrupted: true, Err: err}
	}

	vuold, vunew := cp.vu, cp.vu+1
	vrold, vrnew := cp.vr, cp.vr+1
	rep := AdvanceReport{NewVU: vunew, NewVR: vrnew, Part: part}
	start := time.Now()

	interrupted := func(err error) AdvanceReport {
		c.enterPhase(part, 0)
		rep.Interrupted = true
		rep.Err = err
		rep.Total = time.Since(start)
		return rep
	}

	var t1, t2 time.Time
	if err := pace.step(func() error {
		// Phase 1: switch to the new update version.
		t1 = time.Now()
		c.enterPhase(part, 1)
		c.broadcast(StartAdvancementMsg{NewVU: vunew, Term: c.term, Part: part})
		if err := c.waitAcks(c.ackVU, ackKey{part, vunew}, StartAdvancementMsg{NewVU: vunew, Term: c.term, Part: part}); err != nil {
			return err
		}
		if err := c.phaseDone(part, 1); err != nil {
			return err
		}
		rep.Phase1 = time.Since(t1)

		// Phase 2: updates phase-out — wait for inter-node consistency
		// of vuold by asynchronous counter reads.
		t2 = time.Now()
		c.enterPhase(part, 2)
		var err error
		rep.SweepsPhase2, rep.MaxCounterLag, err = c.pollQuiescence(part, vuold)
		if err != nil {
			return err
		}
		if err := c.phaseDone(part, 2); err != nil {
			return err
		}
		rep.Phase2 = time.Since(t2)
		return nil
	}); err != nil {
		return interrupted(err)
	}

	// Phase 3: switch to the new read version.
	t3 := time.Now()
	c.enterPhase(part, 3)
	c.broadcast(ReadVersionMsg{NewVR: vrnew, Term: c.term, Part: part})
	if err := c.waitAcks(c.ackVR, ackKey{part, vrnew}, ReadVersionMsg{NewVR: vrnew, Term: c.term, Part: part}); err != nil {
		return interrupted(err)
	}
	if err := c.phaseDone(part, 3); err != nil {
		return interrupted(err)
	}
	rep.Phase3 = time.Since(t3)

	// Phase 4: wait for queries on vrold to terminate, then garbage
	// collect.
	t4 := time.Now()
	c.enterPhase(part, 4)
	var lag4 int64
	var err error
	rep.SweepsPhase4, lag4, err = c.pollQuiescence(part, vrold)
	if err != nil {
		return interrupted(err)
	}
	if err := c.phaseDone(part, 4); err != nil {
		return interrupted(err)
	}
	if lag4 > rep.MaxCounterLag {
		rep.MaxCounterLag = lag4
	}
	if err := pace.step(func() error {
		c.broadcast(GCMsg{Keep: vrnew, Term: c.term, Part: part})
		return c.waitAcks(c.ackGC, ackKey{part, vrnew}, GCMsg{Keep: vrnew, Term: c.term, Part: part})
	}); err != nil {
		return interrupted(err)
	}
	rep.Phase4 = time.Since(t4)

	c.setVersions(part, vunew, vrnew)
	c.enterPhase(part, 0)
	rep.Total = time.Since(start)

	c.reg.ObserveAdvance(
		[4]time.Duration{rep.Phase1, rep.Phase2, rep.Phase3, rep.Phase4},
		rep.Total, rep.SweepsPhase2+rep.SweepsPhase4)
	if part == 0 {
		c.reg.SetGauge(obs.GaugeVersionRead, float64(vrnew))
		c.reg.SetGauge(obs.GaugeVersionUpdate, float64(vunew))
	}
	if c.nparts > 1 {
		c.reg.SetGauge(obs.PartitionVersionGauge(part), float64(vrnew))
	}
	c.reg.DropPartLagsBelow(part, int64(vrnew))
	c.reg.RecordEvent(obs.Event{Kind: obs.EvVersionSwitch, Version: int64(vunew),
		Detail: fmt.Sprintf("part=%d vr=%d vu=%d sweeps=%d/%d", part, vrnew, vunew, rep.SweepsPhase2, rep.SweepsPhase4)})
	c.traceSweep(rep, start, t1, t2, t3, t4)

	c.histMu.Lock()
	c.history = append(c.history, rep)
	c.histMu.Unlock()
	return rep
}

// traceSweep records a trace of one completed advancement cycle: a root
// "advance" span plus one child per phase of Section 4.3. Sweeps are rare
// (one per advancement, not per transaction), so every completed cycle is
// traced whenever tracing is enabled — no head sampling. Sweep trace ids
// set bit 63, disjoint from both transaction trace ids (bits 62 and 63
// clear) and minted subtransaction span ids (bit 62), so the three id
// spaces can share one ring without collision.
func (c *Coordinator) traceSweep(rep AdvanceReport, start, t1, t2, t3, t4 time.Time) {
	if !c.reg.TraceEnabled() {
		return
	}
	traceID := c.reg.NextSpanID(c.n) | 1<<63
	end := start.Add(rep.Total)
	c.reg.RecordSpan(obs.Span{
		TraceID: traceID, SpanID: traceID, Name: "advance", Node: c.n,
		Start: start.UnixNano(), Dur: int64(rep.Total),
		Attr: fmt.Sprintf("part=%d vr=%d vu=%d sweeps=%d/%d maxlag=%d",
			rep.Part, rep.NewVR, rep.NewVU, rep.SweepsPhase2, rep.SweepsPhase4, rep.MaxCounterLag),
	})
	phases := []struct {
		name  string
		start time.Time
		dur   time.Duration
		attr  string
	}{
		{"phase1_switch_vu", t1, rep.Phase1, fmt.Sprintf("vu=%d", rep.NewVU)},
		{"phase2_quiesce_updates", t2, rep.Phase2, fmt.Sprintf("sweeps=%d", rep.SweepsPhase2)},
		{"phase3_switch_vr", t3, rep.Phase3, fmt.Sprintf("vr=%d", rep.NewVR)},
		{"phase4_quiesce_queries_gc", t4, end.Sub(t4), fmt.Sprintf("sweeps=%d keep=%d", rep.SweepsPhase4, rep.NewVR)},
	}
	for _, p := range phases {
		c.reg.RecordSpan(obs.Span{
			TraceID: traceID, SpanID: c.reg.NextSpanID(c.n), ParentID: traceID,
			Name: p.name, Node: c.n, Start: p.start.UnixNano(), Dur: int64(p.dur), Attr: p.attr,
		})
	}
}

// broadcast sends the payload to every database node.
func (c *Coordinator) broadcast(payload any) {
	for i := 0; i < c.n; i++ {
		c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: payload})
	}
}

// shutdown (Cluster.Close) wakes every blocked wait so in-flight
// RunAdvancement/Recover calls unwind with ErrClosed instead of
// blocking a closing process forever.
func (c *Coordinator) shutdown() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// abortErrLocked returns the error that should unwind a blocked wait,
// or nil to keep waiting. Callers hold c.mu.
func (c *Coordinator) abortErrLocked() error {
	switch {
	case c.dead:
		return ErrCrashed
	case c.deposed:
		return ErrStaleTerm
	case c.closed:
		return ErrClosed
	}
	return nil
}

// abortErr is abortErrLocked without the lock held.
func (c *Coordinator) abortErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abortErrLocked()
}

// isDeposed reports whether a higher-term successor fenced this
// coordinator off.
func (c *Coordinator) isDeposed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deposed
}

// depose marks the coordinator fenced off by a higher term and wakes
// every blocked wait so it unwinds with ErrStaleTerm.
func (c *Coordinator) depose() {
	c.mu.Lock()
	c.deposed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// setPhaseHook installs (or clears) the per-phase chaos hook.
func (c *Coordinator) setPhaseHook(h func(part, phase int)) {
	c.mu.Lock()
	c.phaseHook = h
	c.mu.Unlock()
}

// getPhaseHook returns the installed chaos hook (takeover inheritance).
func (c *Coordinator) getPhaseHook() func(part, phase int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phaseHook
}

// enterPhase records the advancement phase now executing on one
// partition (0 = idle), for failover heartbeats and chaos attribution.
func (c *Coordinator) enterPhase(part, p int) {
	c.mu.Lock()
	c.parts[part].phase = p
	c.mu.Unlock()
}

// phaseDone fires the chaos hook for a just-completed phase and returns
// any abort condition that arose — possibly from inside the hook (e.g.
// a mid-sweep coordinator kill) — so RunAdvancement stops before
// issuing the next phase's messages instead of leaking them from a
// dead coordinator.
func (c *Coordinator) phaseDone(part, p int) error {
	c.mu.Lock()
	h := c.phaseHook
	c.mu.Unlock()
	if h != nil {
		h(part, p)
	}
	return c.abortErr()
}

// currentPhase returns the advancement phase in flight (0 = idle).
// With several partitions mid-sweep it reports the first non-idle one
// (heartbeats carry a single phase for operator display only).
func (c *Coordinator) currentPhase() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cp := range c.parts {
		if cp.phase != 0 {
			return cp.phase
		}
	}
	return 0
}

// currentPhasePart returns the advancement phase in flight on one
// partition (0 = idle).
func (c *Coordinator) currentPhasePart(part int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parts[part].phase
}

// waitKick waits on the coordinator's cond, but wakes after at most d
// even if no message arrives (d <= 0: wait indefinitely). Callers hold
// c.mu.
func (c *Coordinator) waitKick(d time.Duration) {
	if d <= 0 {
		c.cond.Wait()
		return
	}
	t := time.AfterFunc(d, c.cond.Broadcast)
	c.cond.Wait()
	t.Stop()
}

// kickInterval is the wake granularity for a bounded wait: the resend
// interval when re-broadcast is enabled, else a fraction of the
// timeout, else "block until signalled".
func (c *Coordinator) kickInterval() time.Duration {
	if c.resend > 0 {
		return c.resend
	}
	if c.ackTimeout > 0 {
		return c.ackTimeout / 4
	}
	return 0
}

// deadlineAfter returns the wait deadline implied by ackTimeout (zero
// time = none).
func (c *Coordinator) deadlineAfter(start time.Time) time.Time {
	if c.ackTimeout <= 0 {
		return time.Time{}
	}
	return start.Add(c.ackTimeout)
}

// waitAcks blocks until every node has acknowledged version v in the
// given ack registry, then clears the entry. When resend is configured
// the payload is periodically re-sent to the nodes still missing (all
// advancement notices are idempotent, so duplicates are harmless);
// when ackTimeout is configured the wait gives up with ErrTimeout
// instead of wedging on a lost message or a dead node.
func (c *Coordinator) waitAcks(reg map[ackKey]map[model.NodeID]bool, k ackKey, payload any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	deadline := c.deadlineAfter(start)
	nextResend := start.Add(c.resend)
	for len(reg[k]) < c.n {
		if err := c.abortErrLocked(); err != nil {
			return err
		}
		now := time.Now()
		if !deadline.IsZero() && now.After(deadline) {
			return ErrTimeout
		}
		if c.resend > 0 && now.After(nextResend) {
			for i := 0; i < c.n; i++ {
				if !reg[k][model.NodeID(i)] {
					c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: payload})
					c.reg.Inc(obs.CtrCoordResends, 1)
				}
			}
			nextResend = now.Add(c.resend)
		}
		c.waitKick(c.kickInterval())
	}
	delete(reg, k)
	return nil
}

// pollQuiescence repeatedly sweeps the cluster's counters for version v
// until the double-collect detector declares all version-v transactions
// terminated. It returns the number of sweeps used and the largest
// Σ(R−C) lag any sweep observed; the error is non-nil if the
// coordinator crashed, timed out or was closed while polling. Each
// sweep also publishes the version's live lag to the observability
// registry, so quiescence convergence is visible on the metrics
// endpoint while it happens.
func (c *Coordinator) pollQuiescence(part int, v model.Version) (sweeps int, maxLag int64, err error) {
	det := &counters.Detector{}
	for {
		c.mu.Lock()
		c.round++
		round := c.round
		c.mu.Unlock()

		var req any = CounterReqMsg{Version: v, Round: round, Term: c.term, Part: part}
		if c.batchedCounters {
			req = CountersReqMsg{Versions: []model.Version{v}, Round: round, Term: c.term, Part: part}
		}
		c.broadcast(req)

		c.mu.Lock()
		start := time.Now()
		deadline := c.deadlineAfter(start)
		nextResend := start.Add(c.resend)
		for len(c.replies[round]) < c.n {
			if werr := c.abortErrLocked(); werr != nil {
				c.mu.Unlock()
				return det.Sweeps(), maxLag, werr
			}
			now := time.Now()
			if !deadline.IsZero() && now.After(deadline) {
				c.mu.Unlock()
				return det.Sweeps(), maxLag, ErrTimeout
			}
			if c.resend > 0 && now.After(nextResend) {
				// Re-ask the nodes that have not answered this round
				// (the request or the reply was lost).
				for i := 0; i < c.n; i++ {
					if _, ok := c.replies[round][model.NodeID(i)]; !ok {
						c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: req})
						c.reg.Inc(obs.CtrCoordResends, 1)
					}
				}
				nextResend = now.Add(c.resend)
			}
			c.waitKick(c.kickInterval())
		}
		snap := counters.NewSnapshot(c.n)
		for node, rep := range c.replies[round] {
			snap.SetFromNode(node, rep.R, rep.C)
		}
		delete(c.replies, round)
		c.mu.Unlock()

		lag := lagOf(snap)
		if lag.SumLag > maxLag {
			maxLag = lag.SumLag
		}
		lag.Version = int64(v)
		lag.Part = part
		c.reg.SetCounterLag(lag)

		if det.Offer(snap) {
			return det.Sweeps(), maxLag, nil
		}
		time.Sleep(c.pollInterval)
	}
}

// lagOf reduces one counter sweep to its lag gauge: the summed and the
// largest per-pair R−C difference. A sloppy (asynchronous) observation
// can transiently read C ahead of R for a pair; those pairs clamp to 0
// rather than letting phantom negatives cancel real lag.
func lagOf(s *counters.Snapshot) obs.CounterLag {
	var lag obs.CounterLag
	for p := 0; p < s.N; p++ {
		for q := 0; q < s.N; q++ {
			d := s.R[p][q] - s.C[p][q]
			if d < 0 {
				continue
			}
			lag.SumLag += d
			if d > lag.MaxPairLag {
				lag.MaxPairLag = d
			}
		}
	}
	return lag
}
