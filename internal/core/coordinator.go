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

// Coordinator drives version advancement. It occupies its manager's
// endpoint on the network (Nodes + the manager's node id) and talks to
// nodes exclusively through messages, so its activity is asynchronous
// with respect to every user transaction — the paper's central
// requirement.
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
	// term is this coordinator's positive fencing term, stamped on every
	// phase message it sends. Its FailoverManager sets it before the
	// coordinator is reachable, and the field is immutable after that.
	term uint64

	mu   sync.Mutex
	cond *sync.Cond
	// The answers await collects: phase acknowledgements keyed by
	// (phase, partition, version), counter replies and version probe
	// replies keyed by round.
	acks    map[ackKey]map[model.NodeID]bool
	replies map[int]map[model.NodeID]CounterReplyMsg
	probes  map[int]map[model.NodeID]VersionReplyMsg
	round   int
	dead    bool // set by crash(); wakes and unwinds blocked waits
	closed  bool // set by shutdown() (Cluster.Close); unwinds blocked waits
	deposed bool // a node reported a higher term; unwinds waits with ErrStaleTerm
	// phaseHook, when set, is invoked at the end of each completed
	// phase (1–4) of every cycle this coordinator drives — sweeps and
	// the cycles Recover or the pre-sweep catch-up finish — with the
	// partition and phase number. It exists for chaos injection (kill
	// the coordinator mid-sweep at a deterministic protocol point) and
	// runs without c.mu held.
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

// ackKey scopes an acknowledgement to the phase (1, 3 or 4) and the
// partition's version it answers: two partitions acknowledging the same
// version number must not satisfy each other's waits.
type ackKey struct {
	phase, part int
	v           model.Version
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
		n:            n,
		nparts:       nparts,
		net:          net,
		pollInterval: pollInterval,
		ackTimeout:   ackTimeout,
		resend:       resend,
		reg:          reg,
		acks:         make(map[ackKey]map[model.NodeID]bool),
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
		answer(c.acks, ackKey{1, p.Part, p.NewVU}, p.Node, true)
	case AckReadVersionMsg:
		answer(c.acks, ackKey{3, p.Part, p.NewVR}, p.Node, true)
	case AckGCMsg:
		answer(c.acks, ackKey{4, p.Part, p.Keep}, p.Node, true)
	case CounterReplyMsg:
		answer(c.replies, p.Round, p.Node, p)
	case CountersMsg:
		// Batched reply: fold each entry into the per-round replies map
		// the unbatched path fills, one CounterReplyMsg per version (a
		// sweep round requests exactly one version, so this stores one).
		for _, e := range p.Entries {
			answer(c.replies, p.Round, p.Node, CounterReplyMsg{Version: e.Version, Round: p.Round, Node: p.Node, R: e.R, C: e.C})
		}
	case VersionReplyMsg:
		answer(c.probes, p.Round, p.Node, p)
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

// answer records node's answer under key k of one of the registries
// await collects from. Callers hold c.mu.
func answer[K comparable, T any](reg map[K]map[model.NodeID]T, k K, node model.NodeID, v T) {
	set := reg[k]
	if set == nil {
		set = make(map[model.NodeID]T)
		reg[k] = set
	}
	set[node] = v
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
// A node answers the version probe before a sweep and the
// garbage-collection notice by scanning its whole store on its delivery
// goroutine, and a partition's update-version switch makes every replica
// of its keys copy the record at the next update, hot keys within the
// millisecond. So these are
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
// Those figures were taken while advancement messages still waited out
// the 100 µs batch window per link and direction. With them urgent
// (messages.go) this pacer reads about 20 ms; the other variants have
// not been re-measured.
// The benchmark's update_p90_ms is a median over ten one-second windows
// of which Go's GC cycles already spoil three or four, so it tolerates
// little extra slow traffic: with the 34 ms pacer one run in five came
// out at 4-7 ms instead of 3.2, with this one and with the serial loop
// one in fifteen (ROADMAP.md, 2e).
//
// The first step to fail fails every later step with the same error, so
// silent nodes cost the call one AckTimeout, not one per partition. A
// sweep driven on its own (RunAdvancementPart) brings its own pacer and
// never waits; so do the cycles Recover finishes. The catch-up a probe
// triggers runs inside its sweep's first step.
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

	rep := AdvanceReport{Part: part, NewVU: cp.vu + 1, NewVR: cp.vr + 1}
	// A node restarted from a checkpoint older than the last completed
	// cycle lags the installed pair: finish that cycle before opening the
	// next one. Only with re-broadcast hardening on and a cycle completed
	// (at vu = 1 nothing can lag): the deterministic trace configurations
	// never restart nodes and must not see probe traffic, and scripted
	// tests stage the first cycle's messages exactly.
	if c.resend > 0 && cp.vu > 1 {
		if err := pace.step(func() error { _, _, err := c.settle(part); return err }); err != nil {
			rep.Interrupted, rep.Err = true, err
			return rep
		}
		rep.NewVU, rep.NewVR = cp.vu+1, cp.vr+1
	}

	start := time.Now()
	began, err := c.cycle(part, 1, pace, &rep)
	rep.Total = time.Since(start)
	if err != nil {
		rep.Interrupted, rep.Err = true, err
		return rep
	}

	c.reg.ObserveAdvance(
		[4]time.Duration{rep.Phase1, rep.Phase2, rep.Phase3, rep.Phase4},
		rep.Total, rep.SweepsPhase2+rep.SweepsPhase4)
	if part == 0 {
		c.reg.SetGauge(obs.GaugeVersionRead, float64(rep.NewVR))
		c.reg.SetGauge(obs.GaugeVersionUpdate, float64(rep.NewVU))
	}
	if c.nparts > 1 {
		c.reg.SetGauge(obs.PartitionVersionGauge(part), float64(rep.NewVR))
	}
	c.reg.DropPartLagsBelow(part, int64(rep.NewVR))
	c.reg.RecordEvent(obs.Event{Kind: obs.EvVersionSwitch, Version: int64(rep.NewVU),
		Detail: fmt.Sprintf("part=%d vr=%d vu=%d sweeps=%d/%d", part, rep.NewVR, rep.NewVU, rep.SweepsPhase2, rep.SweepsPhase4)})
	c.traceSweep(rep, start, began)

	c.histMu.Lock()
	c.history = append(c.history, rep)
	c.histMu.Unlock()
	return rep
}

// cycle drives one partition through the four phases of Section 4.3
// toward the pair (rep.NewVR, rep.NewVU), starting at phase from: 1, or
// 4 when every node already holds the pair and only the old read
// version's drain and garbage collection remain. A sweep, a successor's
// Recover and the catch-up before a sweep all come here; every phase is
// an idempotent max-merge, so re-driving one the nodes already applied
// is harmless. The chaos hook fires as each phase completes, and the
// steps that load every node take turns through pace. On success the
// pair is installed. It fills rep's phase durations, sweep counts and
// lag, and returns when each phase began (indexed by phase).
func (c *Coordinator) cycle(part, from int, pace *sweepPacer, rep *AdvanceReport) (began [5]time.Time, err error) {
	defer c.enterPhase(part, 0)
	vu, vr := rep.NewVU, rep.NewVR
	// phase runs phase p's sends and waits, then fires the hook; its
	// duration is taken after the hook returns.
	phase := func(p int, dur *time.Duration, run func() error) error {
		began[p] = time.Now()
		c.enterPhase(part, p)
		if err := run(); err != nil {
			return err
		}
		if err := c.phaseDone(part, p); err != nil {
			return err
		}
		*dur = time.Since(began[p])
		return nil
	}
	// quiesce waits for version v's transactions to terminate.
	quiesce := func(v model.Version, sweeps *int) func() error {
		return func() error {
			n, lag, err := c.pollQuiescence(part, v)
			*sweeps += n
			rep.MaxCounterLag = max(rep.MaxCounterLag, lag)
			return err
		}
	}
	notify := func(k ackKey, payload any) func() error {
		return func() error {
			_, err := await(c, c.acks, k, payload)
			return err
		}
	}

	if from == 1 {
		if err := pace.step(func() error {
			// Phase 1: switch to the new update version. Phase 2: updates
			// phase-out, until the outgoing update version has drained.
			if err := phase(1, &rep.Phase1, notify(ackKey{1, part, vu}, StartAdvancementMsg{NewVU: vu, Term: c.term, Part: part})); err != nil {
				return err
			}
			return phase(2, &rep.Phase2, quiesce(vu-1, &rep.SweepsPhase2))
		}); err != nil {
			return began, err
		}
		// Phase 3: switch to the new read version.
		if err := phase(3, &rep.Phase3, notify(ackKey{3, part, vr}, ReadVersionMsg{NewVR: vr, Term: c.term, Part: part})); err != nil {
			return began, err
		}
	}
	// Phase 4: wait for queries on the old read version to terminate,
	// then garbage-collect below the new one.
	if err := phase(4, &rep.Phase4, quiesce(vr-1, &rep.SweepsPhase4)); err != nil {
		return began, err
	}
	if err := pace.step(notify(ackKey{4, part, vr}, GCMsg{Keep: vr, Term: c.term, Part: part})); err != nil {
		return began, err
	}
	rep.Phase4 = time.Since(began[4])
	c.setVersions(part, vu, vr)
	return began, nil
}

// traceSweep records a trace of one completed advancement cycle: a root
// "advance" span plus one child per phase of Section 4.3. Sweeps are rare
// (one per advancement, not per transaction), so every completed cycle is
// traced whenever tracing is enabled — no head sampling. Sweep trace ids
// set bit 63, disjoint from both transaction trace ids (bits 62 and 63
// clear) and minted subtransaction span ids (bit 62), so the three id
// spaces can share one ring without collision.
func (c *Coordinator) traceSweep(rep AdvanceReport, start time.Time, began [5]time.Time) {
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
		{"phase1_switch_vu", began[1], rep.Phase1, fmt.Sprintf("vu=%d", rep.NewVU)},
		{"phase2_quiesce_updates", began[2], rep.Phase2, fmt.Sprintf("sweeps=%d", rep.SweepsPhase2)},
		{"phase3_switch_vr", began[3], rep.Phase3, fmt.Sprintf("vr=%d", rep.NewVR)},
		{"phase4_quiesce_queries_gc", began[4], end.Sub(began[4]), fmt.Sprintf("sweeps=%d keep=%d", rep.SweepsPhase4, rep.NewVR)},
	}
	for _, p := range phases {
		c.reg.RecordSpan(obs.Span{
			TraceID: traceID, SpanID: c.reg.NextSpanID(c.n), ParentID: traceID,
			Name: p.name, Node: c.n, Start: p.start.UnixNano(), Dur: int64(p.dur), Attr: p.attr,
		})
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

// await is the coordinator's one way of talking to the nodes: it sends
// payload to every node and blocks until each one's answer is in
// reg[k], then removes and returns those answers. With resend set it
// re-sends the payload every resend interval to the nodes still missing
// (every notice and request is idempotent, so duplicates are harmless);
// it gives up with ErrTimeout after ackTimeout instead of wedging on a
// lost message or a dead node, and unwinds as soon as the coordinator
// is crashed, deposed or closed. Between resends it wakes at the resend
// interval, else at a quarter of the timeout, else only when signalled.
func await[K comparable, T any](c *Coordinator, reg map[K]map[model.NodeID]T, k K, payload any) (map[model.NodeID]T, error) {
	for i := 0; i < c.n; i++ {
		c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: payload})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	nextResend := start.Add(c.resend)
	kick := c.resend
	if kick <= 0 {
		kick = c.ackTimeout / 4
	}
	for len(reg[k]) < c.n {
		if err := c.abortErrLocked(); err != nil {
			return nil, err
		}
		now := time.Now()
		if c.ackTimeout > 0 && now.Sub(start) > c.ackTimeout {
			return nil, ErrTimeout
		}
		if c.resend > 0 && now.After(nextResend) {
			for i := 0; i < c.n; i++ {
				if _, ok := reg[k][model.NodeID(i)]; !ok {
					c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: payload})
					c.reg.Inc(obs.CtrCoordResends, 1)
				}
			}
			nextResend = now.Add(c.resend)
		}
		c.waitKick(kick)
	}
	got := reg[k]
	delete(reg, k)
	return got, nil
}

// nextRound allocates a round number for a counter or probe request.
func (c *Coordinator) nextRound() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.round++
	return c.round
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
		round := c.nextRound()
		var req any = CounterReqMsg{Version: v, Round: round, Term: c.term, Part: part}
		if c.batchedCounters {
			req = CountersReqMsg{Versions: []model.Version{v}, Round: round, Term: c.term, Part: part}
		}
		got, err := await(c, c.replies, round, req)
		if err != nil {
			return det.Sweeps(), maxLag, err
		}
		snap := counters.NewSnapshot(c.n)
		for node, rep := range got {
			snap.SetFromNode(node, rep.R, rep.C)
		}

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
