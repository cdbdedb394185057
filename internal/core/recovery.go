package core

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// This file extends the paper: Section 4.3 assumes "a distributed
// mutual exclusion mechanism ... ensures that at most one instance of
// the version advancement process can run at any time", and the paper
// does not discuss what happens if that one instance dies mid-cycle.
// Because every advancement step is idempotent — version switches take
// the max, counter rows are allocated lazily, garbage collection can
// re-run — a replacement coordinator can always finish a predecessor's
// cycle from the nodes' observable state alone:
//
//   - If every node agrees on (vr, vu) with vu == vr+1, no cycle was in
//     flight (or it fully finished): adopt the state.
//   - Otherwise some cycle targeting vuNew = max vu was interrupted.
//     Re-run its remaining phases: re-broadcast the start-advancement
//     notice (idempotent), wait for quiescence of vuNew-1, re-broadcast
//     the read-version switch to vuNew-1 (idempotent), wait for
//     quiescence of vuNew-2's queries, and garbage-collect.
//
// Crash simulation: Cluster.CrashCoordinator tears down the current
// coordinator (any in-flight RunAdvancement returns with Interrupted
// set) and installs a fresh one, whose Recover method performs the
// procedure above.

// RecoveryReport describes a Recover run.
type RecoveryReport struct {
	// Resumed is true when an interrupted cycle was found and finished;
	// false when the cluster state was already clean.
	Resumed bool
	// VR and VU are the versions in force after recovery.
	VR, VU model.Version
	// Sweeps counts counter collections performed while resuming.
	Sweeps int
	Took   time.Duration
}

// crash marks the coordinator dead and wakes every blocked wait so
// RunAdvancement unwinds.
func (c *Coordinator) crash() {
	c.mu.Lock()
	c.dead = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// probeVersions collects every node's (vr, vu) for one partition,
// re-probing silent nodes and timing out per the coordinator's
// hardening configuration.
func (c *Coordinator) probeVersions(part int) (map[model.NodeID]VersionReplyMsg, error) {
	c.mu.Lock()
	c.round++
	round := c.round
	c.mu.Unlock()
	for i := 0; i < c.n; i++ {
		c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: VersionProbeMsg{Round: round, Term: c.term, Part: part}})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	deadline := c.deadlineAfter(start)
	nextResend := start.Add(c.resend)
	for len(c.probes[round]) < c.n {
		if err := c.abortErrLocked(); err != nil {
			return nil, fmt.Errorf("probing node versions: %w", err)
		}
		now := time.Now()
		if !deadline.IsZero() && now.After(deadline) {
			return nil, fmt.Errorf("probing node versions: %w", ErrTimeout)
		}
		if c.resend > 0 && now.After(nextResend) {
			for i := 0; i < c.n; i++ {
				if _, ok := c.probes[round][model.NodeID(i)]; !ok {
					c.net.Send(transport.Message{From: c.id, To: model.NodeID(i), Payload: VersionProbeMsg{Round: round, Term: c.term, Part: part}})
				}
			}
			nextResend = now.Add(c.resend)
		}
		c.waitKick(c.kickInterval())
	}
	out := c.probes[round]
	delete(c.probes, round)
	return out, nil
}

// resyncLagging probes every node's (vr, vu) and re-issues the
// idempotent advancement notices to any node behind the coordinator's
// installed versions — the signature of a node restarted from a
// checkpoint older than the last completed cycle. Without this, such a
// node would sit one version back until the next cycle's Phase 1
// reached it, serving stale reads and holding un-collected garbage.
// Runs only when re-broadcast hardening is on (resend > 0) and at
// least one cycle has completed (at vu = 1 nothing can lag): the
// deterministic trace configurations never restart nodes and must not
// see extra probe traffic, and scripted tests stage the first cycle's
// messages exactly. Callers hold the partition's advMu.
func (c *Coordinator) resyncLagging(part int) error {
	cp := c.parts[part]
	if c.resend <= 0 || cp.vu <= 1 {
		return nil
	}
	views, err := c.probeVersions(part)
	if err != nil {
		return err
	}
	var lagVU, lagVR bool
	for _, v := range views {
		if v.VU < cp.vu {
			lagVU = true
		}
		if v.VR < cp.vr {
			lagVR = true
		}
	}
	if lagVU {
		c.broadcast(StartAdvancementMsg{NewVU: cp.vu, Term: c.term, Part: part})
		if err := c.waitAcks(c.ackVU, ackKey{part, cp.vu}, StartAdvancementMsg{NewVU: cp.vu, Term: c.term, Part: part}); err != nil {
			return fmt.Errorf("resyncing update version: %w", err)
		}
	}
	if lagVR {
		c.broadcast(ReadVersionMsg{NewVR: cp.vr, Term: c.term, Part: part})
		if err := c.waitAcks(c.ackVR, ackKey{part, cp.vr}, ReadVersionMsg{NewVR: cp.vr, Term: c.term, Part: part}); err != nil {
			return fmt.Errorf("resyncing read version: %w", err)
		}
		// The rejoiner may still hold versions the cluster collected.
		c.broadcast(GCMsg{Keep: cp.vr, Term: c.term, Part: part})
		if err := c.waitAcks(c.ackGC, ackKey{part, cp.vr}, GCMsg{Keep: cp.vr, Term: c.term, Part: part}); err != nil {
			return fmt.Errorf("resyncing garbage collection: %w", err)
		}
	}
	return nil
}

// Recover reconstructs the cluster's advancement state and finishes
// any interrupted cycle, all partitions concurrently: a coordinator
// killed inside RunAdvancement can leave every partition mid-sweep, and
// re-driving them side by side keeps takeover at one sweep's duration
// rather than one per partition. It must be called on a fresh
// coordinator (after Cluster.CrashCoordinator or a failover takeover)
// before any new RunAdvancement. The report carries partition 0's
// versions, summed sweeps, the call's wall time, and Resumed set if any
// partition had an interrupted cycle to finish; the error is the first
// in partition order.
func (c *Coordinator) Recover() (RecoveryReport, error) {
	start := time.Now()
	reps := make([]RecoveryReport, c.nparts)
	errs := make([]error, c.nparts)
	c.eachPart(func(part int) { reps[part], errs[part] = c.recoverPart(part) })
	agg, err := reps[0], errs[0]
	for part := 1; part < c.nparts; part++ {
		agg.Sweeps += reps[part].Sweeps
		agg.Resumed = agg.Resumed || reps[part].Resumed
		if err == nil {
			err = errs[part]
		}
	}
	agg.Took = time.Since(start)
	return agg, err
}

// recoverPart reconstructs one partition's advancement state and
// finishes its interrupted cycle, if any.
func (c *Coordinator) recoverPart(part int) (RecoveryReport, error) {
	cp := c.parts[part]
	cp.advMu.Lock()
	defer cp.advMu.Unlock()

	views, err := c.probeVersions(part)
	if err != nil {
		return RecoveryReport{}, err
	}
	var maxVU, maxVR model.Version
	clean := true
	gcPending := false
	var firstVR, firstVU model.Version
	first := true
	for _, v := range views {
		if v.VU > maxVU {
			maxVU = v.VU
		}
		if v.VR > maxVR {
			maxVR = v.VR
		}
		if v.BelowVR {
			gcPending = true
		}
		if first {
			firstVR, firstVU = v.VR, v.VU
			first = false
		} else if v.VR != firstVR || v.VU != firstVU {
			clean = false
		}
	}
	if clean && maxVU == maxVR+1 && !gcPending {
		c.setVersions(part, maxVU, maxVR)
		return RecoveryReport{Resumed: false, VR: maxVR, VU: maxVU}, nil
	}
	if clean && maxVU == maxVR+1 && gcPending {
		// Phases 1–3 finished but Phase 4 did not: drain the old read
		// version's queries and garbage-collect.
		rep := RecoveryReport{Resumed: true}
		c.enterPhase(part, 4)
		defer c.enterPhase(part, 0)
		s, _, err := c.pollQuiescence(part, maxVR-1)
		rep.Sweeps += s
		if err != nil {
			return rep, fmt.Errorf("resuming phase 4 quiescence: %w", err)
		}
		c.broadcast(GCMsg{Keep: maxVR, Term: c.term, Part: part})
		if err := c.waitAcks(c.ackGC, ackKey{part, maxVR}, GCMsg{Keep: maxVR, Term: c.term, Part: part}); err != nil {
			return rep, fmt.Errorf("resuming garbage collection: %w", err)
		}
		c.setVersions(part, maxVU, maxVR)
		rep.VR, rep.VU = maxVR, maxVU
		return rep, nil
	}

	// An interrupted cycle targeted vuNew = maxVU (Phase 1 at least
	// partially ran, or an implicit notification advanced someone).
	// Its read-version target is vuNew-1.
	vuNew := maxVU
	vrNew := vuNew - 1
	rep := RecoveryReport{Resumed: true}
	defer c.enterPhase(part, 0)

	// Finish Phase 1 (idempotent: nodes take the max and always ack).
	c.enterPhase(part, 1)
	c.broadcast(StartAdvancementMsg{NewVU: vuNew, Term: c.term, Part: part})
	if err := c.waitAcks(c.ackVU, ackKey{part, vuNew}, StartAdvancementMsg{NewVU: vuNew, Term: c.term, Part: part}); err != nil {
		return rep, fmt.Errorf("resuming phase 1: %w", err)
	}

	// Phase 2: quiesce the outgoing update version.
	c.enterPhase(part, 2)
	s2, _, err := c.pollQuiescence(part, vuNew-1)
	rep.Sweeps += s2
	if err != nil {
		return rep, fmt.Errorf("resuming phase 2 quiescence: %w", err)
	}

	// Phase 3 (idempotent).
	c.enterPhase(part, 3)
	c.broadcast(ReadVersionMsg{NewVR: vrNew, Term: c.term, Part: part})
	if err := c.waitAcks(c.ackVR, ackKey{part, vrNew}, ReadVersionMsg{NewVR: vrNew, Term: c.term, Part: part}); err != nil {
		return rep, fmt.Errorf("resuming phase 3: %w", err)
	}

	// Phase 4: quiesce the outgoing read version's queries, then GC.
	// vrNew is at least 1 here (the first possible interrupted cycle
	// targets vu=2/vr=1), so vrNew-1 is well-defined.
	c.enterPhase(part, 4)
	s4, _, err := c.pollQuiescence(part, vrNew-1)
	rep.Sweeps += s4
	if err != nil {
		return rep, fmt.Errorf("resuming phase 4 quiescence: %w", err)
	}
	c.broadcast(GCMsg{Keep: vrNew, Term: c.term, Part: part})
	if err := c.waitAcks(c.ackGC, ackKey{part, vrNew}, GCMsg{Keep: vrNew, Term: c.term, Part: part}); err != nil {
		return rep, fmt.Errorf("resuming garbage collection: %w", err)
	}

	c.setVersions(part, vuNew, vrNew)
	rep.VR, rep.VU = vrNew, vuNew
	return rep, nil
}

// CrashCoordinator simulates the advancement coordinator dying: any
// in-flight cycle is abandoned (its RunAdvancement returns with
// Interrupted set) and a fresh coordinator takes over the endpoint.
// Call Recover on the returned coordinator to finish whatever the dead
// one left behind.
func (c *Cluster) CrashCoordinator() *Coordinator {
	if c.fo != nil {
		panic("core: CrashCoordinator is the pinned-coordinator crash hook; use KillActiveCoordinator with Config.Failover")
	}
	old := c.currentCoordinator()
	old.crash()
	fresh := newCoordinator(c.cfg.Nodes, c.nparts, c.net, c.cfg.PollInterval, c.cfg.AckTimeout, c.cfg.ResendInterval, c.reg)
	fresh.batchedCounters = c.cfg.BatchedCounters
	c.coordMu.Lock()
	c.coord = fresh
	c.coordMu.Unlock()
	return fresh
}
