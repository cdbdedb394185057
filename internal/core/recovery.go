package core

import (
	"fmt"
	"time"

	"repro/internal/model"
)

// This file extends the paper: Section 4.3 assumes "a distributed
// mutual exclusion mechanism ... ensures that at most one instance of
// the version advancement process can run at any time", and the paper
// does not discuss what happens if that one instance dies mid-cycle.
// Because every advancement step is idempotent — version switches take
// the max, counter rows are allocated lazily, garbage collection can
// re-run — a replacement coordinator can always finish a predecessor's
// cycle from the nodes' observable state alone, with the same phase
// runner a sweep uses (Coordinator.cycle) entered at the phase that
// state implies. Recovery owns only that decision (resumePoint): the
// nodes rest on a clean pair, or phases 1–3 finished and only garbage
// collection is pending (resume at phase 4), or a cycle toward the
// highest update version any node holds was interrupted (resume at
// phase 1). The probe before each sweep feeds the same decision, so a
// node that restarted behind the installed pair is caught up by
// finishing that cycle.
//
// Crash simulation: Cluster.CrashCoordinator tears down the current
// coordinator (any in-flight RunAdvancement returns with Interrupted
// set) and has its FailoverManager host a successor under a higher
// fencing term, whose Recover method performs the procedure above. A
// failover takeover (failover.go) runs the same Recover.

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

// resumePoint reads where one partition's cycle stands from every
// node's probed view and the update version the coordinator has
// installed, which it never moves back. It returns the target update
// version vu — the highest any node or the coordinator holds; the read
// version target is vu-1 — and the phase to resume from: 0 when every
// node rests on (vu-1, vu) with nothing below vu-1 left to collect, 4
// when they rest there but a node still holds versions below it (the
// garbage collection was interrupted), 1 otherwise (a cycle toward vu
// was interrupted, or a node lags behind it).
func resumePoint(views map[model.NodeID]VersionReplyMsg, installedVU model.Version) (from int, vu model.Version) {
	vu = installedVU
	for _, v := range views {
		vu = max(vu, v.VU)
	}
	for _, v := range views {
		if v.VU != vu || v.VR != vu-1 {
			return 1, vu
		}
		if v.BelowVR {
			from = 4
		}
	}
	return from, vu
}

// settle probes every node's view of one partition and finishes the
// cycle resumePoint finds interrupted, if any; a clean pair is adopted
// as is. It reports whether a cycle was resumed and the counter
// collections that took. Callers hold the partition's advMu.
func (c *Coordinator) settle(part int) (resumed bool, sweeps int, err error) {
	round := c.nextRound()
	views, err := await(c, c.probes, round, VersionProbeMsg{Round: round, Term: c.term, Part: part})
	if err != nil {
		return false, 0, fmt.Errorf("probing node versions: %w", err)
	}
	from, vu := resumePoint(views, c.parts[part].vu)
	if from == 0 {
		c.setVersions(part, vu, vu-1)
		return false, 0, nil
	}
	rep := AdvanceReport{Part: part, NewVU: vu, NewVR: vu - 1}
	_, err = c.cycle(part, from, &sweepPacer{}, &rep)
	if err != nil {
		err = fmt.Errorf("resuming the cycle to vu=%d at phase %d: %w", vu, from, err)
	}
	return true, rep.SweepsPhase2 + rep.SweepsPhase4, err
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

// recoverPart brings one partition to rest (see settle).
func (c *Coordinator) recoverPart(part int) (RecoveryReport, error) {
	cp := c.parts[part]
	cp.advMu.Lock()
	defer cp.advMu.Unlock()
	resumed, sweeps, err := c.settle(part)
	rep := RecoveryReport{Resumed: resumed, Sweeps: sweeps}
	if err == nil {
		rep.VR, rep.VU = cp.vr, cp.vu
	}
	return rep, err
}

// CrashCoordinator simulates the advancement coordinator dying: any
// in-flight cycle is abandoned (its RunAdvancement returns with
// Interrupted set) and the dead coordinator's manager hosts a successor
// under a higher term, which fences the dead one's stragglers. Call
// Recover on the returned coordinator to finish whatever the dead one
// left behind. It returns nil when this process hosts no active
// coordinator or the cluster is closed.
func (c *Cluster) CrashCoordinator() *Coordinator {
	m := c.activeManager()
	if m == nil {
		return nil
	}
	m.mu.Lock()
	m.coord.crash()
	m.mu.Unlock()
	// No hook for the successor: a hook may crash the coordinator it
	// runs on, and would crash the successor's Recover in turn.
	return m.promote()
}
