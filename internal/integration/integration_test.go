// Package integration holds cross-module end-to-end tests that exercise
// the full 3V stack — cluster, workload, verification — against the
// paper's strongest correctness statement, Theorem 4.1: every schedule
// is equivalent to a serial schedule in which transactions are ordered
// by version number, with updates of a version preceding the reads of
// that version.
package integration

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/verify"
	"repro/internal/workload"
)

// runTheorem41Audit drives a mixed workload with continuous
// advancement, collects full ground truth (each update's assigned
// version and part count, each read's assigned version and results),
// and checks the exact Theorem 4.1 visibility rule: a read of version v
// observes ALL parts of every update with version ≤ v and NOTHING of
// any update with version > v.
//
// With a non-nil chaos schedule the run doubles as a survival proof:
// faults are injected while the load runs, healed once it drains, and
// the cluster must then converge (versions agreed, counters balanced)
// with the full serializability audit still passing.
func runTheorem41Audit(t *testing.T, cfg core.Config, wl workload.Config, txns int, advEvery time.Duration, chaos *harness.ChaosConfig) {
	t.Helper()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(wl)
	for _, p := range gen.PreloadSpecs() {
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		rec.Fields["count"] = 0
		c.Preload(p.Node, p.Key, rec)
	}
	c.Start()
	defer c.Close()
	sys := baseline.ThreeV{Cluster: c}

	var cc *harness.Chaos
	if chaos != nil {
		fi, ok := c.Network().(transport.FaultInjector)
		if !ok {
			t.Fatal("chaos schedule requires a fault-injecting network")
		}
		cc = harness.StartChaos(fi, *chaos)
	}

	stop := make(chan struct{})
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		for {
			select {
			case <-stop:
				return
			default:
				sys.Advance()
				time.Sleep(advEvery)
			}
		}
	}()

	type pendingRead struct {
		h     *core.Handle
		group int
	}
	updates := make(map[model.TxnID]verify.UpdateMeta) // keyed by tuple Writer id
	writerOf := make(map[model.TxnID]model.TxnID)      // cluster txn id -> writer id
	var updateHandles []*core.Handle
	var reads []pendingRead

	for i := 0; i < txns; i++ {
		txn := gen.Next()
		h, err := c.Submit(txn.Spec)
		if err != nil {
			t.Fatal(err)
		}
		switch txn.Kind {
		case workload.KindUpdate:
			writerOf[h.ID] = txn.Writer
			updates[txn.Writer] = verify.UpdateMeta{Parts: txn.Parts, Compensated: txn.Aborting}
			updateHandles = append(updateHandles, h)
		case workload.KindRead:
			reads = append(reads, pendingRead{h: h, group: txn.Group})
		}
	}
	// Wait for everything; record each update's assigned version.
	for _, h := range updateHandles {
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatal("update timed out")
		}
		v, ok := h.Version()
		if !ok {
			t.Fatal("update completed without a version")
		}
		w := writerOf[h.ID]
		meta := updates[w]
		meta.Version = v
		updates[w] = meta
	}
	var groupReads []verify.GroupRead
	for _, pr := range reads {
		if !pr.h.WaitTimeout(30 * time.Second) {
			t.Fatal("read timed out")
		}
		v, ok := pr.h.Version()
		if !ok {
			t.Fatal("read completed without a version")
		}
		groupReads = append(groupReads, verify.GroupRead{
			Txn:         pr.h.ID,
			ReadVersion: v,
			Results:     pr.h.Reads(),
		})
	}
	if chaos != nil && chaos.PartitionFor > 0 {
		// The workload can drain before the scheduled cut: keep advancing
		// until it has fired, so the advancements run across it.
		deadline := time.Now().Add(chaos.PartitionAt + 10*time.Second)
		for cc.Partitions() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-advDone

	if cc != nil {
		cc.Stop() // heal everything before the convergence checks
		if rep := sys.Cluster.Advance(); rep.Interrupted {
			t.Fatalf("post-heal advancement failed: %v", rep.Err)
		}
		if rep := sys.Cluster.Advance(); rep.Interrupted {
			t.Fatalf("second post-heal advancement failed: %v", rep.Err)
		}
		for _, e := range c.ConvergenceErrors() {
			t.Errorf("convergence after heal: %s", e)
		}
		st := c.Metrics().Transport
		if st.Dropped == 0 || st.Duplicated == 0 {
			t.Fatalf("fault injection inactive (dropped=%d duplicated=%d); the chaos run proved nothing",
				st.Dropped, st.Duplicated)
		}
		if chaos.PartitionFor > 0 && cc.Partitions() == 0 {
			t.Fatal("the scheduled partition never fired")
		}
		t.Logf("chaos: dropped=%d partition-dropped=%d duplicated=%d retransmits=%d dup-discarded=%d",
			st.Dropped, st.PartitionDrops, st.Duplicated, st.Retransmits, st.DupDropped)
	}

	// The full-strength audit: every read sees exactly the updates of
	// its version prefix. One subtlety: the workload writes each group
	// update to ALL items of one group, and each read covers all items
	// of one group — but only ITS group. Restrict each read's ground
	// truth to writers of its group by keying updates per group.
	//
	// (Writers of other groups are invisible to this read trivially —
	// their tuples live in other items — so including them would only
	// produce spurious "missing-committed" findings. We therefore audit
	// group by group.)
	byGroup := make(map[int]map[model.TxnID]verify.UpdateMeta)
	gen2 := workload.New(wl) // regenerate the same stream for group info
	for i := 0; i < txns; i++ {
		txn := gen2.Next()
		if txn.Kind != workload.KindUpdate {
			continue
		}
		m := byGroup[txn.Group]
		if m == nil {
			m = make(map[model.TxnID]verify.UpdateMeta)
			byGroup[txn.Group] = m
		}
		if meta, ok := updates[txn.Writer]; ok {
			m[txn.Writer] = meta
		}
	}
	gen3 := workload.New(wl)
	readIdx := 0
	anomTotal := 0
	for i := 0; i < txns; i++ {
		txn := gen3.Next()
		if txn.Kind != workload.KindRead {
			continue
		}
		gr := groupReads[readIdx]
		readIdx++
		anoms := verify.AuditSerializability([]verify.GroupRead{gr}, byGroup[txn.Group])
		for _, a := range anoms {
			t.Errorf("Theorem 4.1 violation: %v", a)
			anomTotal++
			if anomTotal > 10 {
				t.Fatal("too many violations; aborting")
			}
		}
	}
	if readIdx != len(groupReads) {
		t.Fatalf("audited %d reads, collected %d", readIdx, len(groupReads))
	}
	if rep := verify.CheckStructural(c); !rep.OK() {
		t.Errorf("structural check failed: %v", rep)
	}
}

func TestTheorem41MixedLoad(t *testing.T) {
	runTheorem41Audit(t,
		core.Config{Nodes: 4, NetConfig: transport.Config{Jitter: 400 * time.Microsecond, Seed: 5}},
		workload.Config{Nodes: 4, Groups: 24, Span: 2, ReadFraction: 0.35, Seed: 301},
		300, time.Millisecond, nil)
}

func TestTheorem41WithCompensation(t *testing.T) {
	runTheorem41Audit(t,
		core.Config{Nodes: 3, NetConfig: transport.Config{Jitter: 400 * time.Microsecond, Seed: 6}},
		workload.Config{Nodes: 3, Groups: 16, Span: 2, ReadFraction: 0.3, AbortFraction: 0.15, Seed: 302},
		250, time.Millisecond, nil)
}

func TestTheorem41WideFanout(t *testing.T) {
	runTheorem41Audit(t,
		core.Config{Nodes: 6, NetConfig: transport.Config{Jitter: 600 * time.Microsecond, Seed: 7}},
		workload.Config{Nodes: 6, Groups: 12, Span: 4, ReadFraction: 0.3, Seed: 303},
		200, 2*time.Millisecond, nil)
}

// TestTheorem41RandomizedSeeds fuzzes the audit across seeds; each run
// is small but the interleavings differ.
func TestTheorem41RandomizedSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < 3; i++ {
		seed := rng.Int63()
		t.Logf("seed %d", seed)
		runTheorem41Audit(t,
			core.Config{Nodes: 3, NetConfig: transport.Config{Jitter: 300 * time.Microsecond, Seed: seed}},
			workload.Config{Nodes: 3, Groups: 8, Span: 2, ReadFraction: 0.4, Seed: seed},
			120, time.Millisecond, nil)
	}
}

// TestRecoveryUnderLoad crashes the advancement coordinator while a
// load is running, recovers, and requires the system to keep satisfying
// the atomic-visibility guarantee and to keep advancing.
func TestRecoveryUnderLoad(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 3,
		NetConfig: transport.Config{Jitter: 300 * time.Microsecond, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(workload.Config{Nodes: 3, Groups: 16, Span: 2, ReadFraction: 0.3, Seed: 304})
	for _, p := range gen.PreloadSpecs() {
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		rec.Fields["count"] = 0
		c.Preload(p.Node, p.Key, rec)
	}
	c.Start()
	defer c.Close()

	var handles []*core.Handle
	var readHandles []*core.Handle
	submit := func(n int) {
		for i := 0; i < n; i++ {
			txn := gen.Next()
			h, err := c.Submit(txn.Spec)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
			if txn.Kind == workload.KindRead {
				readHandles = append(readHandles, h)
			}
		}
	}

	submit(60)
	advDone := c.AdvanceAsync()
	time.Sleep(500 * time.Microsecond)
	fresh := c.CrashCoordinator()
	rep := <-advDone
	_ = rep // may or may not have been interrupted depending on timing
	if _, err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	submit(60)
	for _, h := range handles {
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatal("transaction stuck after coordinator crash/recovery")
		}
	}
	var groupReads []verify.GroupRead
	for _, h := range readHandles {
		groupReads = append(groupReads, verify.GroupRead{Txn: h.ID, Results: h.Reads()})
	}
	if len(groupReads) == 0 {
		t.Fatal("workload produced no reads to audit")
	}
	adv := c.Advance()
	if adv.Interrupted {
		t.Fatal("post-recovery advancement interrupted")
	}
	if anoms := verify.AuditAtomicVisibility(groupReads); len(anoms) > 0 {
		t.Errorf("anomalies after recovery: %v", anoms[0])
	}
	if rep := verify.CheckStructural(c); !rep.OK() {
		t.Errorf("structural check failed: %v", rep)
	}
}
