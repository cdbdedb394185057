package harness

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/verify"
)

// partitionKeys returns one probe key per partition of c's placement
// map, hashing candidate names until every partition has one.
func partitionKeys(t *testing.T, c *core.Cluster) []string {
	t.Helper()
	pm := c.PlacementMap()
	keys := make([]string, c.Partitions())
	found := 0
	for i := 0; found < len(keys); i++ {
		if i > 10000 {
			t.Fatalf("no key landed in some partition after %d candidates", i)
		}
		k := fmt.Sprintf("k%04d", i)
		if p := pm.Of(k); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	return keys
}

// TestPartitionedKillOnePartition is the partitioned chaos gate: kill
// the active coordinator exactly as PARTITION 0's sweep completes
// phase 2 (mid-advancement — vu switched, update quiescence done), and
// require that partition 1 keeps advancing while partition 0's
// interrupted cycle is still in takeover, that a standby finishes
// partition 0's sweep under a higher term, that the per-partition
// convergence audit passes, and that no acknowledged update in either
// partition is lost.
func TestPartitionedKillOnePartition(t *testing.T) {
	const nparts = 2
	c, err := core.NewCluster(core.Config{
		Nodes:          3,
		Partitions:     nparts,
		Reliable:       true,
		Failover:       true,
		ResendInterval: 5 * time.Millisecond,
		AckTimeout:     30 * time.Second,
		FailoverConfig: core.LeaseConfig{
			LeaseInterval: 10 * time.Millisecond,
			LeaseTimeout:  40 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := partitionKeys(t, c)
	pm := c.PlacementMap()
	for p, key := range keys {
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		c.Preload(pm.Primary(p), key, rec)
	}
	c.Start()
	defer c.Close()

	// Acknowledged updates in both partitions before the chaos window.
	want := map[string]int64{}
	for i := 0; i < 20; i++ {
		p := i % nparts
		h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    pm.Primary(p),
			Updates: []model.KeyOp{{Key: keys[p], Op: model.AddOp{Field: "bal", Delta: 1}}},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatal("update timed out before the chaos window even opened")
		}
		want[keys[p]]++
	}

	killCh := ArmPartPhaseKill(c, 0, 2)
	rep := c.AdvancePartition(0)
	if !rep.Interrupted {
		t.Fatalf("partition 0's sweep survived the coordinator kill: %+v", rep)
	}
	var kill FailoverKill
	select {
	case kill = <-killCh:
	case <-time.After(5 * time.Second):
		t.Fatal("chaos kill never fired")
	}
	if kill.Part != 0 || kill.Phase != 2 {
		t.Fatalf("killed at partition %d phase %d, armed for partition 0 phase 2", kill.Part, kill.Phase)
	}

	// The other partition must keep advancing: drive partition 1's
	// sweep to completion while partition 0's interrupted cycle is
	// still being detected and recovered.
	rep1 := advanceThroughTakeovers(t, "partition 1's sweep while partition 0 recovered",
		func() core.AdvanceReport { return c.AdvancePartition(1) })
	if rep1.Part != 1 || rep1.NewVR < 1 {
		t.Fatalf("partition 1's sweep completed oddly: %+v", rep1)
	}

	// Partition 0's interrupted sweep must finish under the successor's
	// higher term (AwaitTakeover audits partition 0's version pair).
	tr, err := AwaitTakeover(c, kill.Term, 1, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NewTerm <= kill.Term {
		t.Fatalf("takeover term %d not above killed term %d", tr.NewTerm, kill.Term)
	}
	if errs := GateErrors(c, 10*time.Second); len(errs) != 0 {
		t.Fatalf("gate failed after the partition-0 kill: %v", errs)
	}
	if prep := verify.CheckPartitions(c); !prep.OK() {
		t.Fatalf("per-partition audit failed: %v", prep.Violations)
	}

	// Nothing acknowledged lost in either partition.
	for p, key := range keys {
		h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:  pm.Primary(p),
			Reads: []string{key},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatal("read timed out after takeover")
		}
		reads := h.Reads()
		if len(reads) != 1 || reads[0].Record == nil {
			t.Fatalf("read of %q returned %+v", key, reads)
		}
		if got := reads[0].Record.Field("bal"); got != want[key] {
			t.Fatalf("acknowledged updates lost: %q has bal %d, want %d", key, got, want[key])
		}
	}

	// The successor must keep advancing every partition.
	advanceThroughTakeovers(t, "successor's full sweep", c.Advance)
}

// advanceThroughTakeovers retries sweep until it completes, tolerating
// the transients of a takeover: no routed coordinator yet, the killed
// one, or one a later takeover deposed. A later takeover is legal even
// after AwaitTakeover saw a settled successor: on a starved scheduler a
// second standby's staggered lease can lapse before the successor's
// heartbeat reaches it, and leases only route sweeps, they never guard
// data (DESIGN.md §5a item 8).
func advanceThroughTakeovers(t *testing.T, what string, sweep func() core.AdvanceReport) core.AdvanceReport {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rep := sweep()
		if !rep.Interrupted {
			return rep
		}
		if !errors.Is(rep.Err, core.ErrStaleTerm) &&
			!errors.Is(rep.Err, core.ErrNoCoordinator) &&
			!errors.Is(rep.Err, core.ErrCrashed) {
			t.Fatalf("%s failed with %v", what, rep.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never completed through the takeover transients: %v", what, rep.Err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
