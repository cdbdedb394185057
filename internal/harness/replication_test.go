package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/verify"
)

// TestReplicatedKillPartitionPrimary is the replica-group chaos gate:
// with two-partition placement over three nodes and replication on,
// isolate partition 1's placement primary mid-traffic (both directions,
// node and coordinator endpoints — the in-process stand-in for kill -9)
// and require that
//
//   - the replication lease promotes the next live owner within a
//     bounded window,
//   - every acknowledged update stays readable from the promoted
//     backup while the old primary is gone,
//   - new updates keep committing through the promoted primary,
//   - after healing, the first advancement that completes leaves every
//     owner serving the acknowledged balance at its read version, with
//     no catch-up wait, and the convergence audit (versions agreed,
//     counters balanced, per-partition invariants) passes.
func TestReplicatedKillPartitionPrimary(t *testing.T) {
	const nparts = 2
	c, err := core.NewCluster(core.Config{
		Nodes:          3,
		Partitions:     nparts,
		Reliable:       true,
		Replicate:      true,
		Failover:       true,
		ResendInterval: 5 * time.Millisecond,
		AckTimeout:     30 * time.Second,
		FailoverConfig: core.LeaseConfig{
			LeaseInterval: 10 * time.Millisecond,
			LeaseTimeout:  40 * time.Millisecond,
		},
		ReplicaConfig: core.LeaseConfig{
			LeaseInterval: 10 * time.Millisecond,
			LeaseTimeout:  40 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := partitionKeys(t, c)
	pm := c.PlacementMap()
	// Replicated placement: every owner of a partition preloads its
	// probe key, so a promoted backup serves version-0 reads too.
	for p, key := range keys {
		for _, o := range pm.OwnerSet(p) {
			rec := model.NewRecord()
			rec.Fields["bal"] = 0
			c.Preload(o, key, rec)
		}
	}
	c.Start()
	defer c.Close()

	fi, ok := c.Network().(transport.FaultInjector)
	if !ok {
		t.Fatal("cluster network does not support fault injection")
	}

	victim := pm.Primary(1) // partition 1's placement primary
	owners := pm.OwnerSet(1)
	if len(owners) < 2 {
		t.Fatalf("partition 1 has %d owners, need at least 2", len(owners))
	}

	submit := func(node model.NodeID, key string) {
		t.Helper()
		h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    node,
			Updates: []model.KeyOp{{Key: key, Op: model.AddOp{Field: "bal", Delta: 1}}},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatalf("update of %q at node %d timed out", key, node)
		}
	}
	read := func(node model.NodeID, key string) int64 {
		t.Helper()
		h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:  node,
			Reads: []string{key},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatalf("read of %q at node %d timed out", key, node)
		}
		reads := h.Reads()
		if len(reads) != 1 || reads[0].Record == nil {
			t.Fatalf("read of %q at node %d returned %+v", key, node, reads)
		}
		return reads[0].Record.Field("bal")
	}

	// Acknowledged traffic in both partitions, then advance so the
	// updates become readable (vr reaches the version they ran at).
	want := map[string]int64{}
	for i := 0; i < 20; i++ {
		p := i % nparts
		submit(pm.Primary(p), keys[p])
		want[keys[p]]++
	}
	if rep := c.Advance(); rep.Interrupted {
		t.Fatalf("pre-kill advancement failed: %v", rep.Err)
	}

	// The replicated state must already be readable at a backup, not
	// just the primary — that is the availability the stream buys.
	backup := owners[1]
	if got := read(backup, keys[1]); got != want[keys[1]] {
		t.Fatalf("backup %d serves bal %d for %q, want %d (replication lagging acknowledged updates)",
			backup, got, keys[1], want[keys[1]])
	}

	// Kill: cut both of the victim's endpoints (node and its standby
	// coordinator endpoint) in both directions.
	endpoints := 2 * c.NumNodes()
	victimEPs := []model.NodeID{victim, model.NodeID(c.NumNodes() + int(victim))}
	for _, v := range victimEPs {
		for e := 0; e < endpoints; e++ {
			ep := model.NodeID(e)
			if ep == victimEPs[0] || ep == victimEPs[1] {
				continue
			}
			fi.Partition(v, ep)
			fi.Partition(ep, v)
		}
	}

	// Promotion within a bounded window: the next live owner must take
	// the lease and routing must follow. The window is one lease
	// timeout plus the staggers and a heartbeat propagation margin; 2s
	// is orders of magnitude above it and still fails fast.
	var promoted model.NodeID
	deadline := time.Now().Add(2 * time.Second)
	for {
		promoted = c.CurrentPrimary(1)
		if promoted != victim {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition 1 still routed to dead primary %d after 2s", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	isOwner := false
	for _, o := range owners {
		if o == promoted {
			isOwner = true
		}
	}
	if !isOwner {
		t.Fatalf("promoted primary %d is not in partition 1's owner set %v", promoted, owners)
	}

	// Every acknowledged update stays readable from the promoted
	// backup while the placement primary is gone.
	if got := read(promoted, keys[1]); got != want[keys[1]] {
		t.Fatalf("promoted primary %d serves bal %d for %q, want %d", promoted, got, keys[1], want[keys[1]])
	}

	// Writes keep committing through the promoted primary (and stream
	// to the surviving owners).
	for i := 0; i < 5; i++ {
		submit(promoted, keys[1])
		want[keys[1]]++
	}

	// Heal; the deposed primary catches up from the retransmitted
	// stream and the cluster converges.
	fi.Heal()
	if errs := GateErrors(c, 10*time.Second); len(errs) != 0 {
		t.Fatalf("gate failed after heal: %v", errs)
	}
	// The victim's coordinator standby lost the active coordinator's
	// heartbeats while isolated and may have self-promoted under a
	// higher term; after healing that term deposes the old coordinator,
	// so the sweep retries through the takeover transients exactly as
	// the coordinator-failover gate does.
	advDeadline := time.Now().Add(15 * time.Second)
	for {
		rep := c.Advance()
		if !rep.Interrupted {
			break
		}
		if !errors.Is(rep.Err, core.ErrStaleTerm) &&
			!errors.Is(rep.Err, core.ErrNoCoordinator) &&
			!errors.Is(rep.Err, core.ErrCrashed) {
			t.Fatalf("post-heal advancement failed: %v", rep.Err)
		}
		if time.Now().After(advDeadline) {
			t.Fatal("post-heal advancement could not complete through coordinator churn")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if prep := verify.CheckPartitions(c); !prep.OK() {
		t.Fatalf("per-partition audit failed: %v", prep.Violations)
	}
	if errs := c.ConvergenceErrors(); len(errs) != 0 {
		t.Fatalf("convergence audit failed: %v", errs)
	}

	// No catch-up wait: the replica applies are counted subtransactions,
	// so the advancement that just closed their version also proved every
	// owner holds them. Each owner of partition 1 serves the acknowledged
	// balance at its own read version straight away.
	assertOwnersAtVR(t, c, 1, map[string]int64{keys[1]: want[keys[1]]})

	// Read-backs through the protocol: every owner of partition 1 —
	// including the healed ex-primary — serves the same balance to a
	// query.
	for _, o := range owners {
		if got := read(o, keys[1]); got != want[keys[1]] {
			t.Fatalf("owner %d serves bal %d for %q, want %d after heal", o, got, keys[1], want[keys[1]])
		}
	}
	// And partition 0 was undisturbed throughout.
	if got := read(pm.Primary(0), keys[0]); got != want[keys[0]] {
		t.Fatalf("partition 0 lost updates: bal %d, want %d", got, want[keys[0]])
	}

	// Replication counters moved: sends on some primary, applies on
	// some backup.
	snap := c.ObsSnapshot()
	if snap.Counters["repl_sends"] == 0 || snap.Counters["repl_applies"] == 0 {
		t.Fatalf("replication counters flat: sends=%d applies=%d",
			snap.Counters["repl_sends"], snap.Counters["repl_applies"])
	}
}

// assertOwnersAtVR requires every owner of partition part to hold
// want[key] as key's balance at the owner's own read version.
func assertOwnersAtVR(t *testing.T, c *core.Cluster, part int, want map[string]int64) {
	t.Helper()
	for _, o := range c.PlacementMap().OwnerSet(part) {
		nd := c.Node(int(o))
		vr, _ := nd.VersionsPart(part)
		for key, bal := range want {
			rec, _, ok := nd.Store().ReadMax(key, vr)
			if !ok || rec.Field("bal") != bal {
				t.Fatalf("owner %d of partition %d holds %q = %v at vr %d, want bal %d", o, part, key, rec, vr, bal)
			}
		}
	}
}

// TestReplicatedConcurrentWorkersExactlyOnce pins replicated applies to
// exactly once with the default worker pool: four nodes, four
// partitions (every node owns every partition), and thousands of span-2
// update transactions submitted concurrently, so several workers of one
// node fan effect sets out to the same backup at once. After two
// advancements every replica send has been applied, every owner of
// every partition holds the acknowledged balances at its read version,
// and the convergence audit is clean.
func TestReplicatedConcurrentWorkersExactlyOnce(t *testing.T) {
	const (
		nodes, nparts = 4, 4
		groups        = 64
		submitters    = 8
		perSubmitter  = 450 // 3 600 transactions in all
	)
	c, err := core.NewCluster(core.Config{
		Nodes:          nodes,
		Partitions:     nparts,
		Reliable:       true,
		Replicate:      true,
		ResendInterval: 5 * time.Millisecond,
		AckTimeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, groups)
	for g := range keys {
		keys[g] = fmt.Sprintf("g%03d", g)
		for n := 0; n < nodes; n++ {
			rec := model.NewRecord()
			rec.Fields["bal"] = 0
			c.Preload(model.NodeID(n), keys[g], rec)
		}
	}
	c.Start()
	defer c.Close()

	// Each transaction adds its amount at two consecutive nodes, so every
	// owner must end with twice the acknowledged sum per key.
	var mu sync.Mutex
	want := make([]int64, groups)
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			hs := make([]*core.Handle, 0, perSubmitter)
			for i := 0; i < perSubmitter; i++ {
				g, amount := rng.Intn(groups), int64(rng.Intn(500)+1)
				root := &model.SubtxnSpec{Node: model.NodeID(rng.Intn(nodes))}
				for j := 0; j < 2; j++ {
					root.Children = append(root.Children, &model.SubtxnSpec{
						Node:    model.NodeID((g + j) % nodes),
						Updates: []model.KeyOp{{Key: keys[g], Op: model.AddOp{Field: "bal", Delta: amount}}},
					})
				}
				h, serr := c.Submit(&model.TxnSpec{Root: root})
				if serr != nil {
					errs <- serr
					return
				}
				hs = append(hs, h)
				mu.Lock()
				want[g] += 2 * amount
				mu.Unlock()
			}
			for _, h := range hs {
				if !h.WaitTimeout(60 * time.Second) {
					errs <- errors.New("update timed out")
					return
				}
			}
		}(int64(s + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rep := c.Advance(); rep.Interrupted {
			t.Fatalf("advancement %d failed: %v", i, rep.Err)
		}
	}

	snap := c.ObsSnapshot()
	if sends, applies := snap.Counters["repl_sends"], snap.Counters["repl_applies"]; sends == 0 || sends != applies {
		t.Fatalf("replica sends %d, applies %d: want equal and nonzero", sends, applies)
	}
	pm := c.PlacementMap()
	for p := 0; p < nparts; p++ {
		part := map[string]int64{}
		for g, key := range keys {
			if pm.Of(key) == p {
				part[key] = want[g]
			}
		}
		assertOwnersAtVR(t, c, p, part)
	}
	if errs := c.ConvergenceErrors(); len(errs) != 0 {
		t.Fatalf("convergence audit failed: %v", errs)
	}
}
