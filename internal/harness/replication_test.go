package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
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
// and require that, with no promotion step and no wait,
//
//   - every acknowledged update stays readable at a surviving owner
//     right after the cut,
//   - new updates keep committing at that owner,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := partitionKeys(t, c)
	pm := c.PlacementMap()
	// Replicated placement: every owner of a partition preloads its
	// probe key, so any owner serves version-0 reads too.
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

	// The replicated state must already be readable at another owner,
	// not just where it ran — that is the availability the stream buys.
	survivor := owners[1]
	if got := read(survivor, keys[1]); got != want[keys[1]] {
		t.Fatalf("owner %d serves bal %d for %q, want %d (replication lagging acknowledged updates)",
			survivor, got, keys[1], want[keys[1]])
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

	// Every acknowledged update stays readable at a surviving owner
	// right after the cut: the advancement above closed their version,
	// which proved every owner holds them.
	if got := read(survivor, keys[1]); got != want[keys[1]] {
		t.Fatalf("surviving owner %d serves bal %d for %q, want %d", survivor, got, keys[1], want[keys[1]])
	}

	// Writes keep committing at the surviving owner (and stream to the
	// other owners, the cut one by retransmission after the heal).
	for i := 0; i < 5; i++ {
		submit(survivor, keys[1])
		want[keys[1]]++
	}

	// Heal; the cut owner catches up from the retransmitted stream and
	// the cluster converges.
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

	// Replication counters moved: sends at the owners that ran updates,
	// applies at the others.
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
// exactly once with the default worker pool, and the property a
// leaderless owner group rests on: once an advancement closes a
// version, every owner holds the same image of it. Four nodes, four
// partitions (every node owns every partition), and thousands of span-2
// update transactions rooted at every owner in turn, submitted
// concurrently in batches, so several workers of one node fan effect
// sets out to the same other owner at once — while the test advances
// the cluster side by side with the traffic. After each completed
// Advance every owner of every partition sits at the same read version
// and serves the same record for every key there; the traffic that
// overlapped the advancement is then drained and the per-partition
// audit must be clean. At the end every replica send has been applied,
// every owner holds the acknowledged balances, and the convergence
// audit is clean.
func TestReplicatedConcurrentWorkersExactlyOnce(t *testing.T) {
	const (
		nodes, nparts = 4, 4
		groups        = 64
		submitters    = 8
		perSubmitter  = 450 // at least 3 600 transactions in all
		batch         = 25  // submitted together, then awaited
		minAdvances   = 4   // completed while the submitters still run
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
	pm := c.PlacementMap()

	// quiet lets the advancer drain the traffic an advancement overlapped:
	// submitters hold it shared for one batch, from submit to the last
	// handle, and the audit holds it exclusively.
	var quiet sync.RWMutex
	var advanced atomic.Int32
	var mu sync.Mutex
	want := make([]int64, groups)
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter || advanced.Load() < minAdvances; i += batch {
				quiet.RLock()
				hs := make([]*core.Handle, 0, batch)
				for j := i; j < i+batch; j++ {
					// Each transaction adds its amount at two consecutive
					// nodes, rooted at the key's owners in turn, so every
					// owner must end with twice the acknowledged sum per key.
					g, amount := rng.Intn(groups), int64(rng.Intn(500)+1)
					owners := pm.OwnerSet(pm.Of(keys[g]))
					root := &model.SubtxnSpec{Node: owners[j%len(owners)]}
					for k := 0; k < 2; k++ {
						root.Children = append(root.Children, &model.SubtxnSpec{
							Node:    model.NodeID((g + k) % nodes),
							Updates: []model.KeyOp{{Key: keys[g], Op: model.AddOp{Field: "bal", Delta: amount}}},
						})
					}
					h, serr := c.Submit(&model.TxnSpec{Root: root})
					if serr != nil {
						quiet.RUnlock()
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
						quiet.RUnlock()
						errs <- errors.New("update timed out")
						return
					}
				}
				quiet.RUnlock()
			}
		}(int64(s + 1))
	}
	submitted := make(chan struct{})
	go func() {
		wg.Wait()
		close(submitted)
	}()

	// The advancer: the submitters keep going until minAdvances
	// advancements have completed beside them. The last advancement
	// starts after every submitter has finished, so it closes the
	// version the last transactions ran at.
	for done := false; !done; {
		select {
		case <-submitted:
			done = true
		default:
		}
		n := advanced.Load() + 1
		if rep := c.Advance(); rep.Interrupted {
			t.Fatalf("advancement %d failed: %v", n, rep.Err)
		}
		assertOwnersAgree(t, c, keys)
		quiet.Lock()
		if v := auditSettled(c, 10*time.Second); len(v) != 0 {
			quiet.Unlock()
			t.Fatalf("per-partition audit after advancement %d: %v", n, v)
		}
		advanced.Add(1)
		quiet.Unlock()
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := c.ObsSnapshot()
	if sends, applies := snap.Counters["repl_sends"], snap.Counters["repl_applies"]; sends == 0 || sends != applies {
		t.Fatalf("replica sends %d, applies %d: want equal and nonzero", sends, applies)
	}
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

// assertOwnersAgree requires every owner of each key's partition to sit
// at the same read version and to serve the same record for the key at
// it: what a completed advancement proves about a replicated version.
func assertOwnersAgree(t *testing.T, c *core.Cluster, keys []string) {
	t.Helper()
	pm := c.PlacementMap()
	for _, key := range keys {
		part := pm.Of(key)
		owners := pm.OwnerSet(part)
		ref := c.Node(int(owners[0]))
		vr, _ := ref.VersionsPart(part)
		want, _, ok := ref.Store().ReadMax(key, vr)
		if !ok {
			t.Fatalf("owner %d of partition %d has no %q at vr %d", owners[0], part, key, vr)
		}
		for _, o := range owners[1:] {
			nd := c.Node(int(o))
			if ovr, _ := nd.VersionsPart(part); ovr != vr {
				t.Fatalf("partition %d: owner %d at vr %d, owner %d at vr %d", part, owners[0], vr, o, ovr)
			}
			got, _, ok := nd.Store().ReadMax(key, vr)
			if !ok || !reflect.DeepEqual(got.Fields, want.Fields) || !reflect.DeepEqual(got.Log, want.Log) {
				t.Fatalf("partition %d at vr %d: owner %d holds %q = %v, owner %d holds %v",
					part, vr, owners[0], key, want, o, got)
			}
		}
	}
}

// auditSettled returns verify.CheckPartitions' violations once the
// replica children still in flight have drained (their versions' R and
// C meet), or whatever remains after settle.
func auditSettled(c *core.Cluster, settle time.Duration) []string {
	deadline := time.Now().Add(settle)
	for {
		rep := verify.CheckPartitions(c)
		if rep.OK() || time.Now().After(deadline) {
			return rep.Violations
		}
		time.Sleep(2 * time.Millisecond)
	}
}
