package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// These tests cover the coordinator-failover layer: terms fence stale
// coordinators, Close unwinds a takeover instead of deadlocking, and
// two live coordinators with overlapping terms can never regress the
// cluster's versions (the idempotent max-merge argument of DESIGN.md
// §5a item 8, exercised for real under -race and a lossy network).

func TestNextTermPartitionsProposers(t *testing.T) {
	const n = 3
	// Any two nodes proposing after the same observed maximum must mint
	// distinct terms, and every proposal must be strictly above it.
	for maxSeen := uint64(0); maxSeen < 20; maxSeen++ {
		minted := map[uint64]model.NodeID{}
		for id := model.NodeID(0); id < n; id++ {
			term := nextTerm(maxSeen, id, n)
			if term <= maxSeen {
				t.Fatalf("nextTerm(%d, %d, %d) = %d, not above maxSeen", maxSeen, id, n, term)
			}
			if term%n != uint64(id+1)%n {
				t.Fatalf("nextTerm(%d, %d, %d) = %d, breaks proposer partitioning", maxSeen, id, n, term)
			}
			if prev, dup := minted[term]; dup {
				t.Fatalf("nodes %d and %d both minted term %d after maxSeen %d", prev, id, term, maxSeen)
			}
			minted[term] = id
		}
	}
}

func TestStaleTermCoordinatorIsFenced(t *testing.T) {
	// A node that has fenced term 5 must reject any lower term — term 0
	// included, which no coordinator carries — and keep accepting the
	// current term.
	script := transport.NewScript(3)
	c, err := NewCluster(Config{Nodes: 2, Transport: script})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	nd := c.Node(0)
	if !nd.observeTerm(0, 5) {
		t.Fatal("first observation of term 5 rejected")
	}
	if nd.observeTerm(0, 3) || nd.observeTerm(0, 0) {
		t.Fatal("term 3 or term 0 accepted after term 5 was fenced")
	}
	if !nd.observeTerm(0, 5) {
		t.Fatal("the current term must stay accepted")
	}

	// A fenced Phase 1 notice is dropped: no ack, no version change,
	// and a StaleTermMsg goes back to the sender.
	nd.handleMessage(transport.Message{From: 1, To: 0, Payload: StartAdvancementMsg{NewVU: 7, Term: 3}})
	if _, vu := nd.Versions(); vu != 1 {
		t.Fatalf("stale-term notice advanced vu to %d", vu)
	}
	found := script.DeliverWhere(func(m transport.Message) bool {
		p, ok := m.Payload.(StaleTermMsg)
		return ok && m.To == 1 && p.Term == 5
	})
	if !found {
		t.Fatalf("no StaleTermMsg carrying the fenced term went back: %v", script.Pending())
	}
	if rej := c.ObsSnapshot().Counters["stale_term_rejects"]; rej != 1 {
		t.Fatalf("stale_term_rejects = %d, want 1", rej)
	}
}

// TestCoordinatorTermFencesWithoutFailover: a cluster without Failover
// still runs its one coordinator under a positive term, and one sweep
// leaves that term in every node's fencing register on every partition.
func TestCoordinatorTermFencesWithoutFailover(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 2})
	if rep := c.Advance(); rep.Interrupted {
		t.Fatal(rep.Err)
	}
	term := c.Coordinator().term
	if term == 0 {
		t.Fatal("the coordinator runs under term 0")
	}
	for i := 0; i < c.NumNodes(); i++ {
		for p := 0; p < c.Partitions(); p++ {
			if got := c.Node(i).TermPart(p); got != term {
				t.Errorf("node %d partition %d fences term %d, want the coordinator's %d", i, p, got, term)
			}
		}
	}
}

// TestCrashCoordinatorUnderFailover: CrashCoordinator replaces the
// active manager's coordinator under a higher term in a failover
// cluster too, and the successor recovers and sweeps.
func TestCrashCoordinatorUnderFailover(t *testing.T) {
	c := newTestCluster(t, Config{Failover: true, AckTimeout: 10 * time.Second})
	if rep := c.Advance(); rep.Interrupted {
		t.Fatal(rep.Err)
	}
	old := c.Coordinator()
	fresh := c.CrashCoordinator()
	if fresh == nil || fresh.term <= old.term {
		t.Fatalf("successor %v does not run above the crashed term %d", fresh, old.term)
	}
	if _, err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	if rep := c.Advance(); rep.Interrupted || rep.NewVR != 2 {
		t.Fatalf("advancement after the crash: %+v", rep)
	}
}

func TestCloseUnwindsRacingTakeover(t *testing.T) {
	// A failover cluster on a scripted transport that delivers nothing:
	// heartbeats never arrive, so a standby elects itself and its
	// Recover blocks forever on undelivered version probes (no
	// AckTimeout — the paper's unbounded wait). Close must unwind that
	// in-flight takeover with ErrClosed, not deadlock on it.
	script := transport.NewScript(4) // 2 nodes + 2 coordinator endpoints
	c, err := NewCluster(Config{
		Nodes: 2, Transport: script, Failover: true,
		FailoverConfig: LeaseConfig{LeaseInterval: 2 * time.Millisecond, LeaseTimeout: 6 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	deadline := time.Now().Add(5 * time.Second)
	for c.ObsSnapshot().Counters["takeovers"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("standby never started a takeover")
		}
		time.Sleep(time.Millisecond)
	}
	// The blocked Recover must not have advanced anything.
	if vr, vu := c.Node(0).Versions(); vr != 0 || vu != 1 {
		t.Fatalf("takeover advanced versions with no delivery: vr=%d vu=%d", vr, vu)
	}

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked against the in-flight takeover")
	}
}

func TestOverlappingCoordinatorTermsNeverRegress(t *testing.T) {
	// The §5a item 8 property test: start a second coordinator under a
	// higher term while the incumbent is mid-sweep, on a lossy
	// duplicating network. Counters and versions must never regress at
	// any node, the incumbent must finish or unwind with ErrStaleTerm,
	// and the cluster must converge.
	c, err := NewCluster(Config{
		Nodes:          3,
		Reliable:       true,
		Failover:       true,
		ResendInterval: 5 * time.Millisecond,
		AckTimeout:     30 * time.Second,
		FailoverConfig: LeaseConfig{
			// A long lease keeps elections out of the picture: the only
			// second coordinator is the one this test starts by hand.
			LeaseInterval: 20 * time.Millisecond,
			LeaseTimeout:  30 * time.Second,
		},
		NetConfig: transport.Config{
			Jitter: 200 * time.Microsecond,
			Seed:   23,
			Faults: transport.Faults{Default: transport.LinkFaults{DropRate: 0.05, DupRate: 0.05}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[model.NodeID]string{0: "A", 1: "B", 2: "C"}
	for node, key := range keys {
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		c.Preload(node, key, rec)
	}
	c.Start()
	defer c.Close()

	var handles []*Handle
	for i := 0; i < 30; i++ {
		h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    model.NodeID(i % 3),
			Updates: []model.KeyOp{{Key: keys[model.NodeID(i%3)], Op: model.AddOp{Field: "bal", Delta: 1}}},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatal("update lost on the lossy network")
		}
	}

	// Watcher: versions and terms must be monotone at every node for
	// the whole double-coordinator window.
	type view struct {
		vr, vu model.Version
		term   uint64
	}
	last := make([]view, c.NumNodes())
	var regress []string
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < c.NumNodes(); i++ {
				nd := c.Node(i)
				vr, vu := nd.Versions()
				term := nd.coordTerm.Load()
				mu.Lock()
				if vr < last[i].vr || vu < last[i].vu || term < last[i].term {
					regress = append(regress, fmt.Sprintf(
						"node %d regressed: (vr=%d vu=%d term=%d) after (vr=%d vu=%d term=%d)",
						i, vr, vu, term, last[i].vr, last[i].vu, last[i].term))
				}
				last[i] = view{vr, vu, term}
				mu.Unlock()
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Incumbent sweep in flight; then a second, higher-term coordinator
	// via the standby's takeover hook.
	advCh := c.AdvanceAsync()
	m1 := c.FailoverManagers()[1]
	if co := m1.takeover(); co == nil {
		t.Fatal("standby takeover hook returned no coordinator")
	}
	rep := <-advCh
	if rep.Interrupted && !errors.Is(rep.Err, ErrStaleTerm) {
		t.Fatalf("incumbent unwound with %v, want completion or ErrStaleTerm", rep.Err)
	}

	// Whoever holds the role now must complete a full sweep. The kill
	// window decides how much of the incumbent's cycle survived — the
	// successor may have adopted clean state rather than resumed — so
	// drive sweeps until one completes, tolerating the transients: a
	// deposed incumbent still routed unwinds with ErrStaleTerm, and a
	// demotion gap briefly leaves no local coordinator.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rep := c.Advance()
		if !rep.Interrupted {
			break
		}
		if !errors.Is(rep.Err, ErrStaleTerm) && !errors.Is(rep.Err, ErrNoCoordinator) {
			t.Fatalf("post-fencing sweep failed with %v", rep.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no coordinator could complete a sweep after the fencing window")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A completed sweep means every node acked both switches: they all
	// agree on (vr, vr+1) with vr >= 1, publishing the updates.
	for i := 0; i < c.NumNodes(); i++ {
		vr, vu := c.Node(i).Versions()
		if vr < 1 || vu != vr+1 {
			t.Fatalf("node %d at (vr=%d, vu=%d) after a completed sweep", i, vr, vu)
		}
	}
	close(stop)
	wg.Wait()
	if len(regress) != 0 {
		t.Fatalf("monotonicity violated: %v", regress)
	}

	if errs := c.ConvergenceErrors(); len(errs) != 0 {
		t.Fatalf("convergence errors: %v", errs)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}
