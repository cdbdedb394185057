package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/verify"
)

// newPartitionTestCluster builds (without starting) a partitioned
// cluster and preloads one "bal" account per partition at that
// partition's primary; keys[p] is partition p's account.
func newPartitionTestCluster(t *testing.T, cfg Config) (*Cluster, []string) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, c.nparts)
	for i, found := 0, 0; found < len(keys); i++ {
		k := fmt.Sprintf("k%04d", i)
		if p := c.pmap.Of(k); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	for p, k := range keys {
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		c.Preload(c.pmap.Primary(p), k, rec)
	}
	return c, keys
}

// startPartitionTraffic runs one closed-loop updater per partition (+1
// on keys[p] at the partition's primary, each update acknowledged
// before the next) until the returned stop function is called; stop
// waits for the updaters and returns how many updates were acknowledged.
func startPartitionTraffic(t *testing.T, c *Cluster, keys []string) (stop func() int64) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var sent atomic.Int64
	for p := range keys {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
					Node:    c.pmap.Primary(p),
					Updates: []model.KeyOp{addOp(keys[p], 1)},
				}})
				if serr != nil {
					t.Error(serr)
					return
				}
				if !h.WaitTimeout(30 * time.Second) {
					t.Error("update timed out")
					return
				}
				sent.Add(1)
			}
		}(p)
	}
	return func() int64 {
		close(done)
		wg.Wait()
		return sent.Load()
	}
}

// TestPartitionSweepsDoNotBlockEachOther is the partition-independence
// gate (run under -race in CI): wedge partition 1's sweep mid-
// advancement — the phase hook blocks while that sweep holds its own
// per-partition advancement lock — and require that partition 0's full
// sweep still completes, with update traffic flowing in BOTH partitions
// the whole time. Under a single global epoch either the shared lock or
// the shared quiescence check would make partition 0 wait.
func TestPartitionSweepsDoNotBlockEachOther(t *testing.T) {
	const nparts = 2
	c, keys := newPartitionTestCluster(t, Config{Nodes: 2, Partitions: nparts})

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	c.SetPartPhaseHook(func(part, phase int) {
		if part == 1 && phase == 1 {
			once.Do(func() { close(entered) })
			<-release
		}
	})
	c.Start()
	defer c.Close()

	// Continuous acknowledged traffic in both partitions for the whole
	// stall window.
	stopTraffic := startPartitionTraffic(t, c, keys)

	// Wedge partition 1's sweep right after phase 1 completes (vu
	// switched, quiescence not yet run) — it parks holding its own
	// advancement lock.
	done1 := make(chan AdvanceReport, 1)
	go func() { done1 <- c.AdvancePartition(1) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("partition 1's sweep never completed phase 1")
	}

	// Partition 0's full four-phase sweep must complete while partition
	// 1 is wedged mid-advancement and both partitions carry traffic.
	done0 := make(chan AdvanceReport, 1)
	go func() { done0 <- c.AdvancePartition(0) }()
	select {
	case rep0 := <-done0:
		if rep0.Interrupted {
			t.Fatalf("partition 0's sweep failed: %v", rep0.Err)
		}
		if rep0.Part != 0 || rep0.NewVR != 1 {
			t.Fatalf("partition 0's sweep completed oddly: %+v", rep0)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("partition 0's sweep blocked behind partition 1's stalled sweep")
	}

	close(release)
	rep1 := <-done1
	if rep1.Interrupted {
		t.Fatalf("partition 1's sweep failed after release: %v", rep1.Err)
	}
	if stopTraffic() == 0 {
		t.Fatal("no traffic flowed during the sweeps")
	}

	// Drain whatever the last submissions left in flight and audit.
	if rep := c.Advance(); rep.Interrupted {
		t.Fatalf("final full sweep failed: %v", rep.Err)
	}
	if errs := c.ConvergenceErrors(); len(errs) != 0 {
		t.Fatalf("convergence errors: %v", errs)
	}
}

// TestAdvanceSweepsAllPartitionsConcurrently is the gate for
// Cluster.Advance on a partitioned cluster (run under -race -count=10
// in CI). One Advance() must sweep every partition side by side: the
// first call's phase hook holds each partition at the end of phase 3
// until all four have got there, which a partition-by-partition loop can
// never satisfy; and between a partition's update-version switch and the
// end of its phase 2 no other partition may be in those phases
// (sweepPacer's turn). Then, with updates flowing in every partition, N
// calls must advance every partition by exactly N, keep vr < vu ≤ vr+2
// at every node throughout, leave the audits clean, and report sweep
// counts that are the sum of the per-partition history entries.
func TestAdvanceSweepsAllPartitionsConcurrently(t *testing.T) {
	const nparts, calls = 4, 5
	c, keys := newPartitionTestCluster(t, Config{Nodes: 3, Partitions: nparts})

	var arrived, inTurn atomic.Int32
	allArrived := make(chan struct{})
	c.SetPartPhaseHook(func(part, phase int) {
		switch phase {
		case 1:
			if n := inTurn.Add(1); n != 1 {
				t.Errorf("partition %d switched its update version with %d partitions between switch and drain", part, n)
			}
		case 2:
			inTurn.Add(-1)
		case 3:
			if arrived.Add(1) == nparts {
				close(allArrived)
			}
			select {
			case <-allArrived:
			case <-time.After(10 * time.Second):
				t.Error("a partition's sweep waited for another partition's to finish")
			}
		}
	})
	c.Start()
	defer c.Close()
	stopTraffic := startPartitionTraffic(t, c, keys)

	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			for i := 0; i < c.NumNodes(); i++ {
				for p := 0; p < nparts; p++ {
					if vr, vu := c.Node(i).VersionsPart(p); !(vr < vu && vu <= vr+2) {
						t.Errorf("node %d partition %d: window invariant violated: vr=%d vu=%d", i, p, vr, vu)
						return
					}
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var sweeps2, sweeps4 int
	advance := func() {
		t.Helper()
		rep := c.Advance()
		if rep.Interrupted {
			t.Fatalf("Advance failed: %v", rep.Err)
		}
		sweeps2 += rep.SweepsPhase2
		sweeps4 += rep.SweepsPhase4
	}
	advance()
	c.SetPartPhaseHook(nil)
	for i := 1; i < calls; i++ {
		advance()
	}
	for p, pair := range c.PartitionPairs() {
		if pair != [2]model.Version{calls, calls + 1} {
			t.Errorf("partition %d at (vr=%d, vu=%d) after %d calls, want (%d, %d)", p, pair[0], pair[1], calls, calls, calls+1)
		}
	}
	if stopTraffic() == 0 {
		t.Fatal("no traffic flowed during the sweeps")
	}
	advance() // drain what the last updates left in the outgoing version
	close(stopSampling)
	sampler.Wait()

	if prep := verify.CheckPartitions(c); !prep.OK() {
		t.Errorf("per-partition audit failed: %v", prep.Violations)
	}
	var hist2, hist4 int
	perPart := make([]int, nparts)
	for _, rep := range c.Coordinator().History() {
		hist2 += rep.SweepsPhase2
		hist4 += rep.SweepsPhase4
		perPart[rep.Part]++
	}
	if sweeps2 != hist2 || sweeps4 != hist4 {
		t.Errorf("aggregate sweeps %d/%d, per-partition history sums to %d/%d", sweeps2, sweeps4, hist2, hist4)
	}
	for p, n := range perPart {
		if n != calls+1 {
			t.Errorf("partition %d completed %d sweeps in %d calls", p, n, calls+1)
		}
	}
}

// TestAdvanceKilledMidSweepRecoversEveryPartition kills the coordinator
// inside a concurrent Advance(), which can orphan several partitions'
// sweeps at once where the old partition-by-partition loop orphaned one.
// Killed as partition 2 completes phase 4 with every other partition
// parked after phase 3, all four are orphaned with garbage collection
// pending. Killed as partition 2 completes phase 2 — inside its turn, so
// partitions whose turn came earlier are orphaned further along and
// those still waiting were never started — the mix is whatever the turn
// order made it. Either way the call must report the interruption, one
// Recover on the successor must leave every partition on a clean pair
// without losing an acknowledged update, and the next Advance() must
// move every partition by one.
func TestAdvanceKilledMidSweepRecoversEveryPartition(t *testing.T) {
	const nparts = 4
	for _, tc := range []struct {
		name      string
		killPhase int
		parkPhase int // the other partitions wait here for the kill; 0 = nowhere
		orphaned  [2]model.Version
	}{
		{"phase 4, all orphaned", 4, 3, [2]model.Version{1, 2}},
		{"phase 2, inside the turn", 2, 0, [2]model.Version{0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, keys := newPartitionTestCluster(t, Config{Nodes: 3, Partitions: nparts})

			killed, allParked := make(chan struct{}), make(chan struct{})
			var parked atomic.Int32
			if tc.parkPhase == 0 {
				close(allParked)
			}
			var fresh *Coordinator
			c.SetPartPhaseHook(func(part, phase int) {
				switch {
				case part == 2 && phase == tc.killPhase:
					select {
					case <-allParked:
					case <-time.After(10 * time.Second):
						t.Error("the other partitions' sweeps never ran beside partition 2's")
					}
					fresh = c.CrashCoordinator()
					close(killed)
				case part != 2 && phase == tc.parkPhase:
					if parked.Add(1) == nparts-1 {
						close(allParked)
					}
					select {
					case <-killed:
					case <-time.After(10 * time.Second):
						t.Error("partition 2's sweep never ran beside this one")
					}
				}
			})
			c.Start()
			defer c.Close()

			// One acknowledged update per partition that the interrupted
			// cycle must not lose.
			for p, k := range keys {
				h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
					Node: c.pmap.Primary(p), Updates: []model.KeyOp{addOp(k, 7)},
				}})
				if err != nil {
					t.Fatal(err)
				}
				waitHandle(t, h)
			}

			rep := c.Advance()
			if !rep.Interrupted || !errors.Is(rep.Err, ErrCrashed) {
				t.Fatalf("Advance survived the coordinator kill: %+v", rep)
			}
			for p := 0; p < nparts; p++ {
				if p != 2 && tc.parkPhase == 0 {
					continue
				}
				if vr, vu := c.Node(0).VersionsPart(p); [2]model.Version{vr, vu} != tc.orphaned {
					t.Fatalf("partition %d not orphaned mid-sweep: node 0 at (vr=%d, vu=%d), want %v", p, vr, vu, tc.orphaned)
				}
			}

			rec, err := fresh.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Resumed {
				t.Error("Recover did not notice the interrupted cycles")
			}
			recovered := c.PartitionPairs()
			for p, pair := range recovered {
				untouched := tc.parkPhase == 0 && p != 2 && pair == [2]model.Version{0, 1}
				if pair != [2]model.Version{1, 2} && !untouched {
					t.Errorf("partition %d recovered to (vr=%d, vu=%d), want (1, 2)", p, pair[0], pair[1])
				}
			}
			if prep := verify.CheckPartitions(c); !prep.OK() {
				t.Errorf("per-partition audit failed: %v", prep.Violations)
			}
			if rep := c.Advance(); rep.Interrupted {
				t.Fatalf("successor's full sweep failed: %v", rep.Err)
			}
			for p, pair := range c.PartitionPairs() {
				if want := [2]model.Version{recovered[p][0] + 1, recovered[p][1] + 1}; pair != want {
					t.Errorf("partition %d at (vr=%d, vu=%d) after the successor's sweep, want %v", p, pair[0], pair[1], want)
				}
			}
			for p, k := range keys {
				if bal, _ := readBal(t, c, c.pmap.Primary(p), k); bal != 7 {
					t.Errorf("partition %d: acknowledged update lost across recovery: %q has bal %d, want 7", p, k, bal)
				}
			}
		})
	}
}

// TestAdvanceOnSilentNodesTimesOutOnce: the sweeps of one Advance()
// switch their update versions one partition at a time (sweepPacer), and
// a cluster whose nodes never answer must still cost the call about one
// AckTimeout — the first step to time out fails the other partitions'
// steps — not one per partition.
func TestAdvanceOnSilentNodesTimesOutOnce(t *testing.T) {
	const nparts, ackTimeout = 4, 500 * time.Millisecond
	script := transport.NewScript(3) // never delivers
	c, err := NewCluster(Config{Nodes: 2, Partitions: nparts, Transport: script, AckTimeout: ackTimeout})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	start := time.Now()
	rep := c.Advance()
	if !rep.Interrupted || !errors.Is(rep.Err, ErrTimeout) {
		t.Fatalf("Advance on silent nodes: %+v, want ErrTimeout", rep)
	}
	if took := time.Since(start); took > 3*ackTimeout {
		t.Fatalf("Advance took %v: the partitions timed out one after another (AckTimeout %v, %d partitions)", took, ackTimeout, nparts)
	}
	for p, pair := range c.PartitionPairs() {
		if pair != [2]model.Version{0, 1} {
			t.Errorf("partition %d at (vr=%d, vu=%d) after the failed call, want (0, 1)", p, pair[0], pair[1])
		}
	}
}

// TestInterruptedSweepReportsItsPartition: a sweep that fails at its
// first paced step — here the version probe of a crashed coordinator —
// still names the partition it was asked to advance.
func TestInterruptedSweepReportsItsPartition(t *testing.T) {
	c, _ := newPartitionTestCluster(t, Config{Nodes: 2, Partitions: 2, ResendInterval: 5 * time.Millisecond, AckTimeout: 10 * time.Second})
	c.Start()
	defer c.Close()
	if rep := c.Advance(); rep.Interrupted {
		t.Fatal(rep.Err)
	}
	old := c.Coordinator()
	c.CrashCoordinator()
	if rep := old.RunAdvancementPart(1); rep.Part != 1 || !errors.Is(rep.Err, ErrCrashed) {
		t.Fatalf("crashed coordinator's sweep of partition 1 reported part %d, err %v; want part 1, ErrCrashed", rep.Part, rep.Err)
	}
}
