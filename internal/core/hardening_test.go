package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// The paper assumes a reliable network, so the seed coordinator waited
// forever on lost acknowledgements. These tests cover the hardening:
// bounded waits surfacing ErrTimeout, re-broadcast repairing scripted
// losses, and Cluster.Close unblocking a wedged advancement.

func TestAdvanceTimesOutOnSilentNodes(t *testing.T) {
	// A scripted transport that never delivers anything is the limit
	// case of a lossy network: without AckTimeout the advancement would
	// block forever on Phase 1 acks.
	script := transport.NewScript(3)
	c, err := NewCluster(Config{Nodes: 2, Transport: script, AckTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	done := make(chan AdvanceReport, 1)
	go func() { done <- c.Advance() }()
	select {
	case rep := <-done:
		if !rep.Interrupted {
			t.Fatalf("advancement completed with no message delivery: %+v", rep)
		}
		if !errors.Is(rep.Err, ErrTimeout) {
			t.Fatalf("Err = %v, want ErrTimeout", rep.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Advance still blocked long after AckTimeout")
	}
	// The versions must be untouched by the failed cycle.
	if vr, vu := c.Coordinator().Versions(); vr != 0 || vu != 1 {
		t.Fatalf("versions after failed cycle: vr=%d vu=%d, want 0/1", vr, vu)
	}
}

func TestCloseUnblocksWaitingAdvance(t *testing.T) {
	// No AckTimeout: the wait would be unbounded (the paper's
	// behaviour). Close must still unwind it with ErrClosed.
	script := transport.NewScript(3)
	c, err := NewCluster(Config{Nodes: 2, Transport: script})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	done := make(chan AdvanceReport, 1)
	go func() { done <- c.Advance() }()
	// Let the advancement park its Phase 1 broadcast and block.
	deadline := time.Now().Add(5 * time.Second)
	for script.PendingCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("Phase 1 notices never sent")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case rep := <-done:
		if !rep.Interrupted || !errors.Is(rep.Err, ErrClosed) {
			t.Fatalf("report after Close: interrupted=%v err=%v, want ErrClosed", rep.Interrupted, rep.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the waiting advancement")
	}
}

func TestResendRepairsLostPhase1Notice(t *testing.T) {
	// Drop both Phase 1 notices outright; the coordinator's re-broadcast
	// must repair the loss and the cycle must complete.
	script := transport.NewScript(3)
	c, err := NewCluster(Config{
		Nodes: 2, Transport: script,
		PollInterval:   time.Millisecond,
		ResendInterval: 2 * time.Millisecond,
		AckTimeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	done := make(chan AdvanceReport, 1)
	go func() { done <- c.Advance() }()

	isStart := func(m transport.Message) bool { _, ok := m.Payload.(StartAdvancementMsg); return ok }
	deadline := time.Now().Add(5 * time.Second)
	for drops := 0; drops < 2; {
		if script.DropWhere(isStart) {
			drops++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("initial Phase 1 notices never appeared")
		}
		time.Sleep(time.Millisecond)
	}

	// From here on, deliver everything as it appears: the re-broadcast
	// supplies fresh copies of the dropped notices.
	for {
		select {
		case rep := <-done:
			if rep.Interrupted {
				t.Fatalf("advancement failed despite re-broadcast: %v", rep.Err)
			}
			if rep.NewVU != 2 || rep.NewVR != 1 {
				t.Fatalf("advanced to vu=%d vr=%d, want 2/1", rep.NewVU, rep.NewVR)
			}
			if c.Obs() != nil && c.Obs().Snapshot().Counters["coord_resends"] == 0 {
				t.Fatal("no re-broadcasts counted, yet the dropped notices were repaired")
			}
			return
		default:
			script.DeliverAll()
			if time.Now().After(deadline) {
				t.Fatal("advancement never completed")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestChaoticLossyClusterConverges(t *testing.T) {
	// End-to-end: a live lossy, duplicating network under the reliable
	// session layer. Every transaction must complete, advancement must
	// succeed, and the counters must balance afterwards.
	c, err := NewCluster(Config{
		Nodes:          3,
		Reliable:       true,
		ResendInterval: 5 * time.Millisecond,
		AckTimeout:     30 * time.Second,
		NetConfig: transport.Config{
			Jitter: 200 * time.Microsecond,
			Seed:   17,
			Faults: transport.Faults{Default: transport.LinkFaults{DropRate: 0.05, DupRate: 0.05}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for node, key := range map[model.NodeID]string{0: "A", 1: "B", 2: "C"} {
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		c.Preload(node, key, rec)
	}
	c.Start()
	defer c.Close()

	var handles []*Handle
	for i := 0; i < 40; i++ {
		// A two-node tree so subtransactions actually cross the lossy
		// links.
		h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    model.NodeID(i % 3),
			Updates: []model.KeyOp{{Key: []string{"A", "B", "C"}[i%3], Op: model.AddOp{Field: "bal", Delta: 1}}},
			Children: []*model.SubtxnSpec{{
				Node:    model.NodeID((i + 1) % 3),
				Updates: []model.KeyOp{{Key: []string{"A", "B", "C"}[(i+1)%3], Op: model.AddOp{Field: "bal", Delta: 1}}},
			}},
		}})
		if serr != nil {
			t.Fatal(serr)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatal("update lost on the lossy network despite the session layer")
		}
	}
	if rep := c.Advance(); rep.Interrupted {
		t.Fatalf("advancement failed: %v", rep.Err)
	}
	if rep := c.Advance(); rep.Interrupted {
		t.Fatalf("second advancement failed: %v", rep.Err)
	}
	if errs := c.ConvergenceErrors(); len(errs) != 0 {
		t.Fatalf("convergence errors: %v", errs)
	}
	st := c.Metrics().Transport
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("fault injection inactive (dropped=%d duplicated=%d); the test proved nothing", st.Dropped, st.Duplicated)
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions, yet messages were dropped")
	}
}
