package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

func TestRecoverOnCleanCluster(t *testing.T) {
	c := newTestCluster(t, Config{})
	c.Advance() // one clean cycle: vr=1, vu=2
	fresh := c.CrashCoordinator()
	rep, err := fresh.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed {
		t.Error("Recover resumed a cycle on a clean cluster")
	}
	if rep.VR != 1 || rep.VU != 2 {
		t.Errorf("recovered state vr=%d vu=%d, want 1/2", rep.VR, rep.VU)
	}
	// The fresh coordinator can run new cycles.
	adv := c.Advance()
	if adv.Interrupted || adv.NewVR != 2 {
		t.Errorf("post-recovery advancement: %+v", adv)
	}
}

func TestRecoverFinishesInterruptedCycle(t *testing.T) {
	// Use a scripted transport to freeze an advancement mid-Phase-1:
	// deliver the start-advancement notice to only one node, then crash
	// the coordinator. The successor must finish the cycle.
	script := transport.NewScript(4)
	c, err := NewCluster(Config{Nodes: 3, Transport: script, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := model.NewRecord()
	rec.Fields["bal"] = 0
	c.Preload(0, "A", rec)
	c.Start()
	defer c.Close()

	// An update that must survive the interrupted advancement.
	h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node: 0, Updates: []model.KeyOp{{Key: "A", Op: model.AddOp{Field: "bal", Delta: 9}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	script.DeliverAll()
	if !h.WaitTimeout(5 * time.Second) {
		t.Fatal("update did not complete")
	}

	advDone := c.AdvanceAsync()
	// Wait for the three Phase 1 notices to be parked, deliver ONE.
	deadline := time.Now().Add(5 * time.Second)
	for script.CountWhere(func(m transport.Message) bool {
		_, ok := m.Payload.(StartAdvancementMsg)
		return ok
	}) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("phase 1 notices never sent")
		}
		time.Sleep(time.Millisecond)
	}
	script.DeliverWhere(func(m transport.Message) bool {
		_, ok := m.Payload.(StartAdvancementMsg)
		return ok && m.To == 1
	})
	vr1, vu1 := c.Node(1).Versions()
	if vu1 != 2 || vr1 != 0 {
		t.Fatalf("node q not advanced: vr=%d vu=%d", vr1, vu1)
	}

	// Crash the coordinator mid-cycle.
	fresh := c.CrashCoordinator()
	rep := <-advDone
	if !rep.Interrupted {
		t.Fatal("in-flight advancement did not report interruption")
	}

	// Recover on the successor; pump the scripted network until done.
	type recResult struct {
		rep RecoveryReport
		err error
	}
	done := make(chan recResult, 1)
	go func() {
		r, err := fresh.Recover()
		done <- recResult{r, err}
	}()
	var rr recResult
	pumpDeadline := time.Now().Add(10 * time.Second)
	for {
		script.DeliverAll()
		select {
		case rr = <-done:
		default:
			if time.Now().After(pumpDeadline) {
				t.Fatal("recovery never completed")
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	if !rr.rep.Resumed {
		t.Error("Recover did not notice the interrupted cycle")
	}
	if rr.rep.VR != 1 || rr.rep.VU != 2 {
		t.Errorf("recovered to vr=%d vu=%d, want 1/2", rr.rep.VR, rr.rep.VU)
	}
	for i := 0; i < 3; i++ {
		vr, vu := c.Node(i).Versions()
		if vr != 1 || vu != 2 {
			t.Errorf("node %d at vr=%d vu=%d after recovery", i, vr, vu)
		}
	}

	// The pre-crash update is now visible to readers.
	q, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: 0, Reads: []string{"A"}}})
	if err != nil {
		t.Fatal(err)
	}
	script.DeliverAll()
	if !q.WaitTimeout(5 * time.Second) {
		t.Fatal("post-recovery read did not complete")
	}
	reads := q.Reads()
	if len(reads) != 1 || reads[0].Record.Field("bal") != 9 || reads[0].VersionRead != 1 {
		t.Errorf("post-recovery read = %+v", reads)
	}
	if vio := c.Violations(); vio != nil {
		t.Errorf("violations: %v", vio)
	}
}

func TestRecoverAfterPhase3Interruption(t *testing.T) {
	// Freeze between Phase 3 and Phase 4: read versions switched on one
	// node only, GC never ran. The successor must finish Phase 3
	// everywhere and garbage-collect.
	script := transport.NewScript(4)
	c, err := NewCluster(Config{Nodes: 3, Transport: script, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := model.NewRecord()
	c.Preload(0, "A", rec)
	c.Start()
	defer c.Close()

	advDone := c.AdvanceAsync()
	// Pump everything EXCEPT ReadVersion messages to node 2 and GC
	// messages, stopping once phase 3 has partially run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		script.DeliverWhere(func(m transport.Message) bool {
			switch m.Payload.(type) {
			case ReadVersionMsg:
				return m.To != 2
			case GCMsg:
				return false
			default:
				return true
			}
		})
		vr0, _ := c.Node(0).Versions()
		vr2, _ := c.Node(2).Versions()
		if vr0 == 1 && vr2 == 0 {
			break // the split state we want
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached the split phase-3 state")
		}
		time.Sleep(100 * time.Microsecond)
	}

	fresh := c.CrashCoordinator()
	rep := <-advDone
	if !rep.Interrupted {
		t.Fatal("advancement not interrupted")
	}

	done := make(chan error, 1)
	go func() {
		r, err := fresh.Recover()
		if err == nil && (!r.Resumed || r.VR != 1 || r.VU != 2) {
			t.Errorf("recovery report %+v", r)
		}
		done <- err
	}()
	pumpDeadline := time.Now().Add(10 * time.Second)
	for {
		script.DeliverAll()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		default:
			if time.Now().After(pumpDeadline) {
				t.Fatal("recovery never completed")
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}
	for i := 0; i < 3; i++ {
		vr, vu := c.Node(i).Versions()
		if vr != 1 || vu != 2 {
			t.Errorf("node %d at vr=%d vu=%d after recovery", i, vr, vu)
		}
	}
	// GC ran: item A (never updated) was renumbered to version 1.
	if vs := c.Node(0).Store().LiveVersions("A"); len(vs) != 1 || vs[0] != 1 {
		t.Errorf("A versions after recovery GC = %v, want [1]", vs)
	}
}

func TestCrashedCoordinatorReportsInterrupted(t *testing.T) {
	// Crashing with no cycle in flight must be harmless, and a new
	// advancement through the cluster goes to the fresh coordinator.
	c := newTestCluster(t, Config{})
	fresh := c.CrashCoordinator()
	if _, err := fresh.Recover(); err != nil {
		t.Fatal(err)
	}
	rep := c.Advance()
	if rep.Interrupted || rep.NewVR != 1 {
		t.Errorf("advancement after idle crash: %+v", rep)
	}
}

// TestCrashedCoordinatorStragglerIsFenced: CrashCoordinator's successor
// runs under a higher term, so once it has recovered, a phase message
// still carrying the crashed term is refused with StaleTermMsg and
// moves no version — and that reply does not depose the successor.
func TestCrashedCoordinatorStragglerIsFenced(t *testing.T) {
	script := transport.NewScript(4)
	c, err := NewCluster(Config{Nodes: 3, Transport: script, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()
	old := c.Coordinator()
	fresh := c.CrashCoordinator()
	if fresh.term <= old.term {
		t.Fatalf("successor term %d not above the crashed term %d", fresh.term, old.term)
	}
	done := make(chan error, 1)
	go func() {
		_, err := fresh.Recover()
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for recovering := true; recovering; {
		script.DeliverAll()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			recovering = false
		default:
			if time.Now().After(deadline) {
				t.Fatal("Recover never completed")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	coordEP := model.NodeID(3)
	c.Node(1).handleMessage(transport.Message{From: coordEP, To: 1, Payload: StartAdvancementMsg{NewVU: 2, Term: old.term}})
	if vr, vu := c.Node(1).Versions(); vr != 0 || vu != 1 {
		t.Fatalf("the crashed coordinator's notice moved node 1 to vr=%d vu=%d", vr, vu)
	}
	if script.CountWhere(func(m transport.Message) bool { _, ok := m.Payload.(AckAdvancementMsg); return ok }) != 0 {
		t.Fatal("the crashed coordinator's notice was acknowledged")
	}
	found := script.DeliverWhere(func(m transport.Message) bool {
		p, ok := m.Payload.(StaleTermMsg)
		return ok && m.To == coordEP && p.Term == fresh.term
	})
	if !found {
		t.Fatalf("no StaleTermMsg carrying the successor's term went back: %v", script.Pending())
	}
	if fresh.isDeposed() {
		t.Fatal("the straggler's StaleTermMsg deposed the successor")
	}
	if rej := c.ObsSnapshot().Counters["stale_term_rejects"]; rej != 1 {
		t.Fatalf("stale_term_rejects = %d, want 1", rej)
	}
}

func TestResumePoint(t *testing.T) {
	view := func(vr, vu model.Version, below bool) VersionReplyMsg {
		return VersionReplyMsg{VR: vr, VU: vu, BelowVR: below}
	}
	for _, tc := range []struct {
		name      string
		views     []VersionReplyMsg
		installed model.Version // the coordinator's installed update version
		from      int
		vu        model.Version
	}{
		{"fresh cluster", []VersionReplyMsg{view(0, 1, false), view(0, 1, false)}, 1, 0, 1},
		{"clean pair", []VersionReplyMsg{view(1, 2, false), view(1, 2, false), view(1, 2, false)}, 1, 0, 2},
		{"clean pair, GC pending on one node", []VersionReplyMsg{view(1, 2, false), view(1, 2, true), view(1, 2, false)}, 1, 4, 2},
		{"vu = vr+2 on one node", []VersionReplyMsg{view(1, 2, false), view(1, 3, false), view(1, 2, false)}, 1, 1, 3},
		{"vu = vr+2 everywhere", []VersionReplyMsg{view(1, 3, false), view(1, 3, false)}, 2, 1, 3},
		{"mixed pairs", []VersionReplyMsg{view(2, 3, true), view(1, 3, true), view(1, 2, false)}, 1, 1, 3},
		{"one node a full version behind", []VersionReplyMsg{view(2, 3, false), view(1, 2, false), view(2, 3, false)}, 3, 1, 3},
		{"every node behind the installed pair", []VersionReplyMsg{view(1, 2, false), view(1, 2, false)}, 3, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := make(map[model.NodeID]VersionReplyMsg, len(tc.views))
			for i, v := range tc.views {
				views[model.NodeID(i)] = v
			}
			if from, vu := resumePoint(views, tc.installed); from != tc.from || vu != tc.vu {
				t.Errorf("resumePoint = (from %d, vu %d), want (from %d, vu %d)", from, vu, tc.from, tc.vu)
			}
		})
	}
}

// TestLaggingNodeCaughtUpBeforeNextCycle holds one node a full version
// behind the installed pair, as a restart from a checkpoint older than
// the last completed cycle would, and requires the probe before the
// next sweep to finish that cycle on it — all four phases, through the
// same runner — before the new cycle's phase 1.
func TestLaggingNodeCaughtUpBeforeNextCycle(t *testing.T) {
	c := newTestCluster(t, Config{ResendInterval: 5 * time.Millisecond, AckTimeout: 10 * time.Second})
	if rep := c.Advance(); rep.Interrupted {
		t.Fatal(rep.Err)
	}
	lagging := c.Node(2)
	lagging.verMu.Lock()
	lagging.pv[0] = verPair{vr: 0, vu: 1}
	lagging.verMu.Unlock()

	type seen struct {
		phase  int
		vr, vu model.Version
	}
	var hooks []seen
	c.SetPhaseHook(func(phase int) {
		vr, vu := lagging.Versions()
		hooks = append(hooks, seen{phase, vr, vu})
	})
	if rep := c.Advance(); rep.Interrupted || rep.NewVR != 2 || rep.NewVU != 3 {
		t.Fatalf("sweep after the lag: %+v", rep)
	}
	want := []seen{{1, 0, 2}, {2, 0, 2}, {3, 1, 2}, {4, 1, 2}, {1, 1, 3}, {2, 1, 3}, {3, 2, 3}, {4, 2, 3}}
	if !slices.Equal(hooks, want) {
		t.Errorf("phases completed as (phase, lagging node's vr, vu) = %v, want %v: the catch-up cycle, then the new one", hooks, want)
	}
	if vio := c.Violations(); vio != nil {
		t.Errorf("violations: %v", vio)
	}
}

// TestProbeResendsCounted drops the first version probe to every node:
// Recover's re-sends repair the loss through the same wait loop as
// every phase notice and counter request, and are counted as such.
func TestProbeResendsCounted(t *testing.T) {
	script := transport.NewScript(4)
	c, err := NewCluster(Config{Nodes: 3, Transport: script, ResendInterval: 2 * time.Millisecond, AckTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()
	fresh := c.CrashCoordinator()
	done := make(chan error, 1)
	go func() {
		_, err := fresh.Recover()
		done <- err
	}()
	isProbe := func(m transport.Message) bool { _, ok := m.Payload.(VersionProbeMsg); return ok }
	deadline := time.Now().Add(5 * time.Second)
	for drops := 0; drops < 3; {
		if script.DropWhere(isProbe) {
			drops++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("the first probes never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if n := c.Obs().Snapshot().Counters["coord_resends"]; n < 3 {
				t.Fatalf("coord_resends = %d after three dropped probes were repaired", n)
			}
			return
		default:
			script.DeliverAll()
			if time.Now().After(deadline) {
				t.Fatal("Recover never completed")
			}
			time.Sleep(time.Millisecond)
		}
	}
}
