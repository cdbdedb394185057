package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

func TestHandleLifecycle(t *testing.T) {
	h := newHandle(model.MakeTxnID(0, 1))
	if h.Status() != StatusPending {
		t.Fatalf("new handle status = %v", h.Status())
	}
	if h.Latency() != 0 {
		t.Error("pending handle has nonzero latency")
	}
	if _, ok := h.Version(); ok {
		t.Error("version set before root ran")
	}
	h.addExpected(2)
	h.reportVersion(3)
	h.reportDone(1, []model.ReadResult{{Key: "a"}}, false, nil)
	if h.Status() != StatusPending {
		t.Fatal("handle completed early")
	}
	select {
	case <-h.Done():
		t.Fatal("Done closed early")
	default:
	}
	h.reportDone(0, nil, false, nil)
	select {
	case <-h.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed at completion")
	}
	if h.Status() != StatusCommitted {
		t.Errorf("status = %v, want committed", h.Status())
	}
	if v, ok := h.Version(); !ok || v != 3 {
		t.Errorf("version = %d/%v", v, ok)
	}
	if got := h.Nodes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Nodes = %v, want [0 1]", got)
	}
	if len(h.Reads()) != 1 {
		t.Errorf("Reads = %v", h.Reads())
	}
	if h.Latency() <= 0 {
		t.Error("completed handle has zero latency")
	}
}

func TestHandleAbortStatuses(t *testing.T) {
	h := newHandle(model.MakeTxnID(0, 2))
	h.addExpected(1)
	h.reportDone(0, nil, true, nil)
	if h.Status() != StatusCompensated {
		t.Errorf("status = %v, want compensated", h.Status())
	}
	h2 := newHandle(model.MakeTxnID(0, 3))
	h2.addExpected(1)
	h2.reportNCAbort()
	h2.reportDone(0, nil, true, nil)
	if h2.Status() != StatusAborted {
		t.Errorf("status = %v, want aborted", h2.Status())
	}
}

func TestHandleCountsCommitBeforeDone(t *testing.T) {
	// A committed update is counted exactly once, by the time Done is
	// closed; a compensated update and a read-only handle are not.
	var commits atomic.Int64
	h := newHandle(model.MakeTxnID(0, 4))
	h.isUpdate = true
	h.addExpected(1)
	h.reportDone(0, nil, false, &commits)
	<-h.Done()
	if got := commits.Load(); got != 1 {
		t.Fatalf("commits = %d when Done closed, want 1", got)
	}
	h.reportDone(0, nil, false, &commits) // a stray report after completion
	comp := newHandle(model.MakeTxnID(0, 5))
	comp.isUpdate = true
	comp.addExpected(1)
	comp.reportDone(0, nil, true, &commits)
	ro := newHandle(model.MakeTxnID(0, 6))
	ro.addExpected(1)
	ro.reportDone(0, nil, false, &commits)
	if got := commits.Load(); got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusPending:     "pending",
		StatusCommitted:   "committed",
		StatusCompensated: "compensated",
		StatusAborted:     "aborted",
		Status(99):        "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestNodeRejectsUnknownPayload(t *testing.T) {
	c := newTestCluster(t, Config{})
	type alien struct{}
	c.Network().Send(transport.Message{From: 0, To: 0, Payload: alien{}})
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Node(0).Metrics().Violations) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown payload not recorded as violation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoordinatorIgnoresStrayMessages(t *testing.T) {
	// A stray subtransaction-like payload sent to the coordinator must
	// not break subsequent advancement.
	c := newTestCluster(t, Config{})
	coordID := model.NodeID(c.NumNodes())
	c.Network().Send(transport.Message{From: 0, To: coordID, Payload: SubtxnMsg{}})
	rep := c.Advance()
	if rep.Interrupted || rep.NewVR != 1 {
		t.Errorf("advancement after stray message: %+v", rep)
	}
}

func TestConcurrentAdvancementsSerialize(t *testing.T) {
	// Two concurrent Advance calls must produce two distinct,
	// sequential cycles (the advMu "distributed mutex").
	c := newTestCluster(t, Config{})
	a := c.AdvanceAsync()
	b := c.AdvanceAsync()
	ra, rb := <-a, <-b
	got := map[model.Version]bool{ra.NewVR: true, rb.NewVR: true}
	if !got[1] || !got[2] {
		t.Errorf("cycles produced NewVRs %d and %d, want 1 and 2", ra.NewVR, rb.NewVR)
	}
	vr, vu := c.Coordinator().Versions()
	if vr != 2 || vu != 3 {
		t.Errorf("final versions vr=%d vu=%d, want 2/3", vr, vu)
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := newTestCluster(t, Config{})
	h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node:    0,
		Updates: []model.KeyOp{addOp("A", 1)},
		Children: []*model.SubtxnSpec{
			{Node: 1, Updates: []model.KeyOp{addOp("D", 1)}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	q, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: 0, Reads: []string{"A"}}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, q)
	m := c.Metrics()
	var roots, subtxns, queries int64
	for _, nm := range m.PerNode {
		roots += nm.RootsAssigned
		subtxns += nm.SubtxnsExecuted
		queries += nm.QueriesExecuted
	}
	if roots != 2 {
		t.Errorf("RootsAssigned total = %d, want 2", roots)
	}
	if subtxns != 2 { // update root + one child
		t.Errorf("SubtxnsExecuted = %d, want 2", subtxns)
	}
	if queries != 1 {
		t.Errorf("QueriesExecuted = %d, want 1", queries)
	}
	if m.Transport.Messages == 0 {
		t.Error("transport accounting empty")
	}
	if c.CommittedUpdates() != 1 {
		t.Errorf("CommittedUpdates = %d, want 1", c.CommittedUpdates())
	}
}
