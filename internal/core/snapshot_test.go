package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

func TestExportSnapshotQuiesced(t *testing.T) {
	c := newTestCluster(t, Config{})
	h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node:    0,
		Updates: []model.KeyOp{addOp("A", 4)},
		Children: []*model.SubtxnSpec{
			{Node: 1, Updates: []model.KeyOp{addOp("D", 6)}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	c.Advance()
	snap, err := c.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Nodes != 3 || snap.VR != 1 || snap.VU != 2 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if snap.Seq == 0 {
		t.Error("sequence not captured")
	}
	// Item A at node 0 must be present at version 1 with bal=4.
	found := false
	for _, item := range snap.Stores[0] {
		if item.Key == "A" {
			found = true
			if len(item.Versions) != 1 || item.Versions[0].Ver != 1 || item.Versions[0].Rec.Field("bal") != 4 {
				t.Errorf("A exported as %+v", item.Versions)
			}
		}
	}
	if !found {
		t.Error("A missing from export")
	}
}

func TestRestoreSnapshotIntoFreshCluster(t *testing.T) {
	src := newTestCluster(t, Config{})
	h, err := src.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node: 0, Updates: []model.KeyOp{addOp("A", 9)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	src.Advance()
	snap, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestCluster(t, Config{})
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if bal, ver := readBal(t, dst, 0, "A"); bal != 9 || ver != 1 {
		t.Errorf("restored A = %d@v%d, want 9@v1", bal, ver)
	}
	// The restored cluster advances from where the source left off.
	rep := dst.Advance()
	if rep.NewVR != 2 || rep.NewVU != 3 {
		t.Errorf("post-restore advancement = %+v", rep)
	}
	// Transaction ids continue past the source's sequence (no reuse).
	h2, err := dst.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node: 0, Updates: []model.KeyOp{addOp("A", 1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID.Seq() <= snap.Seq {
		t.Errorf("restored cluster reused sequence %d ≤ %d", h2.ID.Seq(), snap.Seq)
	}
	waitHandle(t, h2)
}

func TestExportSnapshotRefusals(t *testing.T) {
	// In-flight transaction (never delivered on a scripted net).
	script := transport.NewScript(3)
	c, err := NewCluster(Config{Nodes: 2, Transport: script})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()
	if _, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node: 0, Updates: []model.KeyOp{addOp("A", 1)},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExportSnapshot(); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("in-flight snapshot err = %v", err)
	}
	script.DeliverAll()

	// Version disagreement (mid-advancement).
	advDone := c.AdvanceAsync()
	deadline := time.Now().Add(5 * time.Second)
	for script.CountWhere(func(m transport.Message) bool {
		_, ok := m.Payload.(StartAdvancementMsg)
		return ok
	}) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("advancement notices never parked")
		}
		time.Sleep(time.Millisecond)
	}
	script.DeliverWhere(func(m transport.Message) bool {
		_, ok := m.Payload.(StartAdvancementMsg)
		return ok && m.To == 0
	})
	if _, err := c.ExportSnapshot(); err == nil {
		t.Error("split-version snapshot accepted")
	}
	// Finish the advancement so the cluster closes cleanly.
	for {
		script.DeliverAll()
		select {
		case <-advDone:
			return
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestRestoreSnapshotValidation(t *testing.T) {
	c := newTestCluster(t, Config{})
	if err := c.RestoreSnapshot(&ClusterSnapshot{Nodes: 7, VR: 0, VU: 1}); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if err := c.RestoreSnapshot(&ClusterSnapshot{Nodes: 3, VR: 0, VU: 2}); err == nil {
		t.Error("vu != vr+1 accepted")
	}
}
