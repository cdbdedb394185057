package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// newTestCluster builds and starts a 3-node cluster with items spread
// as in the paper's example: A, B at p(0); D, E at q(1); F at s(2).
func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for node, keys := range map[model.NodeID][]string{0: {"A", "B"}, 1: {"D", "E"}, 2: {"F"}} {
		for _, k := range keys {
			if int(node) < cfg.Nodes {
				rec := model.NewRecord()
				rec.Fields["bal"] = 0
				c.Preload(node, k, rec)
			}
		}
	}
	c.Start()
	t.Cleanup(c.Close)
	return c
}

func addOp(key string, delta int64) model.KeyOp {
	return model.KeyOp{Key: key, Op: model.AddOp{Field: "bal", Delta: delta}}
}

func waitHandle(t *testing.T, h *Handle) {
	t.Helper()
	if !h.WaitTimeout(10 * time.Second) {
		t.Fatalf("transaction %v did not complete", h.ID)
	}
}

// readBal submits a read-only transaction for key at node and returns
// the balance it observed and the version it read.
func readBal(t *testing.T, c *Cluster, node model.NodeID, key string) (int64, model.Version) {
	t.Helper()
	h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: node, Reads: []string{key}}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	reads := h.Reads()
	if len(reads) != 1 {
		t.Fatalf("read returned %d results", len(reads))
	}
	return reads[0].Record.Field("bal"), reads[0].VersionRead
}

func TestUpdateInvisibleUntilAdvancement(t *testing.T) {
	c := newTestCluster(t, Config{})
	// A multi-node commuting update: +30 on A at p, +70 on D at q.
	h, err := c.Submit(&model.TxnSpec{Label: "visit", Root: &model.SubtxnSpec{
		Node:    0,
		Updates: []model.KeyOp{addOp("A", 30)},
		Children: []*model.SubtxnSpec{
			{Node: 1, Updates: []model.KeyOp{addOp("D", 70)}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	if got := h.Status(); got != StatusCommitted {
		t.Fatalf("status = %v, want committed", got)
	}
	if v, ok := h.Version(); !ok || v != 1 {
		t.Fatalf("version = %d %v, want 1 true", v, ok)
	}

	// Reads use version 0: the update must be invisible.
	if bal, ver := readBal(t, c, 0, "A"); bal != 0 || ver != 0 {
		t.Errorf("pre-advancement read A = %d@v%d, want 0@v0", bal, ver)
	}

	// Advance; now reads use version 1 and see the update.
	rep := c.Advance()
	if rep.NewVR != 1 || rep.NewVU != 2 {
		t.Fatalf("advancement installed vr=%d vu=%d", rep.NewVR, rep.NewVU)
	}
	if bal, ver := readBal(t, c, 0, "A"); bal != 30 || ver != 1 {
		t.Errorf("post-advancement read A = %d@v%d, want 30@v1", bal, ver)
	}
	if bal, _ := readBal(t, c, 1, "D"); bal != 70 {
		t.Errorf("post-advancement read D = %d, want 70", bal)
	}
	// Untouched item E was renumbered by GC and still reads 0.
	if bal, ver := readBal(t, c, 1, "E"); bal != 0 || ver != 1 {
		t.Errorf("post-advancement read E = %d@v%d, want 0@v1", bal, ver)
	}
	if vio := c.Violations(); vio != nil {
		t.Errorf("violations: %v", vio)
	}
}

func TestVersionsAfterAdvancement(t *testing.T) {
	c := newTestCluster(t, Config{})
	c.Advance()
	for i := 0; i < c.NumNodes(); i++ {
		vr, vu := c.Node(i).Versions()
		if vr != 1 || vu != 2 {
			t.Errorf("node %d: vr=%d vu=%d, want 1,2", i, vr, vu)
		}
	}
	vr, vu := c.Coordinator().Versions()
	if vr != 1 || vu != 2 {
		t.Errorf("coordinator: vr=%d vu=%d", vr, vu)
	}
	if len(c.Coordinator().History()) != 1 {
		t.Error("history not recorded")
	}
}

func TestRepeatedAdvancementsBoundVersions(t *testing.T) {
	c := newTestCluster(t, Config{})
	for round := 0; round < 5; round++ {
		h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    0,
			Updates: []model.KeyOp{addOp("A", 1)},
			Children: []*model.SubtxnSpec{
				{Node: 1, Updates: []model.KeyOp{addOp("D", 1)}},
				{Node: 2, Updates: []model.KeyOp{addOp("F", 1)}},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		waitHandle(t, h)
		c.Advance()
	}
	if bal, _ := readBal(t, c, 0, "A"); bal != 5 {
		t.Errorf("A after 5 rounds = %d, want 5", bal)
	}
	if got := c.MaxLiveVersionsEver(); got > 3 {
		t.Errorf("max live versions ever = %d, paper bound is 3", got)
	}
	if vio := c.Violations(); vio != nil {
		t.Errorf("violations: %v", vio)
	}
}

func TestManyConcurrentCommutingUpdates(t *testing.T) {
	c := newTestCluster(t, Config{NetConfig: transport.Config{Jitter: 200 * time.Microsecond}})
	const txns = 200
	handles := make([]*Handle, 0, txns)
	for i := 0; i < txns; i++ {
		h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    model.NodeID(i % 3),
			Updates: nil,
			Children: []*model.SubtxnSpec{
				{Node: 0, Updates: []model.KeyOp{addOp("A", 1)}},
				{Node: 1, Updates: []model.KeyOp{addOp("D", 1)}},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		waitHandle(t, h)
	}
	c.Advance()
	if bal, _ := readBal(t, c, 0, "A"); bal != txns {
		t.Errorf("A = %d, want %d (lost or duplicated commuting updates)", bal, txns)
	}
	if bal, _ := readBal(t, c, 1, "D"); bal != txns {
		t.Errorf("D = %d, want %d", bal, txns)
	}
	if vio := c.Violations(); vio != nil {
		t.Errorf("violations: %v", vio)
	}
}

func TestUpdatesDuringAdvancementAreNotLost(t *testing.T) {
	// Keep submitting while an advancement runs; every increment must
	// land exactly once regardless of which version executed it (the
	// dual-write guarantee).
	c := newTestCluster(t, Config{NetConfig: transport.Config{Jitter: 300 * time.Microsecond}})
	const txns = 150
	handles := make([]*Handle, 0, txns)
	advDone := c.AdvanceAsync()
	for i := 0; i < txns; i++ {
		h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node: model.NodeID(i % 3),
			Children: []*model.SubtxnSpec{
				{Node: 0, Updates: []model.KeyOp{addOp("A", 1)}},
				{Node: 1, Updates: []model.KeyOp{addOp("D", 1)}},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		if i == txns/2 {
			// Mid-stream, let the advancement make progress.
			time.Sleep(time.Millisecond)
		}
	}
	for _, h := range handles {
		waitHandle(t, h)
	}
	<-advDone
	c.Advance() // second advancement publishes everything
	if bal, _ := readBal(t, c, 0, "A"); bal != txns {
		t.Errorf("A = %d, want %d", bal, txns)
	}
	if bal, _ := readBal(t, c, 1, "D"); bal != txns {
		t.Errorf("D = %d, want %d", bal, txns)
	}
	if got := c.MaxLiveVersionsEver(); got > 3 {
		t.Errorf("max live versions = %d > 3", got)
	}
	if vio := c.Violations(); vio != nil {
		t.Errorf("violations: %v", vio)
	}
}

func TestCompensationNetsToZero(t *testing.T) {
	c := newTestCluster(t, Config{})
	// Root aborts after spawning: the whole tree must be compensated.
	h, err := c.Submit(&model.TxnSpec{Label: "doomed", Root: &model.SubtxnSpec{
		Node:    0,
		Abort:   true,
		Updates: []model.KeyOp{addOp("A", 5)},
		Children: []*model.SubtxnSpec{
			{Node: 1, Updates: []model.KeyOp{addOp("D", 5)}},
			{Node: 2, Updates: []model.KeyOp{addOp("F", 5)}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	if got := h.Status(); got != StatusCompensated {
		t.Fatalf("status = %v, want compensated", got)
	}
	c.Advance() // phase 2 waits for compensators too (counter discipline)
	for _, probe := range []struct {
		node model.NodeID
		key  string
	}{{0, "A"}, {1, "D"}, {2, "F"}} {
		if bal, _ := readBal(t, c, probe.node, probe.key); bal != 0 {
			t.Errorf("%s = %d after compensation, want 0", probe.key, bal)
		}
	}
	m := c.Metrics()
	comp := int64(0)
	for _, nm := range m.PerNode {
		comp += nm.Compensations
	}
	if comp != 2 {
		t.Errorf("compensations sent = %d, want 2", comp)
	}
}

func TestDeepTreeAndRevisit(t *testing.T) {
	// p -> q -> p: the tree revisits its root node (allowed by the
	// model, exercised in Table 1 by subtransaction iqp).
	c := newTestCluster(t, Config{})
	h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
		Node:    0,
		Updates: []model.KeyOp{addOp("A", 1)},
		Children: []*model.SubtxnSpec{
			{Node: 1, Updates: []model.KeyOp{addOp("D", 2)}, Children: []*model.SubtxnSpec{
				{Node: 0, Updates: []model.KeyOp{addOp("B", 3)}},
			}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitHandle(t, h)
	nodes := h.Nodes()
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Errorf("involved nodes = %v, want [p q]", nodes)
	}
	c.Advance()
	if bal, _ := readBal(t, c, 0, "B"); bal != 3 {
		t.Errorf("B = %d, want 3", bal)
	}
	// Counter bookkeeping for the revisit: R[1][q][p] at q must be 1
	// and C[1][q][p] at p must be 1.
	if got := c.Node(1).Counters().R(1, 0); got != 1 {
		t.Errorf("R[1][q][p] = %d, want 1", got)
	}
	if got := c.Node(0).Counters().C(1, 1); got != 1 {
		t.Errorf("C[1][q][p] = %d, want 1", got)
	}
}

func TestSubmitErrors(t *testing.T) {
	c := newTestCluster(t, Config{})
	if _, err := c.Submit(&model.TxnSpec{Label: "nil"}); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := c.Submit(&model.TxnSpec{NonCommuting: true, Root: &model.SubtxnSpec{
		Node: 0, Updates: []model.KeyOp{{Key: "A", Op: model.SetOp{Field: "bal", Value: 1}}},
	}}); err == nil {
		t.Error("NC transaction accepted without NCMode")
	}
	if _, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: 99}}); err == nil {
		t.Error("out-of-range root node accepted")
	}
}

// TestNewClusterRejectsIncompatibleConfigs has one row per rejection
// rule in NewCluster: the executable form of the incompatibility
// comments on Config. Each row is otherwise valid, so the named rule is
// the one that fires.
func TestNewClusterRejectsIncompatibleConfigs(t *testing.T) {
	nw := transport.NewNet(transport.Config{Nodes: 4})
	defer nw.Close()
	restore := &NodeRestore{}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"no nodes", Config{}, "Nodes must be positive"},
		{"NCMode with the scripted transport", Config{Nodes: 3, NCMode: true, Transport: transport.NewScript(4)}, "scripted transport cannot be combined with NCMode"},
		{"NCMode with ExecChunk", Config{Nodes: 3, NCMode: true, ExecChunk: 2}, "ExecChunk cannot be combined with NCMode"},
		{"NCMode with Partitions", Config{Nodes: 3, NCMode: true, Partitions: 2}, "Partitions cannot be combined with NCMode"},
		{"NCMode with Replicate", Config{Nodes: 3, NCMode: true, Replicate: true, Reliable: true}, "Replicate cannot be combined with NCMode"},
		{"NCMode with LocalNodes", Config{Nodes: 3, NCMode: true, LocalNodes: []int{0}, Transport: nw}, "NCMode is unsupported in distributed mode"},
		{"Replicate without Reliable", Config{Nodes: 3, Replicate: true}, "Replicate requires the reliable session layer"},
		{"Restore without LocalNodes", Config{Nodes: 3, Restore: restore, Reliable: true}, "exactly one local node"},
		{"Restore with two local nodes", Config{Nodes: 3, Restore: restore, Reliable: true, LocalNodes: []int{0, 1}, Transport: nw}, "exactly one local node"},
		{"Restore without Reliable", Config{Nodes: 3, Restore: restore, LocalNodes: []int{0}, Transport: nw}, "Journal/Restore require the reliable session layer"},
		{"Restore with the scripted transport", Config{Nodes: 3, Restore: restore, Reliable: true, LocalNodes: []int{0}, Transport: transport.NewScript(4)}, "Journal cannot be combined with the scripted transport"},
		{"LocalNodes without Transport", Config{Nodes: 3, LocalNodes: []int{0}}, "requires an explicit Transport"},
		{"LocalNodes out of range", Config{Nodes: 3, LocalNodes: []int{7}, Transport: nw}, "id 7 out of range"},
		{"LocalNodes duplicated", Config{Nodes: 3, LocalNodes: []int{0, 0}, Transport: nw}, "id 0 listed twice"},
		{"LocalCoordinator without node 0 or Failover", Config{Nodes: 3, LocalNodes: []int{1}, LocalCoordinator: true, Transport: nw}, "LocalCoordinator requires LocalNodes to include 0"},
	} {
		c, err := NewCluster(tc.cfg)
		if err == nil {
			c.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %q, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCommittedUpdatesCountedBeforeWait is the regression loop for a
// commit counted only after its handle completed: a caller that
// returned from Wait could read CommittedUpdates one low.
func TestCommittedUpdatesCountedBeforeWait(t *testing.T) {
	c := newTestCluster(t, Config{})
	keys := []string{"A", "D", "F"}
	for i := 1; i <= 5000; i++ {
		h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node: model.NodeID(i % 3), Updates: []model.KeyOp{addOp(keys[i%3], 1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		h.Wait()
		if got := c.CommittedUpdates(); got != int64(i) {
			t.Fatalf("iteration %d: CommittedUpdates = %d right after Wait", i, got)
		}
	}
}

func TestReadSeesConsistentVersionAcrossNodes(t *testing.T) {
	// The hospital anomaly (Figure 1): a read must never observe a
	// partial multi-node update. With 3V, reads of version vr only see
	// transactions wholly contained in vr.
	c := newTestCluster(t, Config{NetConfig: transport.Config{Jitter: 500 * time.Microsecond}})
	var handles []*Handle
	for i := 0; i < 100; i++ {
		h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node: 0,
			Children: []*model.SubtxnSpec{
				{Node: 0, Updates: []model.KeyOp{addOp("A", 1)}},
				{Node: 1, Updates: []model.KeyOp{addOp("D", 1)}},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Interleave reads while updates fly; every read must see A == D
	// (each update adds 1 to both).
	for i := 0; i < 20; i++ {
		h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node: 2,
			Children: []*model.SubtxnSpec{
				{Node: 0, Reads: []string{"A"}},
				{Node: 1, Reads: []string{"D"}},
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		waitHandle(t, h)
		var a, d int64 = -1, -1
		for _, r := range h.Reads() {
			switch r.Key {
			case "A":
				a = r.Record.Field("bal")
			case "D":
				d = r.Record.Field("bal")
			}
		}
		if a != d {
			t.Fatalf("read observed partial update: A=%d D=%d", a, d)
		}
	}
	for _, h := range handles {
		waitHandle(t, h)
	}
	c.Advance()
	// Post-advancement reads still balanced, and now include everything.
	a, _ := readBal(t, c, 0, "A")
	d, _ := readBal(t, c, 1, "D")
	if a != 100 || d != 100 {
		t.Errorf("final A=%d D=%d, want 100/100", a, d)
	}
}

// TestAdvanceIgnoresBatchWindow pins that advancement traffic is urgent
// in whichever layer holds the window: with one-second windows, where
// each of an advancement's coordinator↔node rounds would otherwise wait
// out a window per direction, Advance completes in milliseconds. The
// session rows park retransmission, which would otherwise resend a
// staged frame past its window after 2 ms, and check that the session
// flushed the traffic, so its window really was on.
func TestAdvanceIgnoresBatchWindow(t *testing.T) {
	park := reliable.Config{RetransmitInterval: time.Minute}
	session := park
	session.FlushInterval = time.Second
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"network window", Config{NetConfig: transport.Config{BatchWindow: time.Second}}},
		{"session window", Config{Reliable: true, ReliableConfig: session}},
		{"session window from NetConfig, batched counters", Config{
			NetConfig:       transport.Config{BatchWindow: time.Second},
			Reliable:        true,
			ReliableConfig:  park,
			BatchedCounters: true,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.AckTimeout = 3 * time.Second
			c := newTestCluster(t, tc.cfg)
			for want := model.Version(1); want <= 2; want++ {
				start := time.Now()
				rep := c.Advance()
				el := time.Since(start)
				if rep.Err != nil || rep.NewVR != want {
					t.Fatalf("advance %d: err=%v vr=%d", want, rep.Err, rep.NewVR)
				}
				if el > 250*time.Millisecond {
					t.Fatalf("advance %d took %v: advancement traffic waited out a batch window", want, el)
				}
			}
			if tc.cfg.Reliable && c.Metrics().Transport.Flushes == 0 {
				t.Fatal("the session flushed nothing: its window was off")
			}
		})
	}
}

// TestLocalHopsIgnoreBatchWindow pins that self-addressed sends are not
// windowed: with a one-second network window and no journal, an update
// whose root and child both run on node 0 makes two loopback hops (the
// root's admission and the child) and completes in milliseconds instead
// of waiting out a window per hop.
func TestLocalHopsIgnoreBatchWindow(t *testing.T) {
	c := newTestCluster(t, Config{NetConfig: transport.Config{BatchWindow: time.Second}})
	start := time.Now()
	h, err := c.Submit(&model.TxnSpec{Label: "local", Root: &model.SubtxnSpec{
		Node:     0,
		Updates:  []model.KeyOp{addOp("A", 1)},
		Children: []*model.SubtxnSpec{{Node: 0, Updates: []model.KeyOp{addOp("B", 1)}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !h.WaitTimeout(5 * time.Second) {
		t.Fatal("transaction did not complete")
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("local update took %v: a self-addressed hop waited out the batch window", el)
	}
	if got := h.Status(); got != StatusCommitted {
		t.Fatalf("status = %v, want committed", got)
	}
}

// TestUrgentPayloads pins which protocol payloads skip the batch window:
// the twelve messages of the advancement rounds, and nothing that
// carries transactions, their commit protocol, the coordinator lease or
// spans.
func TestUrgentPayloads(t *testing.T) {
	urgent := []any{
		StartAdvancementMsg{}, AckAdvancementMsg{}, ReadVersionMsg{}, AckReadVersionMsg{},
		GCMsg{}, AckGCMsg{}, CounterReqMsg{}, CounterReplyMsg{}, CountersReqMsg{}, CountersMsg{},
		VersionProbeMsg{}, VersionReplyMsg{},
	}
	ordinary := []any{
		SubtxnMsg{}, SubtxnMsg{Replica: true}, NCVoteMsg{}, NCDecisionMsg{}, UnlockMsg{},
		CoordStateMsg{}, StaleTermMsg{}, SpanReportMsg{},
	}
	for _, p := range urgent {
		if !transport.IsUrgent(p) {
			t.Errorf("%T must be urgent", p)
		}
	}
	for _, p := range ordinary {
		if transport.IsUrgent(p) {
			t.Errorf("%T must keep its batch window", p)
		}
	}
}
