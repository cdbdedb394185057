// Distributed-mode tests: three core.Clusters in one test process,
// wired together over real TCP loopback exactly as three node
// processes would be. External test package because tcpnet depends on
// the wire codec, which depends on core's message types.
package core_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport/reliable"
	"repro/internal/transport/tcpnet"
)

// distKeys assigns one preloaded item per node, as in the paper's
// example layout.
var distKeys = [3]string{"A", "D", "F"}

// newDistributedClusters builds and starts three single-node clusters
// over TCP: process i hosts node i, process 0 also hosts the
// advancement coordinator (endpoint 3). The tcpnet networks are
// returned too so tests can kill connections out from under the
// reliable layer.
func newDistributedClusters(t *testing.T) ([3]*core.Cluster, [3]*tcpnet.Net) {
	t.Helper()
	const nodes = 3
	var listeners [nodes]net.Listener
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
	}
	var clusters [nodes]*core.Cluster
	var nets [nodes]*tcpnet.Net
	for i := 0; i < nodes; i++ {
		local := []model.NodeID{model.NodeID(i)}
		if i == 0 {
			local = append(local, model.NodeID(nodes)) // coordinator endpoint
		}
		peers := make(map[model.NodeID]string)
		for j := 0; j < nodes; j++ {
			if j != i {
				peers[model.NodeID(j)] = listeners[j].Addr().String()
			}
		}
		if i != 0 {
			peers[model.NodeID(nodes)] = listeners[0].Addr().String()
		}
		nw, err := tcpnet.New(tcpnet.Config{
			Local:        local,
			Peers:        peers,
			Listener:     listeners[i],
			ReconnectMin: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCluster(core.Config{
			Nodes:            nodes,
			LocalNodes:       []int{i},
			LocalCoordinator: i == 0,
			Transport:        nw,
			Reliable:         true,
			ReliableConfig: reliable.Config{
				RetransmitInterval: 10 * time.Millisecond,
				MaxBackoff:         100 * time.Millisecond,
			},
			AckTimeout:     20 * time.Second,
			ResendInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := model.NewRecord()
		rec.Fields["bal"] = 0
		c.Preload(model.NodeID(i), distKeys[i], rec)
		clusters[i] = c
		nets[i] = nw
	}
	for _, c := range clusters {
		c.Start()
		t.Cleanup(c.Close)
	}
	return clusters, nets
}

// distWorkload submits per-process commuting update trees (+1 on the
// local key at the root, +1 on each remote key via children) and waits
// for every root-only handle.
func distWorkload(t *testing.T, clusters [3]*core.Cluster, txns int, eachTxn func(i, n int)) {
	t.Helper()
	var handles []*core.Handle
	for i, c := range clusters {
		for n := 0; n < txns; n++ {
			root := &model.SubtxnSpec{
				Node:    model.NodeID(i),
				Updates: []model.KeyOp{{Key: distKeys[i], Op: model.AddOp{Field: "bal", Delta: 1}}},
			}
			for j := range clusters {
				if j != i {
					root.Children = append(root.Children, &model.SubtxnSpec{
						Node:    model.NodeID(j),
						Updates: []model.KeyOp{{Key: distKeys[j], Op: model.AddOp{Field: "bal", Delta: 1}}},
					})
				}
			}
			h, err := c.Submit(&model.TxnSpec{Label: fmt.Sprintf("p%d-%d", i, n), Root: root})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
			if eachTxn != nil {
				eachTxn(i, n)
			}
		}
	}
	for _, h := range handles {
		if !h.WaitTimeout(20 * time.Second) {
			t.Fatalf("transaction %v did not complete", h.ID)
		}
	}
}

// distReadBal reads key through a read-only transaction rooted at the
// hosting process (the only place it can be submitted).
func distReadBal(t *testing.T, c *core.Cluster, node model.NodeID, key string) int64 {
	t.Helper()
	h, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: node, Reads: []string{key}}})
	if err != nil {
		t.Fatal(err)
	}
	if !h.WaitTimeout(20 * time.Second) {
		t.Fatalf("read at node %d did not complete", node)
	}
	reads := h.Reads()
	if len(reads) != 1 {
		t.Fatalf("read returned %d results", len(reads))
	}
	return reads[0].Record.Field("bal")
}

func TestDistributedClusterConvergesOverTCP(t *testing.T) {
	clusters, _ := newDistributedClusters(t)
	const txns = 8
	distWorkload(t, clusters, txns, nil)

	// Advancement runs from the coordinator process; its quiescence
	// polls are what wait out remote subtransactions still in flight.
	rep := clusters[0].Advance()
	if rep.Err != nil {
		t.Fatalf("advancement failed: %v", rep.Err)
	}
	if rep.NewVR != 1 || rep.NewVU != 2 {
		t.Fatalf("advancement installed vr=%d vu=%d, want 1/2", rep.NewVR, rep.NewVU)
	}

	// Every node received txns adds from each of the three processes.
	const want = 3 * txns
	for i, c := range clusters {
		if got := distReadBal(t, c, model.NodeID(i), distKeys[i]); got != want {
			t.Errorf("node %d: bal %d, want %d", i, got, want)
		}
	}
	for i, c := range clusters {
		if v := c.Violations(); len(v) > 0 {
			t.Errorf("process %d violations: %v", i, v)
		}
		if errs := c.ConvergenceErrors(); len(errs) > 0 {
			t.Errorf("process %d convergence: %v", i, errs)
		}
	}
}

func TestDistributedClusterSurvivesConnectionKills(t *testing.T) {
	clusters, nets := newDistributedClusters(t)
	const txns = 12
	distWorkload(t, clusters, txns, func(i, n int) {
		// Kill every live TCP connection mid-workload; the reliable
		// session layer must heal the gap by retransmission. Wait for
		// cross-process traffic first so the kill hits live connections.
		if n == txns/2 {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) && nets[i].Stats().FramesSent == 0 {
				time.Sleep(time.Millisecond)
			}
			for _, nw := range nets {
				nw.KillConnections()
			}
		}
	})
	rep := clusters[0].Advance()
	if rep.Err != nil {
		t.Fatalf("advancement failed after connection kills: %v", rep.Err)
	}
	const want = 3 * txns
	for i, c := range clusters {
		if got := distReadBal(t, c, model.NodeID(i), distKeys[i]); got != want {
			t.Errorf("node %d: bal %d, want %d", i, got, want)
		}
	}
	reconnects := int64(0)
	for _, nw := range nets {
		reconnects += nw.Stats().Reconnects
	}
	if reconnects == 0 {
		t.Error("expected reconnects after KillConnections")
	}
}

func TestDistributedModeValidation(t *testing.T) {
	nw, err := tcpnet.New(tcpnet.Config{
		Local: []model.NodeID{0, 3},
		Listener: func() net.Listener {
			l, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Fatal(lerr)
			}
			return l
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	c, err := core.NewCluster(core.Config{Nodes: 3, LocalNodes: []int{0}, Transport: nw})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: only validation-level behaviour is exercised.
	if _, err := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: 1, Reads: []string{"D"}}}); err == nil {
		t.Error("submit with remote root accepted")
	}
	if rep := c.Advance(); !errors.Is(rep.Err, core.ErrNoCoordinator) {
		t.Errorf("Advance without coordinator: err %v, want ErrNoCoordinator", rep.Err)
	}
	if c.Coordinator() != nil {
		t.Error("Coordinator() non-nil in a coordinator-less process")
	}
	if c.Node(1) != nil {
		t.Error("Node(1) non-nil for a remote node")
	}
}
