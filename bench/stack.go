package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
	"repro/internal/transport/tcpnet"
	"repro/internal/wal"
)

// batchWindow is the coalescing window of the batched hot path, the same
// value cmd/threev-node and cmd/threev-bench use for -batch.
const batchWindow = 100 * time.Microsecond

// walPolicy is the fsync policy of durable-tcp. A run may write only inside
// its checkout, which on the seed sandbox is a virtio disk: under `always`
// every acknowledgement waits for the device, and ten identical runs gave
// update p50 0.46-0.72 ms (two modes) and tps 2.8k-3.9k. Under `interval`
// the 5 ms flusher still syncs the log but nothing acknowledged waits for it,
// so the program's journal path is what the metrics see. Background
// checkpoints are off for the same reason: one stall per node every 2 s,
// growing with the store, put the tps spread of ten runs at 28% against 5%
// without them. The traced run times one explicit checkpoint instead.
const walPolicy = wal.FsyncInterval

// sessionConfig is the reliable-session timing of both session workloads,
// the values cmd/threev-node uses. Nothing is lost on either network, so a
// retransmission is always spurious: at the package default of 2 ms a
// repl-skew run, whose advancement takes 85 ms, resent one frame in eight.
func sessionConfig() reliable.Config {
	return reliable.Config{
		RetransmitInterval: 20 * time.Millisecond,
		MaxBackoff:         time.Second,
		FlushInterval:      batchWindow,
	}
}

// traceSampleN is obs.Options.TraceSampleN in the traced phase.
const traceSampleN = 100

// stack is one workload's wiring of the program: one in-process cluster, or
// three single-node clusters joined by loopback TCP.
type stack struct {
	w        *workloadDef
	clusters []*core.Cluster
	dbs      []*durable.DB // aligned with clusters; nil entries without a WAL
	dbOpts   []durable.Options
	// unowned are networks handed to a cluster as Config.Transport without
	// the session layer on top, which the cluster therefore does not close.
	unowned []transport.Network
}

// buildStack wires, preloads and starts the workload's clusters. rec, when
// non-nil, puts the tap under every cluster's network and turns on the
// program's own trace sampling. walRoot hosts the WAL directories.
func buildStack(w *workloadDef, rec *recorder, walRoot string) (*stack, error) {
	s := &stack{w: w}
	var err error
	switch w.Stack {
	case stackMem, stackRepl:
		err = s.buildInProcess(rec)
	case stackDurableTCP:
		err = s.buildDurableTCP(rec, walRoot)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func obsOptions(rec *recorder) obs.Options {
	if rec == nil {
		return obs.Options{}
	}
	return obs.Options{TraceSampleN: traceSampleN}
}

func zeroRecord() *model.Record {
	r := model.NewRecord()
	r.Fields["bal"] = 0
	r.Fields["count"] = 0
	return r
}

func (s *stack) buildInProcess(rec *recorder) error {
	w := s.w
	cfg := core.Config{
		Nodes:           w.Nodes,
		NetConfig:       transport.Config{BatchWindow: batchWindow},
		ExecChunk:       64,
		BatchedCounters: true,
		Obs:             obsOptions(rec),
	}
	if w.Stack == stackRepl {
		cfg.Partitions = w.Partitions
		cfg.Reliable = true
		cfg.ReliableConfig = sessionConfig()
		cfg.Replicate = true
		// With the default four workers two of them can draw replication
		// sequence numbers in one order and send in the other; the backup
		// drops the overtaken frame as a duplicate and the sum gate fails
		// (3 of 19830 frames in a 3500-transaction run). One worker per
		// node keeps the stream in order until the program is fixed.
		cfg.Workers = 1
		cfg.ResendInterval = 5 * time.Millisecond
		cfg.AckTimeout = 30 * time.Second
	}
	var mem *transport.Net
	if rec != nil {
		// The tap must sit under the session layer, so the benchmark builds
		// the network the cluster would have built and passes it wrapped.
		nc := cfg.NetConfig
		nc.Nodes = w.Nodes + 1 // database nodes plus the coordinator endpoint
		mem = transport.NewNet(nc)
		t := newTap(mem, rec)
		cfg.Transport = t
		if !cfg.Reliable {
			s.unowned = append(s.unowned, t)
		}
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		if mem != nil {
			mem.Close()
		}
		return err
	}
	if mem != nil {
		mem.SetObs(c.Obs())
	}
	s.clusters = []*core.Cluster{c}
	s.dbs = []*durable.DB{nil}
	for g := 0; g < w.Groups; g++ {
		for _, n := range groupNodes(w, g) {
			c.Preload(n, groupKey(g), zeroRecord())
		}
	}
	c.Start()
	return nil
}

func (s *stack) buildDurableTCP(rec *recorder, walRoot string) error {
	w := s.w
	nodes := w.Nodes
	listeners := make([]net.Listener, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return err
		}
		listeners[i] = ln
	}
	s.clusters = make([]*core.Cluster, nodes)
	s.dbs = make([]*durable.DB, nodes)
	s.dbOpts = make([]durable.Options, nodes)
	for i := 0; i < nodes; i++ {
		local := []model.NodeID{model.NodeID(i)}
		if i == 0 {
			local = append(local, model.NodeID(nodes)) // coordinator endpoint
		}
		peers := make(map[model.NodeID]string)
		for j, ln := range listeners {
			if j != i {
				peers[model.NodeID(j)] = ln.Addr().String()
			}
		}
		if i != 0 {
			peers[model.NodeID(nodes)] = listeners[0].Addr().String()
		}
		tn, err := tcpnet.New(tcpnet.Config{Local: local, Peers: peers, Listener: listeners[i], BatchFrames: true})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			return err
		}
		var network transport.Network = tn
		if rec != nil {
			network = newTap(tn, rec)
		}
		s.dbOpts[i] = durable.Options{
			Dir:   filepath.Join(walRoot, fmt.Sprintf("node%d", i)),
			Self:  model.NodeID(i),
			Nodes: nodes,
			Fsync: walPolicy,
			// No background checkpoint falls into a run: see walPolicy.
			CheckpointInterval: time.Hour,
		}
		db, restore, sess, err := durable.Open(s.dbOpts[i])
		if err != nil {
			network.Close()
			for _, l := range listeners[i+1:] {
				l.Close()
			}
			return err
		}
		s.dbs[i] = db
		cfg := core.Config{
			Nodes:            nodes,
			LocalNodes:       []int{i},
			LocalCoordinator: i == 0,
			Transport:        network,
			Reliable:         true,
			ReliableConfig:   sessionConfig(),
			ExecChunk:        64,
			BatchedCounters:  true,
			AckTimeout:       30 * time.Second,
			ResendInterval:   50 * time.Millisecond,
			Journal:          db,
			Restore:          restore,
			Obs:              obsOptions(rec),
		}
		cfg.ReliableConfig.Journal = db
		cfg.ReliableConfig.Gate = db.Gate()
		cfg.ReliableConfig.Restore = sess
		c, err := core.NewCluster(cfg)
		if err != nil {
			network.Close()
			for _, l := range listeners[i+1:] {
				l.Close()
			}
			return err
		}
		s.clusters[i] = c
		tn.SetObs(c.Obs())
		db.Bind(c.Node(i), c.Session())
		db.SetObs(c.Obs())
	}
	for g := 0; g < w.Groups; g++ {
		for _, n := range groupNodes(w, g) {
			s.clusters[n].Preload(n, groupKey(g), zeroRecord())
		}
	}
	for i, c := range s.clusters {
		// Anchor the log before any traffic so every later record replays
		// on top of a checkpoint that includes the preload.
		if err := s.dbs[i].Checkpoint(); err != nil {
			return err
		}
		c.Start()
		s.dbs[i].StartCheckpoints()
	}
	return nil
}

// cluster returns the cluster hosting a node.
func (s *stack) cluster(n model.NodeID) *core.Cluster {
	if len(s.clusters) == 1 {
		return s.clusters[0]
	}
	return s.clusters[n]
}

// submit launches a group of transactions, each at the cluster hosting its
// root, and returns one handle per transaction.
func (s *stack) submit(txns []*txn, specs []*model.TxnSpec) ([]*core.Handle, error) {
	if len(s.clusters) == 1 {
		for i, t := range txns {
			specs[i] = t.spec
		}
		return s.clusters[0].SubmitBatch(specs[:len(txns)])
	}
	handles := make([]*core.Handle, len(txns))
	for ci, c := range s.clusters {
		n := 0
		for _, t := range txns {
			if int(t.spec.Root.Node) == ci {
				specs[n] = t.spec
				n++
			}
		}
		if n == 0 {
			continue
		}
		hs, err := c.SubmitBatch(specs[:n])
		if err != nil {
			return nil, err
		}
		k := 0
		for i, t := range txns {
			if int(t.spec.Root.Node) == ci {
				handles[i] = hs[k]
				k++
			}
		}
	}
	return handles, nil
}

// advance runs one full advancement from the coordinator's cluster.
func (s *stack) advance() core.AdvanceReport { return s.clusters[0].Advance() }

// counts is the sum, over the stack's clusters, of every public counter the
// per-layer metrics read as deltas.
type counts struct {
	net      transport.Stats
	store    storage.Stats
	dual     int64
	implicit int64
	wal      wal.Stats
	obsCtr   map[string]int64
	stages   [obs.NumStages]hist
}

func (s *stack) counts() counts {
	c := counts{obsCtr: map[string]int64{}}
	c.net.ByType = map[string]int64{}
	for i, cl := range s.clusters {
		m := cl.Metrics()
		t := m.Transport
		c.net.Messages += t.Messages
		c.net.Flushes += t.Flushes
		c.net.Retransmits += t.Retransmits
		c.net.DupDropped += t.DupDropped
		c.net.BytesSent += t.BytesSent
		c.net.FramesSent += t.FramesSent
		c.net.Reconnects += t.Reconnects
		if t.MaxQueueDepth > c.net.MaxQueueDepth {
			c.net.MaxQueueDepth = t.MaxQueueDepth
		}
		for _, st := range m.Storage {
			c.store.Copies += st.Copies
			c.store.BytesCopied += st.BytesCopied
			c.store.GCDropped += st.GCDropped
		}
		for _, nm := range m.PerNode {
			c.dual += nm.DualWrites
			c.implicit += nm.ImplicitAdvances
		}
		for k, v := range m.Obs.Counters {
			c.obsCtr[k] += v
		}
		for st := range m.Obs.Stages {
			c.stages[st] = c.stages[st].plus(histOf(m.Obs.Stages[st]), 1)
		}
		if db := s.dbs[i]; db != nil {
			ws := db.Stats()
			c.wal.Records += ws.Records
			c.wal.TotalAppended += ws.TotalAppended
			c.wal.Fsyncs += ws.Fsyncs
		}
	}
	return c
}

// problems gathers every invariant violation and convergence error the
// clusters recorded.
func (s *stack) problems() []string {
	var out []string
	for _, c := range s.clusters {
		out = append(out, c.Violations()...)
		out = append(out, c.ConvergenceErrors()...)
	}
	return out
}

// quiesce waits until the session layers have nothing unacknowledged and
// have moved no message for a millisecond, five flush windows. Session.Close
// waits on a WaitGroup that a delivery arriving meanwhile still adds to, and
// the runtime panics when the two meet ("WaitGroup is reused before previous
// Wait has returned": one in about 300 closes of repl-skew, whose replicas
// exchange a heartbeat every 25 ms); closing in a gap between two messages
// keeps a run from dying of it.
func (s *stack) quiesce() {
	last := int64(-1)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var msgs int64
		inFlight := 0
		for _, c := range s.clusters {
			if c == nil || c.Session() == nil {
				continue
			}
			msgs += c.Session().Stats().Messages
			inFlight += c.Session().InFlight()
		}
		if inFlight == 0 && msgs == last {
			return
		}
		last = msgs
	}
}

// close stops every cluster, then its journal, then any network the
// cluster did not own. Safe on a partly built stack.
func (s *stack) close() {
	s.quiesce()
	for _, c := range s.clusters {
		if c != nil {
			c.Close()
		}
	}
	for i, db := range s.dbs {
		if db != nil {
			db.Close()
			s.dbs[i] = nil
		}
	}
	for _, n := range s.unowned {
		n.Close()
	}
	s.clusters, s.unowned = nil, nil
}
