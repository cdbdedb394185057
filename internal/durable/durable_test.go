package durable

// The crash-restart test runs a three-process cluster in one test
// binary: each "process" is a distributed-mode Cluster hosting one
// node, wired together by a hub transport that can abruptly detach a
// process (its messages blackhole, like a kill -9 severing sockets).
// Node 2 runs with full durability; the test kills it mid-workload,
// reopens its data directory, and proves the restarted node rejoins
// with exactly the state its peers hold it accountable for: all
// transactions apply exactly once, the counters quiesce, and version
// advancement completes.

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
	"repro/internal/wal"
	"repro/internal/wire"
)

// hub routes messages between hubNet "processes" by endpoint id.
type hub struct {
	mu    sync.Mutex
	ports map[model.NodeID]*hubNet
}

func newHub() *hub { return &hub{ports: make(map[model.NodeID]*hubNet)} }

// detach makes every endpoint of n unreachable and discards its queue:
// the in-flight traffic of a killed process.
func (h *hub) detach(n *hubNet) {
	h.mu.Lock()
	for id, p := range h.ports {
		if p == n {
			delete(h.ports, id)
		}
	}
	h.mu.Unlock()
	n.kill()
}

// hubNet is one process's view of the hub: a transport.Network whose
// sends route through the hub to whichever process currently owns the
// destination endpoint.
type hubNet struct {
	hub *hub

	mu       sync.Mutex
	handlers map[model.NodeID]transport.Handler
	q        chan transport.Message
	killed   bool
	stop     chan struct{}
	wg       sync.WaitGroup
	started  bool
}

func (h *hub) net() *hubNet {
	return &hubNet{
		hub:      h,
		handlers: make(map[model.NodeID]transport.Handler),
		q:        make(chan transport.Message, 4096),
		stop:     make(chan struct{}),
	}
}

func (n *hubNet) Register(id model.NodeID, handler transport.Handler) {
	n.mu.Lock()
	n.handlers[id] = handler
	n.mu.Unlock()
	n.hub.mu.Lock()
	n.hub.ports[id] = n
	n.hub.mu.Unlock()
}

func (n *hubNet) Send(m transport.Message) {
	n.hub.mu.Lock()
	dst := n.hub.ports[m.To]
	n.hub.mu.Unlock()
	if dst == nil {
		return // destination process is down: blackhole
	}
	select {
	case dst.q <- m:
	case <-dst.stop:
	}
}

func (n *hubNet) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case <-n.stop:
				return
			case m := <-n.q:
				n.mu.Lock()
				h := n.handlers[m.To]
				killed := n.killed
				n.mu.Unlock()
				if h != nil && !killed {
					h(m)
				}
			}
		}
	}()
}

func (n *hubNet) kill() {
	n.mu.Lock()
	n.killed = true
	n.mu.Unlock()
	n.Close()
}

func (n *hubNet) Close() {
	n.mu.Lock()
	select {
	case <-n.stop:
		n.mu.Unlock()
		return
	default:
	}
	close(n.stop)
	n.mu.Unlock()
	n.wg.Wait()
}

func (n *hubNet) Stats() transport.Stats { return transport.Stats{} }

const testNodes = 3

func accountKey(i int) string { return fmt.Sprintf("acct%d", i) }

// proc is one simulated process: a single-node cluster, optionally
// durable.
type proc struct {
	id      int
	net     *hubNet
	cluster *core.Cluster
	db      *DB
}

// startProc boots node id in its own "process" with admission chunk
// size chunk (core.Config.ExecChunk). A non-empty dataDir makes it
// durable: on a fresh directory the node preloads its account and takes
// the initial anchoring checkpoint; on a recovered directory it restores
// instead.
func startProc(t *testing.T, h *hub, id int, dataDir string, chunk int) *proc {
	t.Helper()
	p := &proc{id: id, net: h.net()}
	cfg := core.Config{
		Nodes:            testNodes,
		LocalNodes:       []int{id},
		LocalCoordinator: id == 0,
		Workers:          2,
		ExecChunk:        chunk,
		Transport:        p.net,
		Reliable:         true,
		ReliableConfig: reliable.Config{
			RetransmitInterval: 2 * time.Millisecond,
			MaxBackoff:         20 * time.Millisecond,
		},
		PollInterval:   200 * time.Microsecond,
		AckTimeout:     20 * time.Second,
		ResendInterval: 20 * time.Millisecond,
	}

	var restore *core.NodeRestore
	if dataDir != "" {
		db, rest, sess, err := Open(Options{
			Dir:                dataDir,
			Self:               model.NodeID(id),
			Nodes:              testNodes,
			Fsync:              wal.FsyncAlways,
			CheckpointInterval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("durable.Open: %v", err)
		}
		p.db = db
		restore = rest
		cfg.Journal = db
		cfg.Restore = rest
		cfg.ReliableConfig.Journal = db
		cfg.ReliableConfig.Gate = db.Gate()
		cfg.ReliableConfig.Restore = sess
	}

	cluster, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster(node %d): %v", id, err)
	}
	p.cluster = cluster
	if p.db != nil {
		p.db.Bind(cluster.Node(id), cluster.Session())
	}
	if restore == nil {
		cluster.Preload(model.NodeID(id), accountKey(id), model.NewRecord())
		if p.db != nil {
			// Anchor the log before any traffic: every later record
			// replays on top of a checkpoint that includes the preload.
			if err := p.db.Checkpoint(); err != nil {
				t.Fatalf("initial checkpoint: %v", err)
			}
		}
	}
	cluster.Start()
	return p
}

// submitBatch launches count all-node increment transactions from p
// (each adds 1 to every account) and returns the handles.
func submitBatch(t *testing.T, p *proc, count int) []*core.Handle {
	t.Helper()
	handles := make([]*core.Handle, 0, count)
	for i := 0; i < count; i++ {
		root := &model.SubtxnSpec{
			Node:    model.NodeID(p.id),
			Updates: []model.KeyOp{{Key: accountKey(p.id), Op: model.AddOp{Field: "bal", Delta: 1}}},
		}
		for j := 0; j < testNodes; j++ {
			if j != p.id {
				root.Children = append(root.Children, &model.SubtxnSpec{
					Node:    model.NodeID(j),
					Updates: []model.KeyOp{{Key: accountKey(j), Op: model.AddOp{Field: "bal", Delta: 1}}},
				})
			}
		}
		h, err := p.cluster.Submit(&model.TxnSpec{Label: fmt.Sprintf("t%d", i), Root: root})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		handles = append(handles, h)
	}
	return handles
}

func waitAll(t *testing.T, handles []*core.Handle) {
	t.Helper()
	for _, h := range handles {
		if !h.WaitTimeout(30 * time.Second) {
			t.Fatalf("transaction %v never completed", h.ID)
		}
	}
}

func balance(t *testing.T, p *proc) int64 {
	t.Helper()
	rec, _, ok := p.cluster.Node(p.id).Store().ReadMax(accountKey(p.id), model.Version(1)<<50)
	if !ok {
		t.Fatalf("node %d: account missing", p.id)
	}
	return rec.Field("bal")
}

// TestCrashRestartRecovers is the end-to-end durability property: a
// node killed mid-workload and restarted from its data directory loses
// nothing its peers could have observed an acknowledgement for, applies
// nothing twice, and the cluster afterwards completes version
// advancement with every account in exact agreement. It runs once with
// one-record journal chunks and once with chunks of up to 64 records
// sharing one durability barrier.
func TestCrashRestartRecovers(t *testing.T) {
	for _, chunk := range []int{1, 64} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) { crashRestartRecovers(t, chunk) })
	}
}

func crashRestartRecovers(t *testing.T, chunk int) {
	h := newHub()
	dir := t.TempDir()

	p0 := startProc(t, h, 0, "", chunk)
	p1 := startProc(t, h, 1, "", chunk)
	p2 := startProc(t, h, 2, dir, chunk)
	defer p0.cluster.Close()
	defer p1.cluster.Close()

	// Phase A: a settled batch plus one advancement cycle, so the kill
	// hits a node with real history (counter rows, version 2 traffic,
	// background checkpoints).
	waitAll(t, submitBatch(t, p0, 40))
	if rep := p0.cluster.Advance(); rep.Err != nil {
		t.Fatalf("advance before crash: %v", rep.Err)
	}

	// Phase B: kill node 2 while this batch is in flight. Roots run on
	// node 0, so the handles all complete; the children headed for node
	// 2 are in every possible state — acked and durable, delivered but
	// unacked, on the wire, not yet sent.
	batchB := submitBatch(t, p0, 40)
	time.Sleep(5 * time.Millisecond)
	h.detach(p2.net)   // sever the process: in-flight traffic drops
	p2.db.Close()      // the disk stops moving at the moment of death
	p2.cluster.Close() // reap the orphaned goroutines
	waitAll(t, batchB)

	// Phase C: restart node 2 from its directory and finish the
	// workload. Recovery must hand back a state the peers' sessions
	// agree with: retransmitted children dedup, journaled-but-unexecuted
	// commands re-run, and the coordinator resyncs the node's versions.
	p2 = startProc(t, h, 2, dir, chunk)
	defer p2.cluster.Close()
	if p2.db == nil {
		t.Fatal("restart did not recover a durable state")
	}
	waitAll(t, submitBatch(t, p0, 40))

	// Advancement completing proves the R/C counters balanced across
	// the crash: nothing acknowledged was lost, nothing applied twice —
	// otherwise quiescence would never be detected (or be detected
	// early, failing the balance check below).
	for i := 0; i < 2; i++ {
		if rep := p0.cluster.Advance(); rep.Err != nil {
			t.Fatalf("advance %d after restart: %v", i, rep.Err)
		}
	}

	const want = 120 // 3 batches x 40 txns, each +1 on every account
	deadline := time.Now().Add(30 * time.Second)
	for {
		b0, b1, b2 := balance(t, p0), balance(t, p1), balance(t, p2)
		if b0 == want && b1 == want && b2 == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("balances never converged: node0=%d node1=%d node2=%d want %d", b0, b1, b2, want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The restarted node's versions caught up with the cluster.
	vr0, vu0 := p0.cluster.Node(0).Versions()
	vr2, vu2 := p2.cluster.Node(2).Versions()
	if vr0 != vr2 || vu0 != vu2 {
		t.Fatalf("restarted node versions (vr=%d,vu=%d) != cluster (vr=%d,vu=%d)", vr2, vu2, vr0, vu0)
	}

	if errs := p2.cluster.ConvergenceErrors(); len(errs) > 0 {
		t.Fatalf("convergence errors on restarted node: %v", errs)
	}
}

// TestRestartIdempotent restarts a cleanly checkpointed node twice with
// no intervening traffic: recovery must be a fixed point.
func TestRestartIdempotent(t *testing.T) {
	h := newHub()
	dir, dir0 := t.TempDir(), t.TempDir()

	p0 := startProc(t, h, 0, dir0, 1)
	p1 := startProc(t, h, 1, "", 1)
	p2 := startProc(t, h, 2, dir, 1)
	defer func() { p0.cluster.Close(); p0.db.Close() }()
	defer p1.cluster.Close()

	waitAll(t, submitBatch(t, p0, 25))
	if rep := p0.cluster.Advance(); rep.Err != nil {
		t.Fatalf("advance: %v", rep.Err)
	}

	for i := 0; i < 2; i++ {
		if err := p2.db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		h.detach(p2.net)
		p2.db.Close()
		p2.cluster.Close()
		p2 = startProc(t, h, 2, dir, 1)
		if got := balance(t, p2); got != 25 {
			t.Fatalf("restart %d: balance %d, want 25", i, got)
		}
	}
	defer p2.cluster.Close()

	// Node 0 hosts the coordinator. Each restart must claim a term above
	// the one its data dir holds, or the other nodes would fence it.
	for i := 0; i < 2; i++ {
		_, term := p0.cluster.CoordinatorStatus()
		h.detach(p0.net)
		p0.cluster.Close()
		p0.db.Close()
		p0 = startProc(t, h, 0, dir0, 1)
		if _, now := p0.cluster.CoordinatorStatus(); now <= term {
			t.Fatalf("coordinator restart %d: term %d, not above the journaled %d", i, now, term)
		}
		if got := balance(t, p0); got != 25 {
			t.Fatalf("coordinator restart %d: balance %d, want 25", i, got)
		}
	}

	waitAll(t, submitBatch(t, p0, 5))
	if rep := p0.cluster.Advance(); rep.Err != nil {
		t.Fatalf("advance after the restarts: %v", rep.Err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for balance(t, p2) != 30 {
		if time.Now().After(deadline) {
			t.Fatalf("balance %d never reached 30", balance(t, p2))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// emptyCheckpoint returns a well-formed checkpoint blob in the current
// layout, stamped with generation gen: node 0 of 1, nparts partitions
// each at versions 1/2, and an empty store, counter tables, pending set
// and mirrors.
func emptyCheckpoint(gen byte, nparts int) []byte {
	b := []byte{gen, 0, 1, 1, 0, byte(nparts)} // self, nodes, nextEnq, coordTerm, partitions
	for p := 0; p < nparts; p++ {
		b = append(b, 1, 2) // vr, vu
	}
	b = append(b, 0) // store shards
	for p := 0; p < nparts; p++ {
		b = append(b, 0) // counter rows
	}
	return append(b, 0, 0, 0) // pending commands, send mirrors, receive watermarks
}

// TestDecodeCheckpointRefusesOtherGenerations pins the one-generation
// rule: only the blob version Checkpoint writes decodes. The body is
// well-formed, so it is the version byte alone that gets it refused.
func TestDecodeCheckpointRefusesOtherGenerations(t *testing.T) {
	db := &DB{opts: Options{Self: 0, Nodes: 1, Partitions: 1}}
	if _, err := db.decodeCheckpoint(emptyCheckpoint(ckptVersion, 1)); err != nil {
		t.Fatalf("current generation: %v", err)
	}
	for _, ver := range []byte{0, 3, 4, 5, 6, ckptVersion + 1} {
		_, err := db.decodeCheckpoint(emptyCheckpoint(ver, 1))
		if want := fmt.Sprintf("unsupported blob version %d", ver); err == nil || err.Error() != want {
			t.Errorf("blob version %d: err = %v, want %q", ver, err, want)
		}
	}
}

// TestReplayRefusesCorruptRecords is the corruption table for recovery:
// a checkpoint plus CRC-valid WAL records written straight to a data
// directory, then Open. Every record has exactly one layout, so a
// partition id outside [0, P), a byte left over, or a record cut short
// must fail recovery instead of being replayed into the wrong state.
func TestReplayRefusesCorruptRecords(t *testing.T) {
	const nparts = 2
	rec := func(tag byte, vals ...uint64) []byte {
		b := []byte{tag}
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name    string
		ckpt    []byte
		records [][]byte
		want    string // "" = recovery must succeed
	}{
		{"well-formed", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recVU, 3, 1), rec(recVR, 2, 1)}, ""},
		{"out-of-range partition", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recVU, 3, nparts)}, "partition 2 outside [0, 2)"},
		// Replica children journal as execution records: enq id, txn,
		// from, version, root, read-only, no ops, IncR, outbox or local
		// children — then the partition.
		{"out-of-range replicated partition", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recExec, 1, 7, 0, 3, 0, 0, 0, 0, 0, 0, nparts)}, "partition 2 outside [0, 2)"},
		// Node ids are zigzag varints: 2 encodes node 1, one past Nodes.
		{"out-of-range sender", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recExec, 1, 7, 2, 3, 0, 0, 0, 0, 0, 0, 1)}, "node 1 outside [0, 1)"},
		{"out-of-range IncR target", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recExec, 1, 7, 0, 3, 0, 0, 0, 1, 2, 0, 0, 1)}, "node 1 outside [0, 1)"},
		{"trailing byte", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{append(rec(recVU, 3, 1), 0)}, "1 trailing byte(s)"},
		{"truncated record", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recRecv, 0)}, "bad varint"},
		{"record without partition id", emptyCheckpoint(ckptVersion, nparts),
			[][]byte{rec(recVU, 3)}, "bad uvarint"},
		{"retired-generation checkpoint", emptyCheckpoint(5, nparts),
			nil, "unsupported blob version 5"},
		{"trailing byte after checkpoint", append(emptyCheckpoint(ckptVersion, nparts), 0),
			nil, "1 trailing byte(s)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			anchor, err := log.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if err := log.SaveCheckpoint(anchor, tc.ckpt); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.records {
				if _, err := log.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			db, restore, _, err := Open(Options{Dir: dir, Self: 0, Nodes: 1, Partitions: nparts, Fsync: wal.FsyncNever})
			if tc.want != "" {
				if err == nil {
					db.Close()
					t.Fatalf("recovery accepted it (partition vr=%v vu=%v), want error containing %q",
						restore.PartVR, restore.PartVU, tc.want)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer db.Close()
			if restore.PartVU[1] != 3 || restore.PartVR[1] != 2 || restore.PartVU[0] != 2 {
				t.Fatalf("replayed state vr=%v vu=%v, want partition 1 at 2/3 and partition 0 at 1/2",
					restore.PartVR, restore.PartVU)
			}
		})
	}
}

// enqRecord is a recEnq WAL record for a command from node from to node 0.
func enqRecord(t *testing.T, id uint64, from model.NodeID) []byte {
	t.Helper()
	frame, err := wire.AppendFrame(nil, transport.Message{From: from, To: 0, Payload: core.SubtxnMsg{
		Txn: model.TxnID(id), Version: 1, Spec: &model.SubtxnSpec{Node: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.AppendUvarint([]byte{recEnq}, id), frame...)
}

// recvRecord is a recRecv WAL record: link from -> 0 delivered up to next.
func recvRecord(from model.NodeID, next uint64) []byte {
	b := binary.AppendVarint([]byte{recRecv}, 0)
	b = binary.AppendVarint(b, int64(from))
	return binary.AppendUvarint(b, next)
}

// TestReplayDropsCommandsWithoutWatermark pins recovery's half of the
// receive-watermark rule: a command from a session link whose delivery
// run never journaled its watermark was never acknowledged, so its
// sender retransmits it and replay must not also re-enqueue it. Local
// commands have no watermark and always survive.
func TestReplayDropsCommandsWithoutWatermark(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := log.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := emptyCheckpoint(ckptVersion, 1)
	ckpt[2] = 2 // node 0 of 2
	if err := log.SaveCheckpoint(anchor, ckpt); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]byte{
		enqRecord(t, 1, 1), // watermark follows: kept
		recvRecord(1, 2),
		enqRecord(t, 2, 1), // no watermark after it: dropped
		enqRecord(t, 3, 0), // local: kept
	} {
		if _, err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	db, restore, _, err := Open(Options{Dir: dir, Self: 0, Nodes: 2, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ids []uint64
	for _, p := range restore.Pending {
		ids = append(ids, p.EnqID)
	}
	if fmt.Sprint(ids) != "[1 3]" {
		t.Fatalf("recovered pending commands %v, want [1 3]", ids)
	}
}

// TestExecFollowsReceiveWatermark pins the live half: Exec does not
// journal a command's execution before the receive watermark of the
// delivery run that carried it, so the log always reads Enq, watermark,
// execution — a crash can never keep the execution and lose the
// watermark.
func TestExecFollowsReceiveWatermark(t *testing.T) {
	dir := t.TempDir()
	db, _, _, err := Open(Options{Dir: dir, Self: 0, Nodes: 2, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	id := db.Enq(1, core.SubtxnMsg{Txn: 7, Version: 1, Spec: &model.SubtxnSpec{Node: 0}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.Exec([]core.ExecRecord{{EnqID: id, Txn: 7, From: 1, Version: 1}}, [][]transport.Message{nil})
	}()
	select {
	case <-done:
		t.Fatal("Exec journaled the execution before the command's receive watermark")
	case <-time.After(50 * time.Millisecond):
	}
	db.NoteRecv(0, 1, 2)
	<-done
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var tags []byte
	if err := wal.Replay(dir, 0, func(body []byte) error {
		tags = append(tags, body[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []byte{recEnq, recRecv, recExec}; string(tags) != string(want) {
		t.Fatalf("log record tags %v, want %v", tags, want)
	}
}
