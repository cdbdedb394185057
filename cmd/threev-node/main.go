// Command threev-node runs one process of a real 3V cluster: one
// database node speaking the protocol over TCP (length-prefixed binary
// frames, reliable-delivery session layer on top), plus a coordinator
// slot. Exactly one process starts with the active coordinator role
// (-coordinator active, or id 0 under the default -coordinator auto);
// every other process runs a standby that watches the active
// coordinator's heartbeat lease and takes over — under a higher fencing
// term — if it goes silent. -lease-interval / -lease-timeout tune the
// failure detector.
//
// Usage:
//
//	threev-node -id 0 -nodes 3 -listen 127.0.0.1:7100 \
//	            -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 \
//	            -metrics 127.0.0.1:8100 \
//	            -data-dir /var/lib/threev/node0 -fsync always
//
// -data-dir enables crash durability: a write-ahead log plus periodic
// checkpoints in that directory (internal/durable). A process restarted
// with the same directory replays its way back to exactly the state its
// peers hold it accountable for and rejoins the cluster. -fsync picks
// the durability/latency trade-off (always | interval | never).
//
// Every process is given the same -peers map (its own entry is used by
// the others; extra entries are rejected). Each process additionally
// hosts its own coordinator endpoint (id = nodes + id) at the same
// address as its node, so the map needs no extra entries.
//
// -batch N turns on the batched hot path: the tcpnet writer coalesces
// outbound frames into batched envelopes, the reliable session layer
// piggybacks cumulative acks on them, node workers drain admission in
// chunks under one WAL barrier, coordinator sweeps use batched counter
// messages, and /workload submits its transactions in groups of N
// through Cluster.SubmitBatch. /state reports the observed
// mean_batch_size so a driver can assert coalescing actually happened.
//
// -replicate makes partition owner groups real: every subtransaction
// that applies updates in a partition sends them to the partition's
// other owners as counted replica children over the reliable session
// (journaled through -data-dir when set), so a completed /advance proves
// every owner holds the versions it closed. The groups have no leader:
// every process owns every partition, so /workload and /read run at the
// local node, and a dead process leaves the others serving. A lagging
// owner shows up in /metrics' threev_counter_lag like any unfinished
// subtransaction.
//
// -trace-sample enables causal tracing: 1 in N transactions carries a
// trace context across the wire and assembles a full span tree (submit →
// per-subtransaction hops → fsync → completion) on its root process,
// served at /traces.json (?slow=DUR filters). -trace-slow additionally
// logs one structured record per slow transaction with its stage
// breakdown. -log-level/-log-format select slog verbosity and encoding.
//
// -metrics serves the observability endpoints (/metrics Prometheus
// text, /metrics.json, /events.json, /traces.json) plus a small control
// surface:
//
//	/state               JSON: versions (legacy vr/vu plus a per-partition
//	                     array with version/term/lag and the placement map),
//	                     coordinator role + term, transport stats
//	/health              JSON: whether replication is on, WAL counters and
//	                     session link frontiers
//	/workload?txns=N     run N commuting update trees rooted here (+1 on
//	                     every process's account, children fan out; with
//	                     -partitions P > 1, one single-account update per
//	                     txn, run here with -replicate, else routed to its
//	                     partition's placement primary)
//	/read                read this process's account at the read version
//	                     (partitioned: the accounts this process serves)
//	/advance[?part=N]    run one advancement cycle — all partitions, or
//	                     just partition N (active coordinator only)
//	/killconns           sever every TCP connection (recovery testing)
//	/quit                graceful shutdown
//
// The line "control: http://ADDR" on stdout announces the bound
// metrics address (useful with -metrics 127.0.0.1:0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport/reliable"
	"repro/internal/transport/tcpnet"
	"repro/internal/wal"
)

// accountKey is the one preloaded item each process owns; the demo
// workload updates every process's account in one transaction tree.
func accountKey(id int) string { return fmt.Sprintf("acct%d", id) }

// parsePeers parses "0=host:port,1=host:port,..." into an id->addr map.
func parsePeers(s string, nodes int) (map[int]string, error) {
	out := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id=host:port", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil || n < 0 || n >= nodes {
			return nil, fmt.Errorf("peer %q: id must be in [0,%d)", part, nodes)
		}
		if _, dup := out[n]; dup {
			return nil, fmt.Errorf("peer id %d listed twice", n)
		}
		out[n] = strings.TrimSpace(addr)
	}
	return out, nil
}

type nodeServer struct {
	id      int
	nodes   int
	batch   int // group size for /workload submissions (0/1 = one at a time)
	cluster *core.Cluster
	tnet    *tcpnet.Net
	db      *durable.DB // nil without -data-dir
	quit    chan struct{}
}

// partitionState is one partition's entry in the /state response:
// core.PartitionState (part, vr, vu, max_lag) plus the highest
// fencing term this process has observed for that partition.
type partitionState struct {
	core.PartitionState
	Term uint64 `json:"term"`
}

// stateReport is the /state response. VR/VU are the legacy single-pair
// fields: partition 0's pair, which with -partitions 1 (the default) is
// the cluster's only version pair. Partitioned state lives in
// Partitions, one entry per partition.
type stateReport struct {
	ID          int    `json:"id"`
	Nodes       int    `json:"nodes"`
	Coordinator bool   `json:"coordinator"`
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	VR          int64  `json:"vr"`
	VU          int64  `json:"vu"`
	// NumPartitions and the placement map: which node group owns each
	// partition, and the map's version (bumped on future rebalances).
	NumPartitions    int              `json:"num_partitions"`
	PlacementVersion int              `json:"placement_version"`
	Placement        [][]model.NodeID `json:"placement,omitempty"`
	Partitions       []partitionState `json:"partitions,omitempty"`
	Committed        int64            `json:"committed_updates"`
	Violations       []string         `json:"violations"`
	Convergence      []string         `json:"convergence_errors"`
	Messages         int64            `json:"messages"`
	BytesSent        int64            `json:"bytes_sent"`
	BytesRecv        int64            `json:"bytes_received"`
	Reconnects       int64            `json:"reconnects"`
	Durable          bool             `json:"durable"`
	WALRecords       uint64           `json:"wal_records,omitempty"`
	WALFsyncs        int64            `json:"wal_fsyncs,omitempty"`
	// MeanBatchSize is the observed mean messages per batched wire
	// frame; present only when the batched hot path is on (-batch) and
	// traffic has flowed.
	MeanBatchSize float64 `json:"mean_batch_size,omitempty"`
}

func (s *nodeServer) handleState(w http.ResponseWriter, _ *http.Request) {
	vr, vu := s.cluster.Node(s.id).Versions()
	ts := s.tnet.Stats()
	active, term := s.cluster.CoordinatorStatus()
	role := "standby"
	if active {
		role = "active"
	}
	pm := s.cluster.PlacementMap()
	parts := make([]partitionState, 0, s.cluster.Partitions())
	for _, st := range s.cluster.PartitionStates() {
		parts = append(parts, partitionState{
			PartitionState: st,
			Term:           s.cluster.Node(s.id).TermPart(st.Part),
		})
	}
	rep := stateReport{
		ID:          s.id,
		Nodes:       s.nodes,
		Coordinator: active,
		Role:        role,
		Term:        term,
		VR:          int64(vr),
		VU:          int64(vu),

		NumPartitions:    s.cluster.Partitions(),
		PlacementVersion: pm.Version,
		Placement:        pm.Owners,
		Partitions:       parts,

		Committed:   s.cluster.CommittedUpdates(),
		Violations:  s.cluster.Violations(),
		Convergence: s.cluster.ConvergenceErrors(),
		Messages:    ts.Messages,
		BytesSent:   ts.BytesSent,
		BytesRecv:   ts.BytesReceived,
		Reconnects:  ts.Reconnects,
	}
	if s.db != nil {
		ws := s.db.Stats()
		rep.Durable = true
		rep.WALRecords = ws.Records
		rep.WALFsyncs = ws.Fsyncs
	}
	if s.batch > 0 {
		rep.MeanBatchSize = s.cluster.Metrics().Obs.Gauges[obs.GaugeNetBatchMeanSize]
	}
	writeJSON(w, rep)
}

// healthLink is one directed session link's frontier in the /health
// response (links not involving this process are omitted).
type healthLink struct {
	From         int    `json:"from"`
	To           int    `json:"to"`
	NextSeq      uint64 `json:"next_seq,omitempty"`
	Unacked      int    `json:"unacked,omitempty"`
	NextExpected uint64 `json:"next_expected,omitempty"`
}

// healthReport is the /health response: whether replication is on,
// WAL counters, and session link frontiers.
type healthReport struct {
	ID         int          `json:"id"`
	Replicate  bool         `json:"replicate"`
	Durable    bool         `json:"durable"`
	WALRecords uint64       `json:"wal_records,omitempty"`
	WALFsyncs  int64        `json:"wal_fsyncs,omitempty"`
	Sessions   []healthLink `json:"sessions,omitempty"`
}

func (s *nodeServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rep := healthReport{ID: s.id, Replicate: s.cluster.Replicating()}
	if s.db != nil {
		ws := s.db.Stats()
		rep.Durable = true
		rep.WALRecords = ws.Records
		rep.WALFsyncs = ws.Fsyncs
	}
	if sess := s.cluster.Session(); sess != nil {
		st := sess.ExportState()
		for _, ls := range st.Send {
			if int(ls.From) == s.id {
				rep.Sessions = append(rep.Sessions, healthLink{
					From: int(ls.From), To: int(ls.To), NextSeq: ls.NextSeq, Unacked: len(ls.Unacked)})
			}
		}
		for _, lr := range st.Recv {
			if int(lr.To) == s.id {
				rep.Sessions = append(rep.Sessions, healthLink{
					From: int(lr.From), To: int(lr.To), NextExpected: lr.NextExpected})
			}
		}
	}
	writeJSON(w, rep)
}

// handleWorkload submits N commuting update trees rooted at the local
// node: +1 on the local account plus one child per remote process
// adding +1 there. It waits for the root-only handles and reports.
func (s *nodeServer) handleWorkload(w http.ResponseWriter, r *http.Request) {
	txns := 100
	if q := r.URL.Query().Get("txns"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			http.Error(w, "txns must be a positive integer", http.StatusBadRequest)
			return
		}
		txns = n
	}
	specs := make([]*model.TxnSpec, txns)
	for i := range specs {
		var root *model.SubtxnSpec
		if s.cluster.Partitions() > 1 {
			// Partitioned: transactions may not cross partitions, and the
			// account keys hash to arbitrary ones — so each transaction
			// updates one account, round-robin across processes, addressed
			// to the node serving that key's partition (owner routing
			// rather than a broadcast tree). Submit requires the root to
			// be hosted locally, so when that is a remote node the update
			// rides a single child subtxn under a keyless local root — one
			// wire hop to the owner, nothing sent anywhere else.
			key := accountKey(i % s.nodes)
			op := model.KeyOp{Key: key, Op: model.AddOp{Field: "bal", Delta: 1}}
			root = &model.SubtxnSpec{Node: model.NodeID(s.id)}
			if owner := s.ownerFor(key); owner == model.NodeID(s.id) {
				root.Updates = []model.KeyOp{op}
			} else {
				root.Children = []*model.SubtxnSpec{{Node: owner, Updates: []model.KeyOp{op}}}
			}
		} else {
			root = &model.SubtxnSpec{
				Node:    model.NodeID(s.id),
				Updates: []model.KeyOp{{Key: accountKey(s.id), Op: model.AddOp{Field: "bal", Delta: 1}}},
			}
			for j := 0; j < s.nodes; j++ {
				if j != s.id {
					root.Children = append(root.Children, &model.SubtxnSpec{
						Node:    model.NodeID(j),
						Updates: []model.KeyOp{{Key: accountKey(j), Op: model.AddOp{Field: "bal", Delta: 1}}},
					})
				}
			}
		}
		specs[i] = &model.TxnSpec{Label: fmt.Sprintf("demo-%d", i), Root: root}
	}
	handles := make([]*core.Handle, 0, txns)
	group := s.batch
	if group < 1 {
		group = 1
	}
	for i := 0; i < txns; i += group {
		end := i + group
		if end > txns {
			end = txns
		}
		if group > 1 {
			hs, err := s.cluster.SubmitBatch(specs[i:end])
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			handles = append(handles, hs...)
		} else {
			h, err := s.cluster.Submit(specs[i])
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			handles = append(handles, h)
		}
		// Crash-harness hook: THREEV_CRASHPOINT=workload-submit:N kills
		// this process (exit 137) right after the Nth submission round.
		harness.MaybeCrash("workload-submit")
	}
	for _, h := range handles {
		if !h.WaitTimeout(time.Minute) {
			http.Error(w, fmt.Sprintf("transaction %v did not complete", h.ID), http.StatusGatewayTimeout)
			return
		}
	}
	writeJSON(w, map[string]int{"submitted": txns})
}

func (s *nodeServer) handleRead(w http.ResponseWriter, _ *http.Request) {
	// readLocal runs one locally-rooted read transaction for key and
	// returns its balance and the version the read was served at.
	readLocal := func(key string) (any, model.Version, error) {
		h, err := s.cluster.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:  model.NodeID(s.id),
			Reads: []string{key},
		}})
		if err != nil {
			return nil, 0, err
		}
		if !h.WaitTimeout(time.Minute) {
			return nil, 0, fmt.Errorf("read of %q did not complete", key)
		}
		reads := h.Reads()
		if len(reads) != 1 {
			return nil, 0, fmt.Errorf("read of %q returned %d results", key, len(reads))
		}
		return reads[0].Record.Field("bal"), reads[0].VersionRead, nil
	}
	if s.cluster.Partitions() > 1 {
		// Partitioned: each process reports the accounts it serves
		// (ownerFor) — every account with -replicate, else those whose
		// partition it is placement primary for, possibly none. Reads
		// stay one-key-per-transaction because two accounts may live in
		// different partitions and transactions cannot cross them.
		owned := map[string]any{}
		var ver model.Version
		for j := 0; j < s.nodes; j++ {
			key := accountKey(j)
			if s.ownerFor(key) != model.NodeID(s.id) {
				continue
			}
			bal, v, err := readLocal(key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			owned[key] = bal
			if v > ver {
				ver = v
			}
		}
		writeJSON(w, map[string]any{"owned": owned, "version": ver})
		return
	}
	bal, ver, err := readLocal(accountKey(s.id))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"key":     accountKey(s.id),
		"bal":     bal,
		"version": ver,
	})
}

// ownerFor returns the node that serves key in a partitioned cluster.
// With -replicate that is this process's own node: partition.NewMap puts
// every node in every owner group, and any owner serves. Without it the
// records live only at the partition's placement primary.
func (s *nodeServer) ownerFor(key string) model.NodeID {
	if s.cluster.Replicating() {
		return model.NodeID(s.id)
	}
	pm := s.cluster.PlacementMap()
	return pm.Primary(pm.Of(key))
}

func (s *nodeServer) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var rep core.AdvanceReport
	if q := r.URL.Query().Get("part"); q != "" {
		part, err := strconv.Atoi(q)
		if err != nil || part < 0 || part >= s.cluster.Partitions() {
			http.Error(w, fmt.Sprintf("part must be an integer in [0,%d)", s.cluster.Partitions()), http.StatusBadRequest)
			return
		}
		rep = s.cluster.AdvancePartition(part)
	} else {
		rep = s.cluster.Advance()
	}
	if rep.Err != nil {
		http.Error(w, rep.Err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{
		"part":     rep.Part,
		"new_vr":   rep.NewVR,
		"new_vu":   rep.NewVU,
		"total_ms": float64(rep.Total) / 1e6,
		"sweeps":   rep.SweepsPhase2 + rep.SweepsPhase4,
	})
}

func (s *nodeServer) handleKillConns(w http.ResponseWriter, _ *http.Request) {
	s.tnet.KillConnections()
	writeJSON(w, map[string]bool{"killed": true})
}

func (s *nodeServer) handleQuit(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]bool{"quitting": true})
	close(s.quit)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func main() {
	id := flag.Int("id", -1, "this process's node id (0..nodes-1)")
	nodes := flag.Int("nodes", 3, "total database nodes in the cluster")
	coordRole := flag.String("coordinator", "auto", "starting coordinator role: auto (active iff id 0) | active | standby")
	leaseInterval := flag.Duration("lease-interval", 50*time.Millisecond, "active coordinator's heartbeat period")
	leaseTimeout := flag.Duration("lease-timeout", 0, "standby takeover threshold on heartbeat silence (0 = 4x lease-interval)")
	listen := flag.String("listen", "", "protocol listen address, e.g. 127.0.0.1:7100")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port for every process (own entry allowed)")
	metricsAddr := flag.String("metrics", "", "serve metrics + control endpoints on this address (e.g. 127.0.0.1:8100)")
	autoAdvance := flag.Duration("auto-advance", 0, "run version advancement on this period (active coordinator only; 0 = manual via /advance)")
	ackTimeout := flag.Duration("ack-timeout", 30*time.Second, "coordinator wait bound on node acknowledgements")
	dataDir := flag.String("data-dir", "", "enable crash durability: write-ahead log + checkpoints in this directory")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always | interval | never")
	ckptInterval := flag.Duration("checkpoint-interval", 2*time.Second, "background checkpoint period with -data-dir")
	batch := flag.Int("batch", 0, "enable the batched hot path (batched wire frames, chunked admission, batched counter sweeps) and group /workload submissions N at a time (0 = off)")
	partitions := flag.Int("partitions", 1, "split the keyspace into P partitions, each with its own independently-advancing version pair (same value on every process)")
	replicate := flag.Bool("replicate", false, "enable per-partition replica groups: applied updates reach every owner of their partition as counted replica subtransactions, and any owner serves")
	traceSample := flag.Int("trace-sample", 64, "head-sample 1 in N transactions for causal tracing (1 = every txn, 0 = tracing off)")
	traceSlow := flag.Duration("trace-slow", 0, "also trace and log any transaction slower than this, sampled or not (0 = off)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log encoding: text | json")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := run(*id, *nodes, *coordRole, *leaseInterval, *leaseTimeout, *listen, *peersFlag, *metricsAddr, *autoAdvance, *ackTimeout, *dataDir, *fsyncFlag, *ckptInterval, *batch, *partitions, *replicate, *traceSample, *traceSlow, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-level/-log-format
// flags. Logs go to stderr; stdout keeps the documented machine-readable
// announcement lines ("control: http://ADDR").
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// slowTxnAttrs renders a completed slow transaction's root span as slog
// attributes: trace id, total, and the per-stage breakdown when the
// transaction was head-sampled (stage data exists only then).
func slowTxnAttrs(sp obs.Span) []any {
	attrs := []any{
		slog.String("trace", fmt.Sprintf("%016x", sp.TraceID)),
		slog.Duration("total", time.Duration(sp.Dur)),
		slog.String("txn", sp.Attr),
	}
	for _, st := range sp.Stages {
		attrs = append(attrs, slog.Duration(st.Name, time.Duration(st.Dur)))
	}
	return attrs
}

func run(id, nodes int, coordRole string, leaseInterval, leaseTimeout time.Duration, listen, peersFlag, metricsAddr string, autoAdvance, ackTimeout time.Duration, dataDir, fsyncFlag string, ckptInterval time.Duration, batch, partitions int, replicate bool, traceSample int, traceSlow time.Duration, logger *slog.Logger) error {
	if id < 0 || id >= nodes {
		return fmt.Errorf("-id must be in [0,%d)", nodes)
	}
	var startActive bool
	switch coordRole {
	case "auto":
		startActive = id == 0
	case "active":
		startActive = true
	case "standby":
		startActive = false
	default:
		return fmt.Errorf("-coordinator %q: want auto, active, or standby", coordRole)
	}
	if listen == "" {
		return fmt.Errorf("-listen is required")
	}
	peers, err := parsePeers(peersFlag, nodes)
	if err != nil {
		return err
	}
	if len(peers) != nodes && len(peers) != nodes-1 {
		return fmt.Errorf("-peers must name all %d processes (own entry optional), got %d", nodes, len(peers))
	}
	for j := 0; j < nodes; j++ {
		if j != id {
			if _, ok := peers[j]; !ok {
				return fmt.Errorf("-peers is missing process %d", j)
			}
		}
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// Each process hosts its node endpoint and its coordinator endpoint
	// (nodes + id): node 0's coordinator endpoint is the legacy id
	// `nodes`, the rest are the standbys' takeover endpoints.
	local := []model.NodeID{model.NodeID(id), model.NodeID(nodes + id)}
	tpeers := make(map[model.NodeID]string)
	for j, addr := range peers {
		if j != id {
			tpeers[model.NodeID(j)] = addr
			tpeers[model.NodeID(nodes+j)] = addr
		}
	}
	tnet, err := tcpnet.New(tcpnet.Config{Local: local, Peers: tpeers, Listener: ln, BatchFrames: batch > 0})
	if err != nil {
		return err
	}

	// Crash durability: open the data directory before the cluster so a
	// recovered store/counters/session state can be restored into it.
	var db *durable.DB
	var restore *core.NodeRestore
	var sessState *reliable.SessionState
	if dataDir != "" {
		policy, perr := wal.ParsePolicy(fsyncFlag)
		if perr != nil {
			return perr
		}
		db, restore, sessState, err = durable.Open(durable.Options{
			Dir:                dataDir,
			Self:               model.NodeID(id),
			Nodes:              nodes,
			Partitions:         partitions,
			Fsync:              policy,
			CheckpointInterval: ckptInterval,
		})
		if err != nil {
			return err
		}
		// Registered before cluster.Close's defer so the log outlives
		// the workers that journal to it.
		defer db.Close()
	}

	cfg := core.Config{
		Nodes:            nodes,
		Partitions:       partitions,
		Replicate:        replicate,
		LocalNodes:       []int{id},
		LocalCoordinator: startActive,
		Failover:         true,
		FailoverConfig: core.LeaseConfig{
			LeaseInterval: leaseInterval,
			LeaseTimeout:  leaseTimeout,
			OnRoleChange: func(holder model.NodeID, term uint64) {
				if holder == model.NodeID(id) {
					logger.Warn("coordinator takeover", "id", id, "term", term)
				} else {
					logger.Warn("coordinator demoted", "id", id, "term", term)
				}
			},
		},
		Transport: tnet,
		Reliable:  true,
		ReliableConfig: reliable.Config{
			RetransmitInterval: 20 * time.Millisecond,
			MaxBackoff:         time.Second,
		},
		AckTimeout:     ackTimeout,
		ResendInterval: 50 * time.Millisecond,
		Obs: obs.Options{
			TraceSampleN: traceSample,
			TraceSlow:    traceSlow,
		},
	}
	if batch > 0 {
		cfg.ExecChunk = 64
		cfg.BatchedCounters = true
		cfg.ReliableConfig.FlushInterval = 100 * time.Microsecond
	}
	if db != nil {
		cfg.Journal = db
		cfg.Restore = restore
		cfg.ReliableConfig.Journal = db
		cfg.ReliableConfig.Gate = db.Gate()
		cfg.ReliableConfig.Restore = sessState
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	// Crash-harness hook: THREEV_CRASHPOINT=advance-phaseN:K kills this
	// process (exit 137) the Kth time a sweep it drives completes
	// advancement phase N — the failover CI gate's seam for killing the
	// active coordinator at every protocol point. Partitioned clusters
	// additionally expose advance-pP-phaseN so a kill can target one
	// partition's sweep while the others keep advancing.
	cluster.SetPartPhaseHook(func(part, phase int) {
		harness.MaybeCrash(fmt.Sprintf("advance-phase%d", phase))
		if partitions > 1 {
			harness.MaybeCrash(fmt.Sprintf("advance-p%d-phase%d", part, phase))
		}
	})
	// Replication crash seams: THREEV_CRASHPOINT=repl-send:K kills the
	// process after the Kth replica fan-out it sends, repl-apply:K after
	// the Kth replica child it finishes — the replica CI gates'
	// deterministic kill points.
	if replicate {
		cluster.SetReplHooks(
			func(part int) {
				harness.MaybeCrash("repl-send")
				harness.MaybeCrash(fmt.Sprintf("repl-p%d-send", part))
			},
			func(part int) {
				harness.MaybeCrash("repl-apply")
				harness.MaybeCrash(fmt.Sprintf("repl-p%d-apply", part))
			})
	}
	// Route wire-codec latency histograms into the cluster's registry so
	// /metrics exposes threev_wire_encode/decode_seconds.
	tnet.SetObs(cluster.Obs())
	// One structured record per slow transaction: trace id plus the
	// stage breakdown (wire/queue/service/ack/fsync) when sampled.
	cluster.Obs().SetSlowTraceHook(func(sp obs.Span) {
		logger.Warn("slow transaction", slowTxnAttrs(sp)...)
	})
	if db != nil {
		db.Bind(cluster.Node(id), cluster.Session())
		db.SetObs(cluster.Obs())
	}
	if restore == nil {
		for j := 0; j < nodes; j++ {
			// Replicated: this node owns every partition (ownerFor), so it
			// holds every account and serves version-0 reads of it even
			// before the first replicated update materializes it.
			if j == id || replicate {
				rec := model.NewRecord()
				rec.Fields["bal"] = 0
				cluster.Preload(model.NodeID(id), accountKey(j), rec)
			}
		}
		if db != nil {
			// Anchor the log before any traffic so every later record
			// replays on top of a checkpoint that includes the preload.
			if cerr := db.Checkpoint(); cerr != nil {
				return cerr
			}
		}
	}
	cluster.Start()
	defer cluster.Close()
	if db != nil {
		db.StartCheckpoints()
	}

	role := "standby"
	if startActive {
		role = "active"
	}
	logger.Info("listening", "id", id, "nodes", nodes, "coordinator", role, "addr", ln.Addr().String(),
		"trace_sample", traceSample)
	if db != nil {
		mode := "fresh"
		if restore != nil {
			mode = "recovered"
		}
		logger.Info("durability", "dir", dataDir, "fsync", fsyncFlag, "state", mode)
	}
	peerList := make([]string, 0, len(tpeers))
	for j, addr := range tpeers {
		peerList = append(peerList, fmt.Sprintf("%d=%s", j, addr))
	}
	sort.Strings(peerList)
	logger.Info("peers", "map", strings.Join(peerList, " "))

	srv := &nodeServer{id: id, nodes: nodes, batch: batch, cluster: cluster, tnet: tnet, db: db, quit: make(chan struct{})}
	if metricsAddr != "" {
		mln, lerr := net.Listen("tcp", metricsAddr)
		if lerr != nil {
			return lerr
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/state", srv.handleState)
		mux.HandleFunc("/health", srv.handleHealth)
		mux.HandleFunc("/workload", srv.handleWorkload)
		mux.HandleFunc("/read", srv.handleRead)
		mux.HandleFunc("/advance", srv.handleAdvance)
		mux.HandleFunc("/killconns", srv.handleKillConns)
		mux.HandleFunc("/quit", srv.handleQuit)
		mux.Handle("/", obs.Handler(cluster))
		go func() {
			if serr := http.Serve(mln, mux); serr != nil {
				logger.Error("control server", "err", serr)
			}
		}()
		// Documented machine-readable announcement; scripts scrape it, so
		// it stays on stdout in this exact shape regardless of log format.
		fmt.Printf("control: http://%s\n", mln.Addr())
	}

	if autoAdvance > 0 && startActive {
		go func() {
			t := time.NewTicker(autoAdvance)
			defer t.Stop()
			for {
				select {
				case <-srv.quit:
					return
				case <-t.C:
					if rep := cluster.Advance(); rep.Err != nil {
						logger.Error("advancement", "err", rep.Err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		logger.Info("interrupted, shutting down")
	case <-srv.quit:
	}
	return nil
}
