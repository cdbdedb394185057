// Package durable is the crash-durability layer for a single 3V node
// process: a write-ahead log of protocol effects, periodic checkpoints
// of the full node state, and startup recovery that rebuilds a crashed
// node so it rejoins the cluster with exactly the state its peers
// already hold it accountable for.
//
// It sits between two seams that were designed for it:
//
//   - core.Journal — the node describes every arrived command (Enq),
//     every executed subtransaction's complete effect set (Exec), and
//     every version switch (VersionUpdate/VersionRead/GC);
//   - reliable.Journal — the session layer describes every sequenced
//     frame before it is transmitted (NoteSend), every in-order
//     delivery watermark before it is acknowledged (NoteRecv), and
//     every peer acknowledgement (NoteAck).
//
// The invariant is "nothing acknowledged is ever lost": any effect a
// peer (or client) could have observed an acknowledgement for is
// durable before that acknowledgement leaves the process. The converse
// is deliberately weak — effects that were never acknowledged may be
// lost, and the reliable session's retransmission plus receiver dedup
// absorb the difference.
//
// # Consistency of log, mirrors, and checkpoints
//
// Every mutation pairs a WAL append with an update of the DB's
// in-memory mirror state (pending commands, per-link send frames and
// receive watermarks) atomically under one mutex. A checkpoint takes
// the same mutex inside a full freeze (dispatch gate + worker barrier),
// rotates the log to a fresh anchor segment, and snapshots node state
// and mirrors together. Every effect is therefore either inside the
// checkpoint blob or in a record at or after the anchor — never both
// lost, never applied twice out of order.
//
// Replaying effect records in WAL order is correct even though the
// order can differ from the original latch order: concurrent
// subtransactions only ever race commuting ops, and the generalized
// dual write applies each op to every version >= v, so both
// interleavings produce identical version chains (the same stability
// argument as the paper's Section 4 counters).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Options parameterizes a node's durability layer.
type Options struct {
	// Dir is the node's data directory (WAL segments + checkpoints).
	Dir string
	// Self is the node id this journal serves; Nodes the cluster size.
	Self  model.NodeID
	Nodes int
	// Partitions is the cluster's partition count (core.Config.Partitions);
	// 0 means 1. Every version and execution record names its partition, checkpoints carry one version pair and one counter
	// section per partition, and recovery refuses any partition id
	// outside [0, Partitions).
	Partitions int
	// Fsync passes through to wal.Options; the log's own flush interval
	// and segment size defaults apply.
	Fsync wal.Policy
	// CheckpointInterval spaces background checkpoints once
	// StartCheckpoints is called; 0 means 2s.
	CheckpointInterval time.Duration
	// Obs, when non-nil, receives WAL latency and size observations.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 2 * time.Second
	}
	if o.Partitions < 1 {
		o.Partitions = 1
	}
	return o
}

// link identifies one directed session link.
type link struct{ from, to model.NodeID }

// sendMirror is the durability layer's own copy of one send link's
// state. It deliberately does not reuse reliable.Session's tracking:
// the coordinator endpoint co-located with node 0 sends outside the
// dispatch gate, so the session's live state cannot be snapshotted
// race-free — but this mirror can, because every mutation happens
// under the DB mutex together with its WAL append.
type sendMirror struct {
	nextSeq uint64            // highest sequence number journaled
	ackedTo uint64            // highest cumulative ack journaled
	unacked map[uint64][]byte // seq -> full frame bytes (prefix included)
}

// pendingCmd is a journaled-but-unexecuted subtransaction command.
type pendingCmd struct {
	from model.NodeID
	msg  core.SubtxnMsg
	// ord is the command's position among the commands journaled from
	// its session link (from -> self); 0 when it did not arrive over one.
	ord uint64
}

// enqOrd counts one command journaled from from and returns its ord.
func enqOrd(enqs map[link]uint64, from, self model.NodeID) uint64 {
	if from == self {
		return 0 // local roots and children never cross a session link
	}
	k := link{from: from, to: self}
	enqs[k]++
	return enqs[k]
}

// unnoted reports whether the delivery run that carried p has not yet
// journaled its receive watermark: noted[l] is the link's command count
// as of its last NoteRecv record.
func (p pendingCmd) unnoted(noted map[link]uint64, self model.NodeID) bool {
	return p.ord > noted[link{from: p.from, to: self}]
}

// DB is one node's durability state. It implements both core.Journal
// and reliable.Journal; wire it into core.Config.Journal,
// reliable.Config.Journal and reliable.Config.Gate, then Bind the
// started node and session for checkpointing.
type DB struct {
	opts Options
	log  *wal.Log

	// gate is installed as the reliable session's dispatch gate:
	// checkpoints take it exclusively so no inbound frame can advance a
	// watermark mid-snapshot.
	gate sync.RWMutex

	// mu guards everything below plus the pairing of WAL appends with
	// mirror updates (see the package comment).
	mu        sync.Mutex
	pending   map[uint64]pendingCmd
	nextEnq   uint64
	coordTerm uint64 // highest coordinator term fenced (monotonic)
	send      map[link]*sendMirror
	recv      map[link]uint64 // (to, from) -> nextExpected
	buf       []byte          // scratch encode buffer
	// enqs and noted order each command against its delivery run's
	// receive watermark (see pendingCmd.unnoted); recvd is signalled
	// whenever NoteRecv advances noted.
	enqs, noted map[link]uint64
	recvd       *sync.Cond

	node    *core.Node
	session *reliable.Session

	ckptMu sync.Mutex // serializes Checkpoint callers
	stop   chan struct{}
	wg     sync.WaitGroup
}

// The DB is both durability seams at once.
var (
	_ core.Journal     = (*DB)(nil)
	_ reliable.Journal = (*DB)(nil)
)

// must is the journal's error policy: a durability failure mid-flight
// leaves no safe way to keep acknowledging work, so it panics (crash
// and recover from the log written so far). ErrClosed is tolerated —
// it only occurs during shutdown, after the cluster has stopped
// acknowledging.
func (db *DB) must(err error) {
	if err != nil && !errors.Is(err, wal.ErrClosed) {
		panic(fmt.Sprintf("durable: write-ahead log failure: %v", err))
	}
}

// Bind attaches the started node and session so checkpoints can freeze
// and snapshot them. Call after core.NewCluster, before any traffic.
func (db *DB) Bind(node *core.Node, session *reliable.Session) {
	db.node = node
	db.session = session
}

// Gate returns the dispatch gate to install as reliable.Config.Gate.
func (db *DB) Gate() interface {
	RLock()
	RUnlock()
} {
	return &db.gate
}

// ---------------------------------------------------------------------
// core.Journal
// ---------------------------------------------------------------------

// Enq journals an arrived subtransaction command and returns its id.
// No explicit barrier: commands arriving over the session are covered
// by NoteRecv's barrier before the frame is acknowledged, and locally
// submitted roots are pre-acknowledgement by definition.
func (db *DB) Enq(from model.NodeID, msg core.SubtxnMsg) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	id := db.nextEnq
	db.nextEnq++
	frame, err := wire.AppendFrame(nil, transport.Message{From: from, To: db.opts.Self, Payload: msg})
	db.must(err)
	db.buf = append(db.buf[:0], recEnq)
	db.buf = binary.AppendUvarint(db.buf, id)
	db.buf = append(db.buf, frame...)
	_, err = db.log.Append(db.buf)
	db.must(err)
	db.pending[id] = pendingCmd{from: from, msg: msg, ord: enqOrd(db.enqs, from, db.opts.Self)}
	return id
}

// Exec journals a chunk of executions — each one's complete effect set
// together with the exact child frames it spawns — makes the whole
// chunk durable under one log barrier, and only then releases the
// frames to the wire. Child frames get their sequence numbers from
// Session.Prepare, so recovery re-sends byte-identical frames and
// receivers dedup by seq; per-link frame order follows Prepare order.
// Returns, per record, one freshly assigned pending id per rec.Local
// entry.
func (db *DB) Exec(recs []core.ExecRecord, outboxes [][]transport.Message) [][]uint64 {
	// Sequence numbers are allocated outside db.mu (per-link mutexes).
	// Two racing Execs on one link can journal in the opposite order of
	// their seq allocation; a crash in the window leaves a sequence
	// hole, which recovery plugs with a NoopMsg frame. The chunk's
	// prepared frames sit in one slice, record after record.
	n := 0
	for _, outbox := range outboxes {
		n += len(outbox)
	}
	prepared := make([]reliable.PreparedSend, 0, n)
	for _, outbox := range outboxes {
		for _, m := range outbox {
			prepared = append(prepared, db.session.Prepare(m))
		}
	}

	db.mu.Lock()
	// Each record must follow its command's receive watermark in the log:
	// a crash between the two would replay the execution and then take
	// the frame again from the sender's retransmission. The delivery
	// goroutine appends that watermark (NoteRecv) as soon as its run of
	// handlers returns.
	for i := range recs {
		for db.pending[recs[i].EnqID].unnoted(db.noted, db.opts.Self) {
			db.recvd.Wait()
		}
	}
	idss := make([][]uint64, len(recs))
	rest := prepared
	for i := range recs {
		idss[i] = db.appendExecLocked(recs[i], rest[:len(outboxes[i])])
		rest = rest[len(outboxes[i]):]
	}
	db.mu.Unlock()

	// Durability barrier, then transmission: every record (and therefore
	// every frame below) is stable before the first byte reaches a peer;
	// nothing was acknowledged before this point.
	db.must(db.log.Barrier())
	db.session.CommitPrepared(prepared)
	return idss
}

// appendExecLocked journals one execution record (no barrier) and
// updates the pending set and send mirrors. Caller holds db.mu.
func (db *DB) appendExecLocked(rec core.ExecRecord, prepared []reliable.PreparedSend) []uint64 {
	ids := make([]uint64, len(rec.Local))
	for i := range rec.Local {
		ids[i] = db.nextEnq
		db.nextEnq++
	}

	db.buf = append(db.buf[:0], recExec)
	db.buf = binary.AppendUvarint(db.buf, rec.EnqID)
	db.buf = binary.AppendUvarint(db.buf, uint64(rec.Txn))
	db.buf = binary.AppendVarint(db.buf, int64(rec.From))
	db.buf = binary.AppendUvarint(db.buf, uint64(rec.Version))
	db.buf = append(db.buf, b2u8(rec.Root), b2u8(rec.ReadOnly))
	db.buf = binary.AppendUvarint(db.buf, uint64(len(rec.Ops)))
	for _, ap := range rec.Ops {
		db.buf = appendString(db.buf, ap.Key)
		var err error
		db.buf, err = wire.AppendOp(db.buf, ap.Op)
		db.must(err)
	}
	db.buf = binary.AppendUvarint(db.buf, uint64(len(rec.IncR)))
	for _, to := range rec.IncR {
		db.buf = binary.AppendVarint(db.buf, int64(to))
	}
	db.buf = binary.AppendUvarint(db.buf, uint64(len(prepared)))
	frames := make([][]byte, len(prepared))
	for i, p := range prepared {
		fb, err := wire.AppendFrame(nil, p.Msg)
		db.must(err)
		frames[i] = fb
		db.buf = append(db.buf, fb...)
	}
	db.buf = binary.AppendUvarint(db.buf, uint64(len(rec.Local)))
	for i, m := range rec.Local {
		db.buf = binary.AppendUvarint(db.buf, ids[i])
		fb, err := wire.AppendFrame(nil, transport.Message{From: db.opts.Self, To: db.opts.Self, Payload: m})
		db.must(err)
		db.buf = append(db.buf, fb...)
	}
	db.buf = binary.AppendUvarint(db.buf, uint64(rec.Part))
	_, err := db.log.Append(db.buf)
	db.must(err)

	delete(db.pending, rec.EnqID)
	for i, m := range rec.Local {
		db.pending[ids[i]] = pendingCmd{from: db.opts.Self, msg: m}
	}
	for i, p := range prepared {
		db.mirrorAddLocked(p.Msg, frames[i])
	}
	return ids
}

// VersionUpdate journals vu[part] = max(vu, v), durable before the node
// acks advancement Phase 1.
func (db *DB) VersionUpdate(part int, v model.Version) { db.versionRec(recVU, part, v) }

// VersionRead journals vr[part] = max(vr, v), durable before the
// Phase 3 ack.
func (db *DB) VersionRead(part int, v model.Version) { db.versionRec(recVR, part, v) }

// GC journals the truncation of the partition's versions below v,
// durable before the Phase 4 ack.
func (db *DB) GC(part int, v model.Version) { db.versionRec(recGC, part, v) }

// CoordTerm journals the node's fenced coordinator term, durable before
// any reply under the new term leaves: a restarted node must never
// accept a message from a coordinator an earlier incarnation already
// fenced out.
func (db *DB) CoordTerm(t uint64) {
	db.mu.Lock()
	if t <= db.coordTerm {
		db.mu.Unlock()
		return
	}
	db.coordTerm = t
	db.buf = append(db.buf[:0], recCoordTerm)
	db.buf = binary.AppendUvarint(db.buf, t)
	_, err := db.log.Append(db.buf)
	db.mu.Unlock()
	db.must(err)
	db.must(db.log.Barrier())
}

func (db *DB) versionRec(tag byte, part int, v model.Version) {
	db.mu.Lock()
	db.buf = append(db.buf[:0], tag)
	db.buf = binary.AppendUvarint(db.buf, uint64(v))
	db.buf = binary.AppendUvarint(db.buf, uint64(part))
	_, err := db.log.Append(db.buf)
	db.mu.Unlock()
	db.must(err)
	db.must(db.log.Barrier())
}

// ---------------------------------------------------------------------
// reliable.Journal
// ---------------------------------------------------------------------

// NoteSend journals a sequenced frame, durable before it is first
// transmitted: a crash after the frame is on the wire must find it in
// the log, or recovery would reuse the sequence number for a different
// payload.
func (db *DB) NoteSend(m transport.Message) {
	frame, err := wire.AppendFrame(nil, m)
	db.must(err)
	db.mu.Lock()
	db.buf = append(db.buf[:0], recSend)
	db.buf = append(db.buf, frame...)
	_, err = db.log.Append(db.buf)
	db.must(err)
	db.mirrorAddLocked(m, frame)
	db.mu.Unlock()
	db.must(db.log.Barrier())
}

// NoteRecv journals a link's advanced in-order watermark, durable —
// together with whatever the delivery handler journaled under the same
// dispatch gate — before the cumulative ack leaves.
func (db *DB) NoteRecv(to, from model.NodeID, nextExpected uint64) {
	db.mu.Lock()
	db.buf = append(db.buf[:0], recRecv)
	db.buf = binary.AppendVarint(db.buf, int64(to))
	db.buf = binary.AppendVarint(db.buf, int64(from))
	db.buf = binary.AppendUvarint(db.buf, nextExpected)
	_, err := db.log.Append(db.buf)
	k := link{from: from, to: to}
	db.recv[k] = nextExpected
	if db.noted[k] < db.enqs[k] {
		db.noted[k] = db.enqs[k]
		db.recvd.Broadcast()
	}
	db.mu.Unlock()
	db.must(err)
	db.must(db.log.Barrier())
}

// NoteAck journals a peer's cumulative ack and trims the mirror. Lazy:
// losing an ack record merely re-sends frames the peer will dedup.
func (db *DB) NoteAck(from, to model.NodeID, cum uint64) {
	db.mu.Lock()
	db.buf = append(db.buf[:0], recAck)
	db.buf = binary.AppendVarint(db.buf, int64(from))
	db.buf = binary.AppendVarint(db.buf, int64(to))
	db.buf = binary.AppendUvarint(db.buf, cum)
	_, err := db.log.Append(db.buf)
	db.mirrorAckLocked(link{from: from, to: to}, cum)
	db.mu.Unlock()
	db.must(err)
}

func (db *DB) mirrorAddLocked(m transport.Message, frame []byte) {
	d, ok := m.Payload.(reliable.DataMsg)
	if !ok {
		return // unsequenced (loopback) frames need no mirror
	}
	k := link{from: m.From, to: m.To}
	sm := db.send[k]
	if sm == nil {
		sm = &sendMirror{unacked: make(map[uint64][]byte)}
		db.send[k] = sm
	}
	if d.Seq > sm.nextSeq {
		sm.nextSeq = d.Seq
	}
	if d.Seq > sm.ackedTo {
		sm.unacked[d.Seq] = frame
	}
}

func (db *DB) mirrorAckLocked(k link, cum uint64) {
	sm := db.send[k]
	if sm == nil {
		return
	}
	if cum > sm.ackedTo {
		sm.ackedTo = cum
	}
	for seq := range sm.unacked {
		if seq <= cum {
			delete(sm.unacked, seq)
		}
	}
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

// Checkpoint freezes the node, snapshots its complete durable state
// anchored at a fresh WAL segment, and installs the snapshot. After it
// returns, replay starts at the anchor and all older segments are gone.
//
// Freeze order (deadlock-free by construction): the dispatch gate
// first — inbound dispatch only enqueues work and never blocks on the
// worker barrier — then the worker barrier via Frozen, then the DB
// mutex. Workers hold the barrier shared around each executed chunk
// and take the DB mutex inside it, the same order.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	var anchor uint64
	var blob []byte
	var err error
	db.gate.Lock()
	db.node.Frozen(func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		anchor, err = db.log.Rotate()
		if err != nil {
			return
		}
		blob = db.encodeCheckpointLocked()
	})
	db.gate.Unlock()
	if err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return err
		}
		db.must(err)
	}
	// Installation happens outside the freeze: until SaveCheckpoint
	// returns, the previous checkpoint plus the pre-anchor segments are
	// still a complete recovery story.
	return db.log.SaveCheckpoint(anchor, blob)
}

// encodeCheckpointLocked snapshots node + journal state. Caller holds
// the freeze (gate + Frozen) and db.mu.
func (db *DB) encodeCheckpointLocked() []byte {
	buf := []byte{ckptVersion}
	buf = binary.AppendVarint(buf, int64(db.opts.Self))
	buf = binary.AppendUvarint(buf, uint64(db.opts.Nodes))
	buf = binary.AppendUvarint(buf, db.nextEnq)
	buf = binary.AppendUvarint(buf, db.coordTerm)
	// Partition count plus every partition's version pair.
	buf = binary.AppendUvarint(buf, uint64(db.opts.Partitions))
	for p := 0; p < db.opts.Partitions; p++ {
		vr, vu := db.node.VersionsPart(p)
		buf = binary.AppendUvarint(buf, uint64(vr))
		buf = binary.AppendUvarint(buf, uint64(vu))
	}

	// Store, streamed shard by shard (no monolithic copy).
	st := db.node.Store()
	buf = binary.AppendUvarint(buf, uint64(st.ShardCount()))
	for i := 0; i < st.ShardCount(); i++ {
		items := st.ExportShard(i)
		buf = binary.AppendUvarint(buf, uint64(len(items)))
		for _, it := range items {
			buf = appendString(buf, it.Key)
			buf = binary.AppendUvarint(buf, uint64(len(it.Versions)))
			for _, v := range it.Versions {
				buf = binary.AppendUvarint(buf, uint64(v.Ver))
				buf = wire.AppendRecord(buf, v.Rec)
			}
		}
	}

	// Counter rows, one section per partition, one row per live version.
	for p := 0; p < db.opts.Partitions; p++ {
		cnt := db.node.CountersPart(p)
		vers := cnt.Versions()
		buf = binary.AppendUvarint(buf, uint64(len(vers)))
		for _, v := range vers {
			buf = binary.AppendUvarint(buf, uint64(v))
			for _, x := range cnt.SnapshotR(v) {
				buf = binary.AppendVarint(buf, x)
			}
			for _, x := range cnt.SnapshotC(v) {
				buf = binary.AppendVarint(buf, x)
			}
		}
	}

	// Pending commands, ascending by id for deterministic re-enqueue.
	ids := make([]uint64, 0, len(db.pending))
	for id := range db.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		p := db.pending[id]
		buf = binary.AppendUvarint(buf, id)
		fb, err := wire.AppendFrame(nil, transport.Message{From: p.from, To: db.opts.Self, Payload: p.msg})
		db.must(err)
		buf = append(buf, fb...)
	}

	// Send mirrors.
	buf = binary.AppendUvarint(buf, uint64(len(db.send)))
	for k, sm := range db.send {
		buf = binary.AppendVarint(buf, int64(k.from))
		buf = binary.AppendVarint(buf, int64(k.to))
		buf = binary.AppendUvarint(buf, sm.nextSeq)
		buf = binary.AppendUvarint(buf, sm.ackedTo)
		seqs := make([]uint64, 0, len(sm.unacked))
		for s := range sm.unacked {
			seqs = append(seqs, s)
		}
		slices.Sort(seqs)
		buf = binary.AppendUvarint(buf, uint64(len(seqs)))
		for _, s := range seqs {
			buf = append(buf, sm.unacked[s]...)
		}
	}

	// Receive watermarks.
	buf = binary.AppendUvarint(buf, uint64(len(db.recv)))
	for k, next := range db.recv {
		buf = binary.AppendVarint(buf, int64(k.to))
		buf = binary.AppendVarint(buf, int64(k.from))
		buf = binary.AppendUvarint(buf, next)
	}
	return buf
}

// StartCheckpoints launches the background checkpoint loop.
func (db *DB) StartCheckpoints() {
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		t := time.NewTicker(db.opts.CheckpointInterval)
		defer t.Stop()
		for {
			select {
			case <-db.stop:
				return
			case <-t.C:
				if err := db.Checkpoint(); err != nil {
					return // log closed: shutting down
				}
			}
		}
	}()
}

// Stats returns the underlying log's counters.
func (db *DB) Stats() wal.Stats { return db.log.Stats() }

// SetObs late-binds the observability registry (see wal.Log.SetObs).
func (db *DB) SetObs(r *obs.Registry) { db.log.SetObs(r) }

// Close stops the checkpoint loop and closes the log. Close the
// cluster first so no worker is still journaling.
func (db *DB) Close() error {
	close(db.stop)
	db.wg.Wait()
	return db.log.Close()
}
