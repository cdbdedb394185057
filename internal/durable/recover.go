package durable

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Open initializes a node's durability layer from its data directory.
//
// With no usable checkpoint the directory is treated as a fresh start:
// restore and session state are nil, and the caller is expected to
// preload initial data and take the first checkpoint before serving
// traffic (so every later WAL record is anchored by a checkpoint).
//
// With a checkpoint, Open decodes it, replays every WAL record at or
// after its anchor segment on top, plugs any sequence holes left by a
// crash between Prepare and commit with NoopMsg frames, and returns the
// rebuilt node state plus the session link state to reinstall.
func Open(opts Options) (*DB, *core.NodeRestore, *reliable.SessionState, error) {
	opts = opts.withDefaults()
	db := &DB{
		opts:    opts,
		pending: make(map[uint64]pendingCmd),
		nextEnq: 1,
		send:    make(map[link]*sendMirror),
		recv:    make(map[link]uint64),
		stop:    make(chan struct{}),
		enqs:    make(map[link]uint64),
		noted:   make(map[link]uint64),
	}
	db.recvd = sync.NewCond(&db.mu)

	seg, blob, found, err := wal.LoadCheckpoint(opts.Dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var restore *core.NodeRestore
	var sess *reliable.SessionState
	if found {
		restore, sess, err = db.recover(seg, blob)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	db.log, err = wal.Open(wal.Options{Dir: opts.Dir, Fsync: opts.Fsync, Obs: opts.Obs})
	if err != nil {
		return nil, nil, nil, err
	}
	return db, restore, sess, nil
}

// replayState accumulates recovery: checkpoint state first, then WAL
// records applied on top in log order. Version pairs and counter
// tables are per partition.
type replayState struct {
	store     *storage.Store
	cnts      []*counters.Table
	vrs, vus  []model.Version
	nextEnq   uint64
	coordTerm uint64
	pending   map[uint64]pendingCmd
	send      map[link]*sendMirror
	recv      map[link]uint64
	// enqs/noted as in DB: checkpointed commands count as noted (the
	// checkpoint holds the dispatch gate), WAL ones from their records.
	enqs, noted map[link]uint64
}

// part reads a record's partition id. An id this process was not
// configured with fails the decode: replaying it into any other
// partition would move that partition's versions or counters.
func (rs *replayState) part(c *cur) int {
	p := c.uvarint()
	if c.err == nil && p >= uint64(len(rs.cnts)) {
		c.fail("durable: partition %d outside [0, %d)", p, len(rs.cnts))
	}
	if c.err != nil {
		return 0
	}
	return int(p)
}

// nodeID reads a record's node id. An id outside [0, Nodes) fails the
// decode: the counter tables hold one row per node, so replaying it
// would index past them.
func (db *DB) nodeID(c *cur) model.NodeID {
	id := c.varint()
	if c.err == nil && (id < 0 || id >= int64(db.opts.Nodes)) {
		c.fail("durable: node %d outside [0, %d)", id, db.opts.Nodes)
	}
	if c.err != nil {
		return 0
	}
	return model.NodeID(id)
}

func (db *DB) recover(anchor uint64, blob []byte) (*core.NodeRestore, *reliable.SessionState, error) {
	rs, err := db.decodeCheckpoint(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := wal.Replay(db.opts.Dir, anchor, func(body []byte) error {
		return db.apply(rs, body)
	}); err != nil {
		return nil, nil, fmt.Errorf("durable: replay: %w", err)
	}

	// Plug sequence holes: a crash between Prepare and the execution
	// record's barrier burned sequence numbers without journaling their
	// frames. Holes below a journaled (committed) frame would wedge the
	// receiver's in-order delivery forever, so recovery synthesizes
	// NoopMsg frames for them — the receiver consumes the seq and
	// delivers nothing. Holes above every journaled frame need no
	// filler: nextSeq restores to the highest journaled seq, so the
	// next live send simply reuses the hole's number.
	for k, sm := range rs.send {
		maxCommitted := sm.ackedTo
		for seq := range sm.unacked {
			if seq > maxCommitted {
				maxCommitted = seq
			}
		}
		for seq := sm.ackedTo + 1; seq <= maxCommitted; seq++ {
			if _, ok := sm.unacked[seq]; ok {
				continue
			}
			fb, err := wire.AppendFrame(nil, transport.Message{
				From: k.from, To: k.to,
				Payload: reliable.DataMsg{Seq: seq, Payload: reliable.NoopMsg{}},
			})
			if err != nil {
				return nil, nil, err
			}
			sm.unacked[seq] = fb
		}
		if sm.nextSeq < maxCommitted {
			sm.nextSeq = maxCommitted
		}
	}

	// A command whose delivery run's watermark never reached the log was
	// never acknowledged: its sender still holds the frame and will
	// retransmit it, so replaying the command as well would run it twice.
	for id, p := range rs.pending {
		if p.unnoted(rs.noted, db.opts.Self) {
			delete(rs.pending, id)
		}
	}

	// Adopt the rebuilt journal state as the live state.
	db.pending = rs.pending
	db.enqs, db.noted = rs.enqs, rs.noted
	db.nextEnq = rs.nextEnq
	db.coordTerm = rs.coordTerm
	db.send = rs.send
	db.recv = rs.recv

	restore := &core.NodeRestore{
		Store:        rs.store,
		CoordTerm:    rs.coordTerm,
		PartVR:       rs.vrs,
		PartVU:       rs.vus,
		PartCounters: rs.cnts,
	}
	ids := make([]uint64, 0, len(rs.pending))
	for id := range rs.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p := rs.pending[id]
		restore.Pending = append(restore.Pending, core.PendingSubtxn{EnqID: id, From: p.from, Msg: p.msg})
	}

	sess := &reliable.SessionState{}
	for k, sm := range rs.send {
		ls := reliable.LinkSendState{From: k.from, To: k.to, NextSeq: sm.nextSeq}
		seqs := make([]uint64, 0, len(sm.unacked))
		for s := range sm.unacked {
			seqs = append(seqs, s)
		}
		slices.Sort(seqs)
		for _, s := range seqs {
			raw := sm.unacked[s]
			m, err := wire.DecodeFrame(raw[4:])
			if err != nil {
				return nil, nil, fmt.Errorf("durable: mirrored frame: %w", err)
			}
			ls.Unacked = append(ls.Unacked, m)
		}
		sess.Send = append(sess.Send, ls)
	}
	for k, next := range rs.recv {
		sess.Recv = append(sess.Recv, reliable.LinkRecvState{To: k.to, From: k.from, NextExpected: next})
	}
	return restore, sess, nil
}

func (db *DB) decodeCheckpoint(blob []byte) (*replayState, error) {
	c := &cur{b: blob}
	ver := c.byte()
	if c.err == nil && ver != ckptVersion {
		return nil, fmt.Errorf("unsupported blob version %d", ver)
	}
	self := model.NodeID(c.varint())
	n := c.count()
	if c.err == nil && (self != db.opts.Self || n != db.opts.Nodes) {
		return nil, fmt.Errorf("checkpoint is for node %d of %d, this process is node %d of %d",
			self, n, db.opts.Self, db.opts.Nodes)
	}
	rs := &replayState{
		store:   storage.New(),
		pending: make(map[uint64]pendingCmd),
		send:    make(map[link]*sendMirror),
		recv:    make(map[link]uint64),
		enqs:    make(map[link]uint64),
		noted:   make(map[link]uint64),
	}
	rs.nextEnq = c.uvarint()
	rs.coordTerm = c.uvarint()
	nparts := c.count()
	if c.err == nil && nparts != db.opts.Partitions {
		return nil, fmt.Errorf("checkpoint has %d partitions, this process is configured with %d",
			nparts, db.opts.Partitions)
	}
	if c.err != nil {
		return nil, c.err
	}
	rs.cnts = make([]*counters.Table, nparts)
	rs.vrs = make([]model.Version, nparts)
	rs.vus = make([]model.Version, nparts)
	for p := range rs.cnts {
		rs.cnts[p] = counters.NewTable(db.opts.Self, db.opts.Nodes)
	}
	for p := 0; p < nparts && c.err == nil; p++ {
		rs.vrs[p] = model.Version(c.uvarint())
		rs.vus[p] = model.Version(c.uvarint())
	}

	var items []storage.ExportedItem
	for s, nShards := 0, c.count(); s < nShards && c.err == nil; s++ {
		for i, nItems := 0, c.count(); i < nItems && c.err == nil; i++ {
			it := storage.ExportedItem{Key: c.str()}
			for v, nVers := 0, c.count(); v < nVers && c.err == nil; v++ {
				ver := model.Version(c.uvarint())
				it.Versions = append(it.Versions, storage.ExportedVersion{Ver: ver, Rec: c.record()})
			}
			items = append(items, it)
		}
	}
	if c.err == nil {
		rs.store.Import(items)
	}

	for p := 0; p < nparts && c.err == nil; p++ {
		for i, nVers := 0, c.count(); i < nVers && c.err == nil; i++ {
			ver := model.Version(c.uvarint())
			rRow := make([]int64, db.opts.Nodes)
			cRow := make([]int64, db.opts.Nodes)
			for j := range rRow {
				rRow[j] = c.varint()
			}
			for j := range cRow {
				cRow[j] = c.varint()
			}
			rs.cnts[p].RestoreRow(ver, rRow, cRow)
		}
	}

	for i, nPend := 0, c.count(); i < nPend && c.err == nil; i++ {
		id := c.uvarint()
		m, _ := c.frame()
		if c.err != nil {
			break
		}
		sub, ok := m.Payload.(core.SubtxnMsg)
		if !ok {
			return nil, fmt.Errorf("pending command %d is %T, not a subtransaction", id, m.Payload)
		}
		rs.pending[id] = pendingCmd{from: m.From, msg: sub}
	}

	for i, nSend := 0, c.count(); i < nSend && c.err == nil; i++ {
		k := link{from: model.NodeID(c.varint()), to: model.NodeID(c.varint())}
		sm := &sendMirror{unacked: make(map[uint64][]byte)}
		sm.nextSeq = c.uvarint()
		sm.ackedTo = c.uvarint()
		for j, nUn := 0, c.count(); j < nUn && c.err == nil; j++ {
			m, raw := c.frame()
			if c.err != nil {
				break
			}
			d, ok := m.Payload.(reliable.DataMsg)
			if !ok {
				return nil, fmt.Errorf("mirrored frame on link %d->%d is %T, not a data frame", k.from, k.to, m.Payload)
			}
			sm.unacked[d.Seq] = raw
		}
		rs.send[k] = sm
	}

	for i, nRecv := 0, c.count(); i < nRecv && c.err == nil; i++ {
		to := model.NodeID(c.varint())
		from := model.NodeID(c.varint())
		rs.recv[link{from: from, to: to}] = c.uvarint()
	}
	return rs, c.end()
}

// apply folds one WAL record into the replay state. Order-independence
// of racing effect records is argued in the package comment.
func (db *DB) apply(rs *replayState, body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("empty record")
	}
	c := &cur{b: body[1:]}
	switch tag := body[0]; tag {
	case recEnq:
		id := c.uvarint()
		m, _ := c.frame()
		if c.err != nil {
			return c.err
		}
		sub, ok := m.Payload.(core.SubtxnMsg)
		if !ok {
			return fmt.Errorf("enq %d payload is %T", id, m.Payload)
		}
		rs.pending[id] = pendingCmd{from: m.From, msg: sub, ord: enqOrd(rs.enqs, m.From, db.opts.Self)}
		if id >= rs.nextEnq {
			rs.nextEnq = id + 1
		}

	case recExec:
		enqID := c.uvarint()
		_ = model.TxnID(c.uvarint())
		from := db.nodeID(c)
		ver := model.Version(c.uvarint())
		root := c.byte() == 1
		readOnly := c.byte() == 1
		type appliedOp struct {
			key string
			op  model.Op
		}
		var ops []appliedOp
		for i, n := 0, c.count(); i < n && c.err == nil; i++ {
			ops = append(ops, appliedOp{key: c.str(), op: c.op()})
		}
		var incR []model.NodeID
		for i, n := 0, c.count(); i < n && c.err == nil; i++ {
			incR = append(incR, db.nodeID(c))
		}
		type outFrame struct {
			m   transport.Message
			raw []byte
		}
		var out []outFrame
		for i, n := 0, c.count(); i < n && c.err == nil; i++ {
			m, raw := c.frame()
			out = append(out, outFrame{m: m, raw: raw})
		}
		type localCmd struct {
			id  uint64
			msg core.SubtxnMsg
		}
		var locals []localCmd
		for i, n := 0, c.count(); i < n && c.err == nil; i++ {
			id := c.uvarint()
			m, _ := c.frame()
			if c.err != nil {
				break
			}
			sub, ok := m.Payload.(core.SubtxnMsg)
			if !ok {
				return fmt.Errorf("exec local child is %T", m.Payload)
			}
			locals = append(locals, localCmd{id: id, msg: sub})
		}
		part := rs.part(c)
		if err := c.end(); err != nil {
			return err
		}

		delete(rs.pending, enqID)
		// A non-root update execution implies the Step 2 implicit
		// advancement notification the node performed before executing.
		if !root && !readOnly && ver > rs.vus[part] {
			rs.vus[part] = ver
		}
		for _, ap := range ops {
			rs.store.EnsureVersion(ap.key, ver)
			rs.store.ApplyFrom(ap.key, ver, ap.op)
		}
		for _, to := range incR {
			rs.cnts[part].IncR(ver, to)
		}
		rs.cnts[part].IncC(ver, from)
		for _, f := range out {
			mirrorAdd(rs.send, f.m, f.raw)
		}
		for _, lc := range locals {
			rs.pending[lc.id] = pendingCmd{from: db.opts.Self, msg: lc.msg}
			if lc.id >= rs.nextEnq {
				rs.nextEnq = lc.id + 1
			}
		}

	case recVU:
		v := model.Version(c.uvarint())
		part := rs.part(c)
		if c.err == nil {
			if v > rs.vus[part] {
				rs.vus[part] = v
			}
			rs.cnts[part].EnsureVersion(v)
		}
	case recVR:
		v := model.Version(c.uvarint())
		part := rs.part(c)
		if c.err == nil && v > rs.vrs[part] {
			rs.vrs[part] = v
		}
	case recGC:
		v := model.Version(c.uvarint())
		part := rs.part(c)
		if c.err == nil {
			rs.store.GCFunc(v, db.gcPred(part))
			rs.cnts[part].DropBelow(v)
		}
	case recCoordTerm:
		if t := c.uvarint(); c.err == nil && t > rs.coordTerm {
			rs.coordTerm = t
		}

	case recSend:
		m, raw := c.frame()
		if c.err != nil {
			return c.err
		}
		mirrorAdd(rs.send, m, raw)
	case recRecv:
		to := model.NodeID(c.varint())
		from := model.NodeID(c.varint())
		next := c.uvarint()
		if c.err == nil {
			k := link{from: from, to: to}
			rs.recv[k] = next
			rs.noted[k] = rs.enqs[k]
		}
	case recAck:
		from := model.NodeID(c.varint())
		to := model.NodeID(c.varint())
		cum := c.uvarint()
		if c.err == nil {
			if sm := rs.send[link{from: from, to: to}]; sm != nil {
				if cum > sm.ackedTo {
					sm.ackedTo = cum
				}
				for seq := range sm.unacked {
					if seq <= cum {
						delete(sm.unacked, seq)
					}
				}
			}
		}

	default:
		return fmt.Errorf("unknown record tag %d", tag)
	}
	return c.end()
}

// gcPred returns the key predicate scoping a GC replay to one
// partition, rebuilt from the same deterministic placement the cluster
// uses; nil (collect everything) when unpartitioned.
func (db *DB) gcPred(part int) func(string) bool {
	if db.opts.Partitions <= 1 {
		return nil
	}
	pmap := partition.NewMap(db.opts.Partitions, db.opts.Nodes)
	return func(key string) bool { return pmap.Of(key) == part }
}

// mirrorAdd is the replay-side twin of DB.mirrorAddLocked.
func mirrorAdd(send map[link]*sendMirror, m transport.Message, raw []byte) {
	d, ok := m.Payload.(reliable.DataMsg)
	if !ok {
		return
	}
	k := link{from: m.From, to: m.To}
	sm := send[k]
	if sm == nil {
		sm = &sendMirror{unacked: make(map[uint64][]byte)}
		send[k] = sm
	}
	if d.Seq > sm.nextSeq {
		sm.nextSeq = d.Seq
	}
	if d.Seq > sm.ackedTo {
		sm.unacked[d.Seq] = raw
	}
}
