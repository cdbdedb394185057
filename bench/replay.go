package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

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

// The replay kernels run after the traced phase, single-threaded, on the
// messages the tap kept: each pushes them through one layer's public
// functions with a timer and an allocation counter around the calls. A
// kernel runs only when its layer is part of the workload's stack.

// flatten unwraps flush envelopes and session frames into the application
// messages they carry; session acks carry none.
func flatten(msgs []transport.Message) []transport.Message {
	var out []transport.Message
	var walk func(m transport.Message)
	walk = func(m transport.Message) {
		switch p := m.Payload.(type) {
		case transport.BatchMsg:
			for _, mm := range p.Msgs {
				walk(mm)
			}
		case reliable.DataMsg:
			m.Payload = p.Payload
			walk(m)
		case reliable.AckMsg, reliable.NoopMsg:
		default:
			out = append(out, m)
		}
	}
	for _, m := range msgs {
		walk(m)
	}
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// captured says how much work per transaction the kept messages carry; the
// CPU breakdown multiplies the kernels' unit costs by it.
type captured struct {
	envelopesPerTxn, msgsPerTxn, opsPerTxn, readsPerTxn, subtxnsPerTxn float64
}

func replay(cfg *runConfig, rec *recorder, walDir string, m map[string]value) (captured, error) {
	w := cfg.w
	raw := rec.msgs
	app := flatten(raw)
	var roots, subs, ops, reads float64
	for _, msg := range app {
		if p, ok := msg.Payload.(core.SubtxnMsg); ok && p.Spec != nil {
			subs++
			if p.Root {
				roots++
			}
			ops += float64(len(p.Spec.Updates))
			reads += float64(len(p.Spec.Reads))
		}
	}
	if roots == 0 {
		return captured{}, fmt.Errorf("replay: the tap captured no transactions")
	}
	info := captured{envelopesPerTxn: float64(len(raw)) / roots, msgsPerTxn: float64(len(app)) / roots,
		opsPerTxn: ops / roots, readsPerTxn: reads / roots, subtxnsPerTxn: subs / roots}

	m["transport.kernel_ns_per_msg"] = value{netKernel(app, false), len(app)}
	if w.Stack != stackMem {
		m["reliable.kernel_ns_per_msg"] = value{netKernel(app, true), len(app)}
	}
	if w.Stack == stackDurableTCP {
		bodies, err := wireKernel(raw, m)
		if err != nil {
			return info, err
		}
		if err := walKernel(bodies, walDir, m); err != nil {
			return info, err
		}
	}
	storageKernel(w, app, m)
	countersKernel(w, m)
	partitionKernel(w, app, m)
	return info, nil
}

// netKernel sends the messages from endpoint 0 to endpoint 1 of a fresh
// zero-delay mem network (under the session layer when session is set) and
// returns the wall time per message until the last one is delivered and,
// under the session layer, acknowledged. It sends a window at a time: the
// session's per-ack cost grows with the unacknowledged backlog, and with
// every message handed over at once the kernel would time that backlog (and,
// at the default 2 ms timer, its retransmission) instead of the layer.
func netKernel(app []transport.Message, session bool) float64 {
	const window = 256
	var network transport.Network = transport.NewNet(transport.Config{Nodes: 2})
	var sess *reliable.Session
	if session {
		sess = reliable.Wrap(network, 2, reliable.Config{RetransmitInterval: time.Minute, MaxBackoff: time.Minute})
		network = sess
	}
	total := int64(len(app))
	var delivered atomic.Int64
	windowDone := make(chan struct{}, 1)
	network.Register(0, func(transport.Message) {})
	network.Register(1, func(transport.Message) {
		if n := delivered.Add(1); n%window == 0 || n == total {
			windowDone <- struct{}{}
		}
	})
	network.Start()
	start := time.Now()
	for i, msg := range app {
		msg.From, msg.To = 0, 1
		network.Send(msg)
		if n := int64(i + 1); n%window == 0 || n == total {
			<-windowDone
			for sess != nil && sess.InFlight() > 0 {
				runtime.Gosched()
			}
		}
	}
	d := time.Since(start)
	network.Close()
	return float64(d.Nanoseconds()) / float64(len(app))
}

// wireKernel encodes and decodes the captured envelopes exactly as the tap
// saw them, and returns the frame bodies for the WAL kernel.
func wireKernel(raw []transport.Message, m map[string]value) ([][]byte, error) {
	bodies := make([][]byte, 0, len(raw))
	var buf []byte
	var bytes int
	a0 := mallocs()
	start := time.Now()
	for _, msg := range raw {
		var err error
		buf, err = wire.AppendFrame(buf[:0], msg)
		if err != nil {
			return nil, fmt.Errorf("replay: encode %s: %w", transport.PayloadName(msg.Payload), err)
		}
		bytes += len(buf)
		bodies = append(bodies, append([]byte(nil), buf[4:]...))
	}
	enc := time.Since(start)
	start = time.Now()
	for _, b := range bodies {
		if _, err := wire.DecodeFrame(b); err != nil {
			return nil, fmt.Errorf("replay: decode: %w", err)
		}
	}
	dec := time.Since(start)
	a1 := mallocs()
	n := float64(len(raw))
	m["wire.encode_ns_per_msg"] = value{float64(enc.Nanoseconds()) / n, len(raw)}
	m["wire.decode_ns_per_msg"] = value{float64(dec.Nanoseconds()) / n, len(raw)}
	m["wire.bytes_per_msg"] = value{float64(bytes) / n, len(raw)}
	// One allocation per message is the kernel's own copy of the body.
	m["wire.allocs_per_msg"] = value{float64(a1-a0)/n - 1, len(raw)}
	return bodies, nil
}

// walKernel appends the encoded bodies to a fresh log under the run's fsync
// policy, with a Barrier every 64 records. Under `interval` a Barrier does
// not wait for the device, so wal.barrier_us_p50 is the cost of the call.
func walKernel(bodies [][]byte, dir string, m map[string]value) error {
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: walPolicy})
	if err != nil {
		return err
	}
	var appendD time.Duration
	var barriers []time.Duration
	for i, b := range bodies {
		t0 := time.Now()
		_, err := log.Append(b)
		appendD += time.Since(t0)
		if err != nil {
			log.Close()
			return fmt.Errorf("replay: wal append: %w", err)
		}
		if i%64 == 63 {
			t0 = time.Now()
			if err := log.Barrier(); err != nil {
				log.Close()
				return fmt.Errorf("replay: wal barrier: %w", err)
			}
			barriers = append(barriers, time.Since(t0))
		}
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("replay: wal close: %w", err)
	}
	m["wal.append_ns_per_rec"] = value{float64(appendD.Nanoseconds()) / float64(len(bodies)), len(bodies)}
	us := msSorted(barriers)
	m["wal.barrier_us_p50"] = value{quantile(us, 0.5) * 1000, len(barriers)}
	return nil
}

// storageKernel applies the update subtransactions captured for node 0 to a
// fresh store preloaded like the run's, switching versions and collecting
// garbage at the run's cadence, then replays the captured reads against it.
func storageKernel(w *workloadDef, app []transport.Message, m map[string]value) {
	st := storage.New()
	for g := 0; g < w.Groups; g++ {
		for _, n := range groupNodes(w, g) {
			if n == 0 {
				st.Preload(groupKey(g), zeroRecord())
			}
		}
	}
	var subs []core.SubtxnMsg
	for _, msg := range app {
		if p, ok := msg.Payload.(core.SubtxnMsg); ok && msg.To == 0 && p.Spec != nil {
			subs = append(subs, p)
		}
	}
	// AdvanceEvery transactions put about AdvanceEvery·Span/Nodes update
	// children on one node between two version switches.
	perVersion := w.AdvanceEvery * w.Span / w.Nodes
	vu := model.Version(1)
	var ops, inVersion int
	var gcs []time.Duration
	a0 := mallocs()
	start := time.Now()
	for _, p := range subs {
		if len(p.Spec.Updates) == 0 {
			continue
		}
		for _, u := range p.Spec.Updates {
			st.EnsureVersion(u.Key, vu)
			st.ApplyFrom(u.Key, vu, u.Op)
			ops++
		}
		if inVersion++; inVersion == perVersion {
			inVersion = 0
			t0 := time.Now()
			st.GC(vu)
			gcs = append(gcs, time.Since(t0))
			vu++
		}
	}
	applyD := time.Since(start)
	a1 := mallocs()
	var gcD time.Duration
	for _, d := range gcs {
		gcD += d
	}
	m["storage.apply_ns_per_op"] = value{ratio(float64((applyD - gcD).Nanoseconds()), float64(ops)), ops}
	m["storage.allocs_per_apply"] = value{ratio(float64(a1-a0), float64(ops)), ops}
	m["storage.gc_us_per_run"] = value{ratio(float64(gcD.Microseconds()), float64(len(gcs))), len(gcs)}

	reads := 0
	start = time.Now()
	for _, p := range subs {
		for _, k := range p.Spec.Reads {
			st.ReadMax(k, vu)
			reads++
		}
	}
	m["storage.read_ns_per_op"] = value{ratio(float64(time.Since(start).Nanoseconds()), float64(reads)), reads}
}

func countersKernel(w *workloadDef, m map[string]value) {
	const rounds = 200000
	t := counters.NewTable(0, w.Nodes)
	t.EnsureVersion(1)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		n := model.NodeID(i % w.Nodes)
		t.IncR(1, n)
		t.IncC(1, n)
	}
	m["counters.inc_ns"] = value{float64(time.Since(start).Nanoseconds()) / rounds, rounds}

	const snaps = 20000
	tables := make([]*counters.Table, w.Nodes)
	for i := range tables {
		tables[i] = counters.NewTable(model.NodeID(i), w.Nodes)
		tables[i].EnsureVersion(1)
	}
	balanced := 0
	start = time.Now()
	for i := 0; i < snaps; i++ {
		s := counters.NewSnapshot(w.Nodes)
		for n, tb := range tables {
			s.SetFromNode(model.NodeID(n), tb.SnapshotR(1), tb.SnapshotC(1))
		}
		if s.Balanced() {
			balanced++
		}
	}
	m["counters.snapshot_ns"] = value{float64(time.Since(start).Nanoseconds()) / snaps, balanced}
}

func partitionKernel(w *workloadDef, app []transport.Message, m map[string]value) {
	pm := partition.NewMap(w.Partitions, w.Nodes)
	var keys []string
	for _, msg := range app {
		if p, ok := msg.Payload.(core.SubtxnMsg); ok && p.Spec != nil {
			for _, u := range p.Spec.Updates {
				keys = append(keys, u.Key)
			}
			keys = append(keys, p.Spec.Reads...)
		}
	}
	if len(keys) == 0 {
		return
	}
	sink := 0
	start := time.Now()
	for _, k := range keys {
		sink += pm.Of(k)
	}
	d := time.Since(start)
	if sink < 0 {
		panic("unreachable")
	}
	m["partition.of_ns_per_key"] = value{float64(d.Nanoseconds()) / float64(len(keys)), len(keys)}
}
