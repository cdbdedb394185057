package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w        *workloadDef
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	traceOut string
	log      io.Writer // human-readable lines
}

// value is one reported metric with its sample count.
type value struct {
	v float64
	n int
}

// outcome is what a run reports.
type outcome struct {
	metrics   map[string]value
	attempted int64
	failed    int64
	problems  []string
}

// scale returns the closed-phase transaction count and the open phase's
// duration and rate.
func (cfg *runConfig) scale() (n int, openDur time.Duration, rate int) {
	if cfg.smoke {
		// Slow enough for the race detector to keep up with the schedule.
		return 2000, time.Second, 1000
	}
	return cfg.w.ClosedPerSec * cfg.seconds, time.Duration(cfg.seconds) * time.Second / 2, cfg.w.Rate
}

// run executes one benchmark run and returns its metrics.
func run(cfg *runConfig) (*outcome, error) {
	walRoot, err := walRootDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	fmt.Fprintf(cfg.log, "workload=%s seed=%d seconds=%d trace=%v clients=%d nproc=%d go=%s\n",
		cfg.w.Name, cfg.seed, cfg.seconds, cfg.trace, clientCount(), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(cfg.log, "injected message delay=0 (latency is processor time, not a network's); GOGC=default; fsync=%v, no background checkpoints; wal dir=%s\n", walPolicy, walRoot)
	if cfg.trace {
		return runTraced(cfg, walRoot)
	}
	return runPlain(cfg, walRoot)
}

// walRootDir picks where the WAL directories live: $BENCH_WAL_DIR, else a
// fresh directory under the working directory, which run.sh makes the
// benchmark's own directory inside the checkout.
func walRootDir() (string, error) {
	base := os.Getenv("BENCH_WAL_DIR")
	if base == "" {
		base = "."
	}
	dir, err := os.MkdirTemp(base, ".run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runPlain is the untraced run: set-up, closed phase, open phase, checks.
// Every end-to-end metric comes from here.
func runPlain(cfg *runConfig, walRoot string) (*outcome, error) {
	var d *driver
	var setups []float64
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.st.close()
		}
		var dur time.Duration
		var err error
		d, dur, err = setup(cfg, nil, filepath.Join(walRoot, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
	}
	defer func() { d.st.close() }()
	n, openDur, rate := cfg.scale()

	runtime.GC()
	cl := d.closed(n, d.gens(streamClosed), true)
	d.st.advance() // children still running in other processes finish before the open phase starts
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	op := d.open(newGen(cfg.w, cfg.seed, streamOpen), rate, openDur)
	d.finalChecks()

	out := &outcome{metrics: map[string]value{}, attempted: d.attempted.Load(), failed: d.failed.Load(), problems: d.problems}
	m := out.metrics
	done := float64(cl.completed)
	m["setup_s"] = value{median(setups), len(setups)}
	m["tps"] = value{cl.tps(), len(cl.segTPS)}
	m["update_p50_ms"] = windowed(op.update, 0.50)
	m["update_p90_ms"] = windowed(op.update, 0.90)
	m["read_p50_ms"] = windowed(op.read, 0.50)
	m["read_p90_ms"] = windowed(op.read, 0.90)
	adv := msSorted(op.advance)
	m["advance_p50_ms"] = value{quantile(adv, 0.50), len(adv)}
	m["allocs_per_txn"] = value{ratio(float64(cl.mem1.Mallocs-cl.mem0.Mallocs), done), int(cl.completed)}
	m["alloc_kb_per_txn"] = value{ratio(float64(cl.mem1.TotalAlloc-cl.mem0.TotalAlloc)/1024, done), int(cl.completed)}
	m["msgs_per_txn"] = value{ratio(float64(cl.cnt1.net.Messages-cl.cnt0.net.Messages), done), int(cl.completed)}
	m["heap_live_mb"] = value{float64(live.HeapAlloc) / (1 << 20), 1}

	fmt.Fprintf(cfg.log, "closed phase: %d txns in %.3fs (whole-phase %.0f txn/s; segments %.0f), %d advances, %d session retransmits\n",
		cl.completed, cl.elapsed.Seconds(), done/cl.elapsed.Seconds(), cl.segTPS, len(cl.reports), cl.cnt1.net.Retransmits-cl.cnt0.net.Retransmits)
	late := msSorted(op.late)
	fmt.Fprintf(cfg.log, "open phase: %d txn/s for %v, %d updates %d reads, pacer late p99 %.3f ms, %d advances\n",
		rate, openDur, m["update_p50_ms"].n, m["read_p50_ms"].n, quantile(late, 0.99), len(adv))
	return out, nil
}

// runTraced produces every per-layer metric. It first runs shortened
// untraced phases on a plain stack (the reference rate and the open-phase
// tails), then the closed phase again on a stack with the tap and the
// program's trace sampling on, then the replay kernels.
func runTraced(cfg *runConfig, walRoot string) (*outcome, error) {
	n, openDur, rate := cfg.scale()
	n /= 3
	openDur /= 2

	ref, _, err := setup(cfg, nil, filepath.Join(walRoot, "ref"))
	if err != nil {
		return nil, err
	}
	refClosed := ref.closed(n, ref.gens(streamClosed), true)
	ref.st.advance()
	op := ref.open(newGen(cfg.w, cfg.seed, streamOpen), rate, openDur)
	ref.finalChecks()

	rec := newRecorder()
	d, _, err := setup(cfg, rec, filepath.Join(walRoot, "traced"))
	if err != nil {
		return nil, err
	}
	defer func() { d.st.close() }()
	runtime.GC()
	rec.on.Store(true)
	cl := d.closed(n, d.gens(streamTraced), true)
	rec.on.Store(false)
	var checkpoint time.Duration
	for _, db := range d.st.dbs {
		if db != nil {
			t0 := time.Now()
			if err := db.Checkpoint(); err != nil {
				d.problem("checkpoint: %v", err)
			}
			checkpoint += time.Since(t0)
		}
	}
	recoverDur := d.finalChecks()

	out := &outcome{metrics: map[string]value{},
		attempted: ref.attempted.Load() + d.attempted.Load(),
		failed:    ref.failed.Load() + d.failed.Load(),
		problems:  append(ref.problems, d.problems...)}
	m := out.metrics
	for _, def := range perLayer {
		m[def.Name] = value{} // a layer absent from the workload reports 0
	}
	txns := float64(cl.completed)
	advances := float64(len(cl.reports))
	c0, c1 := cl.cnt0, cl.cnt1

	upd, rd, late := flat(op.update), flat(op.read), msSorted(op.late)
	m["driver.update_p99_ms"] = value{quantile(upd, 0.99), len(upd)}
	m["driver.update_p999_ms"] = value{quantile(upd, 0.999), len(upd)}
	m["driver.read_p99_ms"] = value{quantile(rd, 0.99), len(rd)}
	m["driver.gen_late_p99_ms"] = value{quantile(late, 0.99), len(late)}
	m["driver.cpu_us_per_txn"] = value{ratio(float64(cl.cpu.Microseconds()), txns), int(cl.completed)}
	m["driver.gc_cycles"] = value{float64(cl.mem1.NumGC - cl.mem0.NumGC), 1}
	m["driver.gc_pause_ms_total"] = value{float64(cl.mem1.PauseTotalNs-cl.mem0.PauseTotalNs) / 1e6, int(cl.mem1.NumGC - cl.mem0.NumGC)}
	m["driver.trace_overhead_frac"] = value{1 - ratio(cl.tps(), refClosed.tps()), len(cl.segTPS)}

	m["core.submit_us_per_txn"] = value{ratio(float64(cl.submitNs)/1e3, txns), int(cl.completed)}
	for i, name := range []string{"wire", "queue", "service", "ack"} {
		q, samples := c1.stages[i].plus(c0.stages[i], -1).quantile(0.5)
		m["core.stage_"+name+"_ms_p50"] = value{float64(q) / 1e6, int(samples)}
	}
	phases := [4][]time.Duration{}
	var sweeps float64
	for _, r := range cl.reports {
		phases[0] = append(phases[0], r.Phase1)
		phases[1] = append(phases[1], r.Phase2)
		phases[2] = append(phases[2], r.Phase3)
		phases[3] = append(phases[3], r.Phase4)
		sweeps += float64(r.SweepsPhase2 + r.SweepsPhase4)
	}
	for i := range phases {
		m[fmt.Sprintf("core.adv_phase%d_ms_p50", i+1)] = value{quantile(msSorted(phases[i]), 0.5), len(phases[i])}
	}
	m["core.adv_sweeps_per_advance"] = value{ratio(sweeps, advances), len(cl.reports)}
	m["core.dual_writes_per_ktxn"] = value{ratio(float64(c1.dual-c0.dual)*1000, txns), int(cl.completed)}
	m["core.implicit_advances_per_advance"] = value{ratio(float64(c1.implicit-c0.implicit), advances), len(cl.reports)}
	replSends := float64(c1.obsCtr["repl_sends"] - c0.obsCtr["repl_sends"])
	m["core.repl_sends_per_txn"] = value{ratio(replSends, txns), int(cl.completed)}
	m["core.repl_acks_per_send"] = value{ratio(float64(c1.obsCtr["repl_acks"]-c0.obsCtr["repl_acks"]), replSends), int(replSends)}

	sends := float64(rec.sends.Load())
	flushes := float64(c1.net.Flushes - c0.net.Flushes)
	m["transport.subtxn_msgs_per_txn"] = value{ratio(float64(rec.typeCount("subtxn")), txns), int(cl.completed)}
	m["transport.counter_msgs_per_advance"] = value{ratio(float64(rec.typeCount("counter_req", "counter_reply", "counters_req", "counters")), advances), len(cl.reports)}
	m["transport.flushes_per_txn"] = value{ratio(flushes, txns), int(cl.completed)}
	m["transport.mean_batch"] = value{ratio(float64(rec.delivers.Load()), sends), int(sends)}
	m["transport.send_ns_per_msg"] = value{ratio(float64(rec.sendNs.Load()), sends), int(sends)}
	m["transport.deliver_ns_per_msg"] = value{ratio(float64(rec.deliverNs.Load()), float64(rec.delivers.Load())), int(rec.delivers.Load())}
	m["transport.max_queue_depth"] = value{float64(c1.net.MaxQueueDepth), 1}

	data := float64(rec.typeCount("reliable_data"))
	m["reliable.acks_per_data"] = value{ratio(float64(rec.typeCount("reliable_ack")), data), int(data)}
	m["reliable.retransmits"] = value{float64(c1.net.Retransmits - c0.net.Retransmits), 1}
	m["reliable.dup_dropped"] = value{float64(c1.net.DupDropped - c0.net.DupDropped), 1}

	m["tcpnet.bytes_per_txn"] = value{ratio(float64(c1.net.BytesSent-c0.net.BytesSent), txns), int(cl.completed)}
	m["tcpnet.frames_per_txn"] = value{ratio(float64(c1.net.FramesSent-c0.net.FramesSent), txns), int(cl.completed)}
	m["tcpnet.reconnects"] = value{float64(c1.net.Reconnects - c0.net.Reconnects), 1}

	m["wal.records_per_txn"] = value{ratio(float64(c1.wal.Records-c0.wal.Records), txns), int(cl.completed)}
	m["wal.bytes_per_txn"] = value{ratio(float64(c1.wal.TotalAppended-c0.wal.TotalAppended), txns), int(cl.completed)}
	m["wal.fsyncs_per_txn"] = value{ratio(float64(c1.wal.Fsyncs-c0.wal.Fsyncs), txns), int(cl.completed)}
	if cfg.w.Stack == stackDurableTCP {
		m["durable.checkpoint_ms"] = value{ms(checkpoint), len(d.st.dbOpts)}
		m["durable.recover_ms"] = value{ms(recoverDur), len(d.st.dbOpts)}
	}

	m["storage.copies_per_ktxn"] = value{ratio(float64(c1.store.Copies-c0.store.Copies)*1000, txns), int(cl.completed)}
	m["storage.kb_copied_per_txn"] = value{ratio(float64(c1.store.BytesCopied-c0.store.BytesCopied)/1024, txns), int(cl.completed)}
	m["storage.gc_dropped_per_advance"] = value{ratio(float64(c1.store.GCDropped-c0.store.GCDropped), advances), len(cl.reports)}

	info, err := replay(cfg, rec, filepath.Join(walRoot, "replay"), m)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(cfg.log, "reference closed phase: %d txns, %.0f txn/s; traced: %d txns, %.0f txn/s, %d advances; tap saw %d sends, %d deliveries, kept %d messages and %d spans\n",
		refClosed.completed, refClosed.tps(), cl.completed, cl.tps(), len(cl.reports),
		rec.sends.Load(), rec.delivers.Load(), len(rec.msgs), len(rec.spans))
	explainCPU(cfg, info, m)
	if cfg.traceOut != "" {
		if err := rec.writeSpans(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	return out, nil
}

// explainCPU prints, next to the measured processor time per transaction,
// what the replay kernels say each layer's share of it is: a kernel's unit
// cost times the units one captured transaction carried.
func explainCPU(cfg *runConfig, c captured, m map[string]value) {
	cpu := m["driver.cpu_us_per_txn"].v
	if cpu == 0 {
		return
	}
	rows := []struct {
		layer string
		us    float64
	}{
		{"transport: kernel ns/msg x msgs/txn", m["transport.kernel_ns_per_msg"].v * c.msgsPerTxn / 1e3},
		{"reliable: kernel ns/msg x msgs/txn", m["reliable.kernel_ns_per_msg"].v * c.msgsPerTxn / 1e3},
		{"wire: (encode+decode) ns/msg x envelopes/txn", (m["wire.encode_ns_per_msg"].v + m["wire.decode_ns_per_msg"].v) * c.envelopesPerTxn / 1e3},
		{"wal: append ns/rec x records/txn", m["wal.append_ns_per_rec"].v * m["wal.records_per_txn"].v / 1e3},
		{"storage: apply ns/op x ops/txn", m["storage.apply_ns_per_op"].v * c.opsPerTxn / 1e3},
		{"storage: read ns/op x reads/txn", m["storage.read_ns_per_op"].v * c.readsPerTxn / 1e3},
		{"counters: inc ns x subtxns/txn", m["counters.inc_ns"].v * c.subtxnsPerTxn / 1e3},
		{"core: SubmitBatch span", m["core.submit_us_per_txn"].v},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].us > rows[j].us })
	fmt.Fprintf(cfg.log, "driver.cpu_us_per_txn %.2f us (program, runtime and load generator together); the replay kernels explain:\n", cpu)
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(cfg.log, "  %-42s %8.2f us/txn  %5.1f%%\n", r.layer, r.us, 100*r.us/cpu)
		sum += r.us
	}
	fmt.Fprintf(cfg.log, "  %-42s %8.2f us/txn  %5.1f%%\n", "unexplained (core execution, scheduling, GC, driver)", cpu-sum, 100*(cpu-sum)/cpu)
}
