package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/verify"
)

// This file is the load generator: the closed and open phases, the set-up
// that precedes them, and the per-operation gates.

const (
	// groupSize is how many transactions one client keeps in flight as one
	// SubmitBatch group in the closed phases.
	groupSize = 8
	// opTimeout is how long a submitted transaction may take before it
	// counts as failed.
	opTimeout = 10 * time.Second
	// warmupTxns run in every set-up before the clock starts.
	warmupTxns = 20000
	// tpsSegments splits the closed phase into equal transaction counts;
	// tps is the median segment's rate, so a stall of the sandbox that hits
	// a few segments does not move it.
	tpsSegments = 20
)

// clientCount is C: min(nproc, 4) client goroutines.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// driver holds the load generator's state against one stack.
type driver struct {
	cfg     *runConfig
	st      *stack
	rec     *recorder
	clients int

	// expBal/expCount are, per group, the sums of the updates the program
	// acknowledged; the final state must equal them.
	expBal, expCount []atomic.Int64

	attempted, failed atomic.Int64

	mu        sync.Mutex
	problems  []string
	unaudited []readCheck
}

// readCheck is one completed read waiting for its audit.
type readCheck struct {
	t *txn
	h *core.Handle
}

func (d *driver) problem(format string, a ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.problems) < 20 {
		d.problems = append(d.problems, fmt.Sprintf(format, a...))
	}
}

// finish waits for one transaction and applies the per-operation gates. It
// reports whether the operation succeeded. A read is only queued for its
// audit: the audit walks whole tuple logs and allocates per writer, so it
// runs after the phase, outside the timed and allocation-counted window.
// Queueing the handle retains nothing the program would free: the cluster
// keeps every handle, with its read results, until it is closed.
func (d *driver) finish(t *txn, h *core.Handle) bool {
	if !h.WaitTimeout(opTimeout) {
		d.problem("%s: no completion within %v", t.spec.Label, opTimeout)
		return false
	}
	if s := h.Status(); s != core.StatusCommitted {
		d.problem("%s: status %v", t.spec.Label, s)
		return false
	}
	if t.update {
		d.expBal[t.group].Add(t.amount)
		d.expCount[t.group].Add(1)
		return true
	}
	d.mu.Lock()
	d.unaudited = append(d.unaudited, readCheck{t, h})
	d.mu.Unlock()
	return true
}

// auditQueued audits the reads a phase completed; a read that fails counts
// as a failed operation.
func (d *driver) auditQueued(counted bool) {
	d.mu.Lock()
	queue := d.unaudited
	d.unaudited = nil
	d.mu.Unlock()
	for _, rc := range queue {
		if !d.auditRead(rc.t, rc.h) && counted {
			d.failed.Add(1)
		}
	}
}

// auditRead checks one completed read. A read covering the whole group must
// pass verify.AuditAtomicVisibility; every record read must be internally
// consistent (its summaries equal what its tuple log says), which is the
// whole check for a root-local read that sees one member only.
func (d *driver) auditRead(t *txn, h *core.Handle) bool {
	reads := h.Reads()
	want := d.cfg.w.Span
	if d.cfg.w.LocalReads {
		want = 1
	}
	if len(reads) != want {
		d.problem("%s: %d read results, want %d", t.spec.Label, len(reads), want)
		return false
	}
	if !d.cfg.w.LocalReads {
		if an := verify.AuditAtomicVisibility([]verify.GroupRead{{Txn: h.ID, Results: reads}}); len(an) > 0 {
			d.problem("%s: %v", t.spec.Label, an[0])
			return false
		}
	}
	for _, r := range reads {
		log := model.NormalizeLog(r.Record.Log)
		var sum int64
		for _, tu := range log {
			sum += tu.Amount
		}
		if r.Record.Field("count") != int64(len(log)) || r.Record.Field("bal") != sum {
			d.problem("%s: node %v count=%d bal=%d but log has %d tuples summing %d",
				t.spec.Label, r.Node, r.Record.Field("count"), r.Record.Field("bal"), len(log), sum)
			return false
		}
	}
	return true
}

// closedOut is what one closed phase measured.
type closedOut struct {
	completed int64
	elapsed   time.Duration
	segTPS    []float64
	reports   []core.AdvanceReport
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	cnt0      counts
	cnt1      counts
	cpu       time.Duration
	submitNs  int64
}

func (c closedOut) tps() float64 { return median(c.segTPS) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closed runs n transactions from C clients, each keeping one SubmitBatch
// group in flight, with one Advance() per advanceEvery completions from a
// single advancer goroutine. counted=false (warm-up) leaves the operation
// counts alone.
func (d *driver) closed(n int, gens []*gen, counted bool) closedOut {
	var out closedOut
	var completed atomic.Int64
	var submitNs atomic.Int64
	segAt := make([]time.Time, tpsSegments+1)
	var segMu sync.Mutex

	advCh := make(chan struct{}, 1)
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		for range advCh {
			out.reports = append(out.reports, d.st.advance())
		}
	}()

	out.cnt0 = d.st.counts()
	runtime.ReadMemStats(&out.mem0)
	cpu0 := cpuTime()
	start := time.Now()
	segAt[0] = start

	var wg sync.WaitGroup
	for ci := 0; ci < d.clients; ci++ {
		share := n / d.clients
		if ci < n%d.clients {
			share++
		}
		wg.Add(1)
		go func(g *gen, share int) {
			defer wg.Done()
			txns := make([]*txn, 0, groupSize)
			specs := make([]*model.TxnSpec, groupSize)
			for share > 0 {
				k := groupSize
				if share < k {
					k = share
				}
				share -= k
				txns = txns[:0]
				for i := 0; i < k; i++ {
					txns = append(txns, g.next())
				}
				if counted {
					d.attempted.Add(int64(k))
				}
				t0 := time.Now()
				handles, err := d.st.submit(txns, specs)
				dur := time.Since(t0)
				submitNs.Add(int64(dur))
				if d.rec != nil && d.rec.on.Load() {
					d.rec.addSpan("core.submit_batch", t0, dur)
				}
				if err != nil {
					d.problem("submit: %v", err)
					if counted {
						d.failed.Add(int64(k))
					}
					continue
				}
				ok := 0
				for i, h := range handles {
					if d.finish(txns[i], h) {
						ok++
					} else if counted {
						d.failed.Add(1)
					}
				}
				now := completed.Add(int64(ok))
				before := now - int64(ok)
				for s := 1; s <= tpsSegments; s++ {
					if b := int64(n * s / tpsSegments); before < b && b <= now {
						segMu.Lock()
						segAt[s] = time.Now()
						segMu.Unlock()
					}
				}
				if a := int64(d.cfg.w.AdvanceEvery); now/a != before/a {
					select {
					case advCh <- struct{}{}:
					default: // an advancement is already owed
					}
				}
			}
		}(gens[ci], share)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.cpu = cpuTime() - cpu0
	close(advCh)
	<-advDone
	runtime.ReadMemStats(&out.mem1)
	out.cnt1 = d.st.counts()
	d.auditQueued(counted)
	out.completed = completed.Load()
	out.submitNs = submitNs.Load()
	for s := 1; s <= tpsSegments; s++ {
		if segAt[s].IsZero() || segAt[s-1].IsZero() {
			continue // a failed operation left the boundary uncrossed
		}
		if dt := segAt[s].Sub(segAt[s-1]).Seconds(); dt > 0 {
			out.segTPS = append(out.segTPS, float64(n/tpsSegments)/dt)
		}
	}
	return out
}

// openWindow is the slice of the open phase, by intended send time, over
// which one percentile is taken; the reported percentile is the median over
// the windows, so a stall that hits one or two of them does not move it.
const openWindow = time.Second

// openOut is what one open phase measured.
type openOut struct {
	// update and read hold, per window of intended send time, the latencies
	// from intended send to completion.
	update, read [][]time.Duration
	late         []time.Duration // actual submit minus intended send
	advance      []time.Duration // wall time of each Advance()
}

// windowed returns the median over windows of each window's q-quantile, and
// the number of samples behind it. Windows with fewer than 20 samples (the
// ragged last one) are left out.
func windowed(windows [][]time.Duration, q float64) value {
	var qs []float64
	n := 0
	for _, w := range windows {
		n += len(w)
		if len(w) >= 20 {
			qs = append(qs, quantile(msSorted(w), q))
		}
	}
	return value{median(qs), n}
}

// flat returns every sample of every window, in ms, ascending.
func flat(windows [][]time.Duration) []float64 {
	var all []time.Duration
	for _, w := range windows {
		all = append(all, w...)
	}
	return msSorted(all)
}

// open submits on a fixed schedule at rate txn/s for dur from one pacer
// goroutine while one collector drains the handles in order. Latency runs
// from the intended send time, so a stall charges the transactions queued
// behind it. A backlog still growing when the schedule ends is a failure of
// the outstanding operations, not a slow success.
func (d *driver) open(g *gen, rate int, dur time.Duration) openOut {
	var out openOut
	total := int(float64(rate) * dur.Seconds())
	interval := time.Second / time.Duration(rate)
	type item struct {
		t        *txn
		h        *core.Handle
		intended time.Time
		sentAt   time.Time
	}
	// Sized to the whole schedule: the pacer must never wait on the collector.
	items := make(chan item, total)
	var done atomic.Int64
	windows := int(dur/openWindow) + 1
	out.update, out.read = make([][]time.Duration, windows), make([][]time.Duration, windows)
	t0 := time.Now()

	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for it := range items {
			ok := d.finish(it.t, it.h)
			done.Add(1)
			if !ok {
				d.failed.Add(1)
				continue
			}
			lat := it.sentAt.Sub(it.intended) + it.h.Latency()
			win := int(it.intended.Sub(t0) / openWindow)
			if it.t.update {
				out.update[win] = append(out.update[win], lat)
			} else {
				out.read[win] = append(out.read[win], lat)
			}
		}
	}()

	stopAdv := make(chan struct{})
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		tick := time.NewTicker(d.cfg.w.OpenAdvance)
		defer tick.Stop()
		for {
			select {
			case <-stopAdv:
				return
			case <-tick.C:
				t0 := time.Now()
				if rep := d.st.advance(); rep.Err == nil {
					out.advance = append(out.advance, time.Since(t0))
				}
			}
		}
	}()

	for i := 0; i < total; i++ {
		intended := t0.Add(time.Duration(i) * interval)
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		t := g.next()
		d.attempted.Add(1)
		sentAt := time.Now()
		h, err := d.st.cluster(t.spec.Root.Node).Submit(t.spec)
		if err != nil {
			d.problem("submit: %v", err)
			d.failed.Add(1)
			continue
		}
		out.late = append(out.late, sentAt.Sub(intended))
		items <- item{t, h, intended, sentAt}
	}
	close(items)
	if n := done.Load(); float64(n) < 0.98*float64(total) {
		d.problem("open phase: backlog still growing at the end of the schedule (%d of %d completed)", n, total)
		d.failed.Add(int64(total) - n)
	}
	<-collected
	close(stopAdv)
	<-advDone
	d.auditQueued(true)
	return out
}

// setup builds a stack and warms it up; the caller owns the returned driver's
// stack. walDir is unique per set-up.
func setup(cfg *runConfig, rec *recorder, walDir string) (*driver, time.Duration, error) {
	start := time.Now()
	st, err := buildStack(cfg.w, rec, walDir)
	if err != nil {
		return nil, 0, err
	}
	d := &driver{cfg: cfg, st: st, rec: rec, clients: clientCount(),
		expBal: make([]atomic.Int64, cfg.w.Groups), expCount: make([]atomic.Int64, cfg.w.Groups)}
	warm := warmupTxns
	if cfg.smoke {
		warm = 500
	}
	if out := d.closed(warm, d.gens(streamWarmup), false); out.completed != int64(warm) {
		st.close()
		return nil, 0, fmt.Errorf("warm-up completed %d of %d: %v", out.completed, warm, d.problems)
	}
	return d, time.Since(start), nil
}

// Stream indices: every goroutine that draws transactions has its own.
const (
	streamWarmup = 0
	streamClosed = 100
	streamOpen   = 200
	streamTraced = 300
)

func (d *driver) gens(base int) []*gen {
	out := make([]*gen, d.clients)
	for i := range out {
		out[i] = newGen(d.cfg.w, d.cfg.seed, base+i)
	}
	return out
}
