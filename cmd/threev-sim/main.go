// Command threev-sim runs a live database under a configurable data
// recording load and prints its metrics — a playground for exploring
// node counts, network shapes, advancement cadence and transaction
// mixes, and for head-to-head runs against the baseline schemes.
//
// Usage:
//
//	threev-sim [-system 3v|nocoord|2pc|manual|syncadv]
//	           [-nodes 4] [-partitions 1] [-txns 2000] [-read 0.2] [-nc 0] [-abort 0]
//	           [-latency 0] [-jitter 500us] [-advance 5ms] [-conc 8]
//	           [-seed 1] [-batch 8] [-metrics :8080] [-hold 30s]
//	           [-pprof :6060] [-cpuprofile FILE] [-memprofile FILE]
//
// With -metrics ADDR (3v only) the process serves the observability
// snapshot over HTTP while the workload runs: Prometheus text at
// /metrics, JSON at /metrics.json, the event log at /events.json, and —
// with -trace-sample N — assembled causal traces at /traces.json.
// After the run it keeps serving for -hold (0 = until interrupted).
//
// The exit status is nonzero if the run observed an atomic-visibility
// anomaly (expected for -system nocoord, and for -system manual with a
// short enough stabilization delay) or a protocol violation.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/baseline"
	"repro/internal/baseline/globalsync"
	"repro/internal/baseline/manualver"
	"repro/internal/baseline/nocoord"
	"repro/internal/baseline/syncadv"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/transport"
	"repro/internal/verify"
	"repro/internal/workload"
)

func main() {
	system := flag.String("system", "3v", "scheme to run: 3v, nocoord, 2pc, manual, syncadv")
	nodes := flag.Int("nodes", 4, "database nodes")
	txns := flag.Int("txns", 2000, "transactions to run")
	readFrac := flag.Float64("read", 0.2, "read fraction")
	ncFrac := flag.Float64("nc", 0, "non-commuting fraction of updates (enables NC3V when > 0)")
	abortFrac := flag.Float64("abort", 0, "abort (compensation) fraction of updates")
	latency := flag.Duration("latency", 0, "base one-way message latency")
	jitter := flag.Duration("jitter", 500*time.Microsecond, "message jitter (enables reordering)")
	advance := flag.Duration("advance", 5*time.Millisecond, "version advancement period (0 = manual only)")
	conc := flag.Int("conc", 8, "in-flight transactions")
	seed := flag.Int64("seed", 1, "workload seed")
	metricsAddr := flag.String("metrics", "", "serve metrics over HTTP on this address, e.g. :8080 (3v only)")
	hold := flag.Duration("hold", 0, "with -metrics: keep serving this long after the run (0 = until interrupted)")
	chaos := flag.Bool("chaos", false, "chaos mode (3v only): inject faults while the load runs, heal, then require full convergence")
	drop := flag.Float64("drop", 0.01, "with -chaos: per-message drop probability")
	dup := flag.Float64("dupmsg", 0.01, "with -chaos: per-message duplication probability")
	partAt := flag.Duration("partition-at", 200*time.Millisecond, "with -chaos: inject a two-way partition this long into the run")
	partFor := flag.Duration("partition-for", 300*time.Millisecond, "with -chaos: heal the partition after this long (0 = no partition)")
	reliable := flag.Bool("reliable", true, "with -chaos: interpose the reliable-delivery session layer")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1 in N transactions for causal tracing, served at /traces.json (3v only; 0 = off)")
	batch := flag.Int("batch", 0, "3v only: enable the batched hot path (link coalescing, chunked admission, batched counter sweeps) and group N submissions per launch (0 = off)")
	partitions := flag.Int("partitions", 1, "3v only: split the keyspace into P partitions, each with its own independently-advancing version pair")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, perr := prof.Start()
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	defer stopProf()

	netCfg := transport.Config{
		BaseLatency: *latency,
		Jitter:      *jitter,
		Seed:        *seed,
	}
	var (
		sys     baseline.System
		cluster *core.Cluster // non-nil only for 3v
		preload func(model.NodeID, string, *model.Record)
		err     error
	)
	if *chaos && *system != "3v" {
		fmt.Fprintln(os.Stderr, "-chaos requires -system 3v")
		os.Exit(1)
	}
	if *batch > 0 && *system != "3v" {
		fmt.Fprintln(os.Stderr, "-batch requires -system 3v")
		os.Exit(1)
	}
	if *batch > 0 && *ncFrac > 0 {
		fmt.Fprintln(os.Stderr, "-batch cannot be combined with -nc (chunked admission bypasses the NC3V lock path)")
		os.Exit(1)
	}
	if *partitions > 1 && *system != "3v" {
		fmt.Fprintln(os.Stderr, "-partitions requires -system 3v")
		os.Exit(1)
	}
	if *partitions > 1 && *ncFrac > 0 {
		fmt.Fprintln(os.Stderr, "-partitions cannot be combined with -nc (NC3V assumes a single global epoch)")
		os.Exit(1)
	}
	switch *system {
	case "3v":
		ccfg := core.Config{
			Nodes:      *nodes,
			NCMode:     *ncFrac > 0,
			Partitions: *partitions,
			LockWait:   time.Second,
			NetConfig:  netCfg,
			Obs:        obs.Options{TraceSampleN: *traceSample},
		}
		if *chaos {
			ccfg.Reliable = *reliable
			ccfg.ResendInterval = 5 * time.Millisecond
			ccfg.AckTimeout = 30 * time.Second
		}
		if *batch > 0 {
			ccfg.NetConfig.BatchWindow = 50 * time.Microsecond
			ccfg.ExecChunk = 64
			ccfg.BatchedCounters = true
		}
		cluster, err = core.NewCluster(ccfg)
		if err == nil {
			cluster.Start()
			sys = baseline.ThreeV{Cluster: cluster}
			preload = func(n model.NodeID, k string, rec *model.Record) { cluster.Preload(n, k, rec) }
		}
	case "nocoord":
		var s *nocoord.System
		s, err = nocoord.New(nocoord.Config{Nodes: *nodes, NetConfig: netCfg})
		if err == nil {
			sys = s
			preload = func(n model.NodeID, k string, rec *model.Record) { s.Preload(n, k, rec) }
		}
	case "2pc":
		var s *globalsync.System
		s, err = globalsync.New(globalsync.Config{Nodes: *nodes, LockWait: 5 * time.Second, NetConfig: netCfg})
		if err == nil {
			sys = s
			preload = func(n model.NodeID, k string, rec *model.Record) { s.Preload(n, k, rec) }
		}
	case "manual":
		var s *manualver.System
		s, err = manualver.New(manualver.Config{Nodes: *nodes, StabilizationDelay: *advance / 2, NetConfig: netCfg})
		if err == nil {
			sys = s
			preload = func(n model.NodeID, k string, rec *model.Record) { s.Preload(n, k, rec) }
		}
	case "syncadv":
		var s *syncadv.System
		s, err = syncadv.New(syncadv.Config{Nodes: *nodes, NetConfig: netCfg})
		if err == nil {
			sys = s
			preload = func(n model.NodeID, k string, rec *model.Record) { s.Preload(n, k, rec) }
		}
	default:
		err = fmt.Errorf("unknown -system %q", *system)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sys.Close()
	if *ncFrac > 0 && *system != "3v" {
		fmt.Fprintln(os.Stderr, "-nc requires -system 3v (NC3V)")
		os.Exit(1)
	}

	serving := false
	if *metricsAddr != "" {
		if cluster == nil {
			fmt.Fprintln(os.Stderr, "-metrics requires -system 3v")
			os.Exit(1)
		}
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, lerr)
			os.Exit(1)
		}
		go func() {
			if serr := http.Serve(ln, obs.Handler(cluster)); serr != nil {
				fmt.Fprintln(os.Stderr, serr)
			}
		}()
		serving = true
		fmt.Printf("metrics: http://%s/metrics (also /metrics.json, /events.json, /traces.json)\n", ln.Addr())
	}

	gen := workload.New(workload.Config{
		Nodes:                *nodes,
		Groups:               256,
		Span:                 2,
		ReadFraction:         *readFrac,
		NonCommutingFraction: *ncFrac,
		AbortFraction:        *abortFrac,
		Seed:                 *seed,
	})

	fmt.Printf("%s simulation: %d nodes, %d txns, read=%.0f%% nc=%.0f%% abort=%.0f%%, latency=%v jitter=%v, advance every %v\n",
		sys.Name(), *nodes, *txns, *readFrac*100, *ncFrac*100, *abortFrac*100, *latency, *jitter, *advance)
	if *partitions > 1 {
		fmt.Printf("partitioned: %d partitions, placement map v%d\n", *partitions, cluster.PlacementMap().Version)
	}

	var cc *harness.Chaos
	if *chaos {
		fi, ok := cluster.Network().(transport.FaultInjector)
		if !ok {
			fmt.Fprintln(os.Stderr, "-chaos: network does not support fault injection")
			os.Exit(1)
		}
		fmt.Printf("chaos: drop=%.1f%% dup=%.1f%% partition 0<->%d at %v for %v, reliable=%v\n",
			*drop*100, *dup*100, *nodes-1, *partAt, *partFor, *reliable)
		cc = harness.StartChaos(fi, harness.ChaosConfig{
			DropRate:     *drop,
			DupRate:      *dup,
			PartitionAt:  *partAt,
			PartitionFor: *partFor,
			PartitionA:   0,
			PartitionB:   model.NodeID(*nodes - 1),
		})
	}

	res := harness.Run(sys, harness.RunConfig{
		Txns:            *txns,
		Concurrency:     *conc,
		Batch:           *batch,
		AdvanceInterval: *advance,
		FinalAdvance:    !*chaos, // chaos: heal first, then advance below
		Gen:             gen,
		Preload: func(n model.NodeID, k string) {
			rec := model.NewRecord()
			rec.Fields["bal"] = 0
			rec.Fields["count"] = 0
			preload(n, k, rec)
		},
	})

	var convErrs []string
	chaosOK := true
	if *chaos {
		cc.Stop() // heal everything; retransmissions repair the backlog
		sys.Advance()
		sys.Advance()
		convErrs = cluster.ConvergenceErrors()
		ts := cluster.Metrics().Transport
		fmt.Printf("chaos outcome: dropped=%d partition-dropped=%d duplicated=%d retransmits=%d dup-frames-discarded=%d partitions=%d\n",
			ts.Dropped, ts.PartitionDrops, ts.Duplicated, ts.Retransmits, ts.DupDropped, cc.Partitions())
		for _, e := range convErrs {
			fmt.Printf("convergence FAILED: %s\n", e)
		}
		if res.TimedOut > 0 {
			fmt.Printf("chaos FAILED: %d transaction(s) timed out\n", res.TimedOut)
		}
		faultsSeen := (*drop == 0 || ts.Dropped > 0) && (*dup == 0 || ts.Duplicated > 0)
		if !faultsSeen {
			fmt.Println("chaos FAILED: fault rates set but no faults observed — the run proved nothing")
		}
		chaosOK = len(convErrs) == 0 && res.TimedOut == 0 && faultsSeen
		if chaosOK {
			fmt.Println("chaos PASS: all transactions completed and the cluster converged after heal")
		}
	}

	tbl := &harness.Table{Title: "results", Header: []string{"metric", "value"}}
	tbl.Add("completed", fmt.Sprint(res.Completed))
	tbl.Add("timed out", fmt.Sprint(res.TimedOut))
	tbl.Add("updates / reads / nc", fmt.Sprintf("%d / %d / %d", res.Updates, res.Reads, res.NCs))
	tbl.Add("throughput (txn/s)", harness.F2(res.Throughput()))
	tbl.Add("latency p50/p99/max (ms)", fmt.Sprintf("%s / %s / %s",
		harness.Ms(res.LatAll.Quantile(0.5)), harness.Ms(res.LatAll.Quantile(0.99)), harness.Ms(res.LatAll.Max())))
	tbl.Add("advancements", fmt.Sprint(res.Advances))
	if *batch > 0 && cluster != nil {
		tbl.Add("mean net batch size", harness.F2(cluster.Metrics().Obs.Gauges[obs.GaugeNetBatchMeanSize]))
	}
	tbl.Add("read staleness mean/max (updates)", fmt.Sprintf("%s / %d", harness.F2(res.StalenessMean), res.StalenessMax))
	tbl.Add("anomalies (atomic visibility)", fmt.Sprint(res.Anomalies))
	fmt.Println(tbl.String())

	structuralOK := true
	partitionsOK := true
	if cluster != nil {
		rep := verify.CheckStructural(cluster)
		fmt.Println(rep.String())
		structuralOK = rep.OK()

		if cluster.Partitions() > 1 {
			pt := &harness.Table{Title: "partitions", Header: []string{"part", "vr", "vu", "max lag"}}
			for _, st := range cluster.PartitionStates() {
				pt.Add(fmt.Sprint(st.Part), fmt.Sprint(st.VR), fmt.Sprint(st.VU), fmt.Sprint(st.MaxLag))
			}
			fmt.Println(pt.String())
			prep := verify.CheckPartitions(cluster)
			fmt.Println(prep.String())
			partitionsOK = prep.OK()
		}

		m := cluster.Metrics()
		var dual, comp, impl int64
		for _, nm := range m.PerNode {
			dual += nm.DualWrites
			comp += nm.Compensations
			impl += nm.ImplicitAdvances
		}
		fmt.Printf("protocol events: dual-writes=%d compensations=%d implicit-advances=%d messages=%d\n",
			dual, comp, impl, m.Transport.Messages)

		if s := m.Obs; s.TxnRead.Count+s.TxnUpdate.Count > 0 {
			ot := &harness.Table{Title: "observability", Header: []string{"metric", "p50 / p95 / p99 / max"}}
			ot.Add("read txn latency", quantileRow(s.TxnRead))
			ot.Add("update txn latency", quantileRow(s.TxnUpdate))
			ot.Add("subtxn hop latency", quantileRow(s.SubtxnHop))
			ot.Add("subtxn exec time", quantileRow(s.SubtxnExec))
			for i, ph := range s.AdvPhases {
				ot.Add(fmt.Sprintf("advance phase %d", i+1), quantileRow(ph))
			}
			ot.Add("advance total", quantileRow(s.AdvTotal))
			fmt.Println(ot.String())
			fmt.Printf("obs counters:")
			for _, k := range []string{"txns_submitted", "txns_committed", "txns_compensated", "txns_aborted", "advancements", "dual_writes"} {
				fmt.Printf(" %s=%d", k, s.Counters[k])
			}
			fmt.Printf(" events_recorded=%d\n", s.EventsRecorded)
		}

		if *traceSample > 0 {
			trs := cluster.ObsTraces()
			complete := 0
			for _, tr := range trs {
				if tr.Complete {
					complete++
				}
			}
			fmt.Printf("traces: %d in ring, %d complete (newest %d spans)\n",
				len(trs), complete, func() int {
					if len(trs) > 0 {
						return trs[0].Spans
					}
					return 0
				}())
		}
	}

	if serving {
		if *hold > 0 {
			fmt.Printf("holding %v for scrapes...\n", *hold)
			time.Sleep(*hold)
		} else {
			fmt.Println("serving metrics until interrupted (ctrl-c)...")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
		}
	}

	if res.Anomalies > 0 || !structuralOK || !chaosOK || !partitionsOK {
		stopProf() // os.Exit skips the deferred finalizer
		os.Exit(1)
	}
}

// quantileRow renders a histogram snapshot's headline quantiles in
// milliseconds.
func quantileRow(s obs.HistSnapshot) string {
	if s.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%s / %s / %s / %s",
		harness.Ms(time.Duration(s.P50())), harness.Ms(time.Duration(s.Quantile(0.95))),
		harness.Ms(time.Duration(s.P99())), harness.Ms(time.Duration(s.Max)))
}
