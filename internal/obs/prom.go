package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// secs converts a nanosecond value to seconds for exposition.
func secs(ns int64) float64 { return float64(ns) / 1e9 }

// writeSummary emits one Prometheus summary (quantiles + _sum/_count)
// from a histogram snapshot of nanosecond values.
func writeSummary(w io.Writer, name, labels string, s HistSnapshot) {
	prefix := name + "{"
	if labels != "" {
		prefix += labels + ","
	}
	for _, q := range []struct {
		q string
		v int64
	}{{"0.5", s.P50()}, {"0.95", s.P95()}, {"0.99", s.P99()}, {"1", s.Max}} {
		fmt.Fprintf(w, "%squantile=%q} %g\n", prefix, q.q, secs(q.v))
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, secs(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4), stdlib only.
func WritePrometheus(w io.Writer, s Snapshot) {
	fmt.Fprintln(w, "# HELP threev_txn_latency_seconds End-to-end transaction latency by kind.")
	fmt.Fprintln(w, "# TYPE threev_txn_latency_seconds summary")
	writeSummary(w, "threev_txn_latency_seconds", `kind="read"`, s.TxnRead)
	writeSummary(w, "threev_txn_latency_seconds", `kind="update"`, s.TxnUpdate)

	fmt.Fprintln(w, "# HELP threev_subtxn_hop_seconds Per-hop subtransaction RPC latency (send to execution start).")
	fmt.Fprintln(w, "# TYPE threev_subtxn_hop_seconds summary")
	writeSummary(w, "threev_subtxn_hop_seconds", "", s.SubtxnHop)

	fmt.Fprintln(w, "# HELP threev_subtxn_exec_seconds Subtransaction local service time.")
	fmt.Fprintln(w, "# TYPE threev_subtxn_exec_seconds summary")
	writeSummary(w, "threev_subtxn_exec_seconds", "", s.SubtxnExec)

	fmt.Fprintln(w, "# HELP threev_advance_phase_seconds Version-advancement phase wall time (phases 1-4 of Section 4.3).")
	fmt.Fprintln(w, "# TYPE threev_advance_phase_seconds summary")
	for i, p := range s.AdvPhases {
		writeSummary(w, "threev_advance_phase_seconds", fmt.Sprintf(`phase="%d"`, i+1), p)
	}

	fmt.Fprintln(w, "# HELP threev_advance_total_seconds Full advancement cycle wall time.")
	fmt.Fprintln(w, "# TYPE threev_advance_total_seconds summary")
	writeSummary(w, "threev_advance_total_seconds", "", s.AdvTotal)

	fmt.Fprintln(w, "# HELP threev_advance_sweeps Counter sweeps needed per advancement cycle.")
	fmt.Fprintln(w, "# TYPE threev_advance_sweeps summary")
	for _, q := range []struct {
		q string
		v int64
	}{{"0.5", s.AdvSweeps.P50()}, {"0.99", s.AdvSweeps.P99()}, {"1", s.AdvSweeps.Max}} {
		fmt.Fprintf(w, "threev_advance_sweeps{quantile=%q} %d\n", q.q, q.v)
	}
	fmt.Fprintf(w, "threev_advance_sweeps_sum %d\n", s.AdvSweeps.Sum)
	fmt.Fprintf(w, "threev_advance_sweeps_count %d\n", s.AdvSweeps.Count)

	fmt.Fprintln(w, "# HELP threev_wire_encode_seconds Binary frame encode latency (tcpnet sender path).")
	fmt.Fprintln(w, "# TYPE threev_wire_encode_seconds summary")
	writeSummary(w, "threev_wire_encode_seconds", "", s.WireEncode)

	fmt.Fprintln(w, "# HELP threev_wire_decode_seconds Binary frame decode latency (tcpnet receiver path).")
	fmt.Fprintln(w, "# TYPE threev_wire_decode_seconds summary")
	writeSummary(w, "threev_wire_decode_seconds", "", s.WireDecode)

	fmt.Fprintln(w, "# HELP threev_wal_append_seconds WAL record append latency (frame + buffered write).")
	fmt.Fprintln(w, "# TYPE threev_wal_append_seconds summary")
	writeSummary(w, "threev_wal_append_seconds", "", s.WALAppend)

	fmt.Fprintln(w, "# HELP threev_wal_fsync_seconds WAL fsync (group-commit flush) latency.")
	fmt.Fprintln(w, "# TYPE threev_wal_fsync_seconds summary")
	writeSummary(w, "threev_wal_fsync_seconds", "", s.WALFsync)

	fmt.Fprintln(w, "# HELP threev_events_total Protocol events by kind.")
	fmt.Fprintln(w, "# TYPE threev_events_total counter")
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "threev_events_total{event=%q} %d\n", k, s.Counters[k])
	}

	gnames := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		gnames = append(gnames, k)
	}
	sort.Strings(gnames)
	wrotePartVer := false
	for _, k := range gnames {
		// Per-partition version gauges collapse into one labeled metric.
		var part int
		if n, err := fmt.Sscanf(k, "partition_version_p%d", &part); err == nil && n == 1 {
			if !wrotePartVer {
				fmt.Fprintln(w, "# TYPE threev_partition_version gauge")
				wrotePartVer = true
			}
			fmt.Fprintf(w, "threev_partition_version{part=\"%d\"} %g\n", part, s.Gauges[k])
			continue
		}
		fmt.Fprintf(w, "# TYPE threev_%s gauge\n", k)
		fmt.Fprintf(w, "threev_%s %g\n", k, s.Gauges[k])
	}

	fmt.Fprintln(w, "# HELP threev_counter_lag Live R[v][p][q]-C[v][p][q] lag per (partition, version) (0 = quiescent).")
	fmt.Fprintln(w, "# TYPE threev_counter_lag gauge")
	for _, l := range s.CounterLags {
		fmt.Fprintf(w, "threev_counter_lag{part=\"%d\",version=\"%d\",stat=\"sum\"} %d\n", l.Part, l.Version, l.SumLag)
		fmt.Fprintf(w, "threev_counter_lag{part=\"%d\",version=\"%d\",stat=\"max_pair\"} %d\n", l.Part, l.Version, l.MaxPairLag)
	}

	fmt.Fprintln(w, "# HELP threev_eventlog_recorded_total Events recorded into the ring buffer.")
	fmt.Fprintln(w, "# TYPE threev_eventlog_recorded_total counter")
	fmt.Fprintf(w, "threev_eventlog_recorded_total %d\n", s.EventsRecorded)

	fmt.Fprintln(w, "# HELP threev_txn_stage_seconds Per-stage latency attribution for head-sampled root transactions (wire+queue+service+ack = total; fsync ⊂ service, session ⊂ wire).")
	fmt.Fprintln(w, "# TYPE threev_txn_stage_seconds summary")
	for i, name := range StageNames {
		writeSummary(w, "threev_txn_stage_seconds", fmt.Sprintf("stage=%q", name), s.Stages[i])
	}

	fmt.Fprintln(w, "# HELP threev_trace_spans_recorded_total Trace spans recorded into the span ring.")
	fmt.Fprintln(w, "# TYPE threev_trace_spans_recorded_total counter")
	fmt.Fprintf(w, "threev_trace_spans_recorded_total %d\n", s.SpansRecorded)
}

// Source supplies the exposition endpoint with live data.
type Source interface {
	ObsSnapshot() Snapshot
	ObsEvents() []Event
}

// TraceSource is optionally implemented by a Source that can assemble
// traces; when it is, Handler also serves /traces.json.
type TraceSource interface {
	ObsTraces() []Trace
}

// Handler serves the observability endpoints from src:
//
//	/metrics       Prometheus text format
//	/metrics.json  the Snapshot as JSON
//	/events.json   the event-log dump as JSON
//	/traces.json   assembled trace trees (when src implements
//	               TraceSource); ?slow=<dur> keeps only traces at least
//	               that long, e.g. /traces.json?slow=5ms
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src.ObsSnapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(src.ObsSnapshot())
	})
	mux.HandleFunc("/events.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(src.ObsEvents())
	})
	if ts, ok := src.(TraceSource); ok {
		mux.HandleFunc("/traces.json", func(w http.ResponseWriter, r *http.Request) {
			traces := ts.ObsTraces()
			if arg := r.URL.Query().Get("slow"); arg != "" {
				min, err := time.ParseDuration(arg)
				if err != nil {
					http.Error(w, "bad slow duration: "+err.Error(), http.StatusBadRequest)
					return
				}
				kept := traces[:0]
				for _, t := range traces {
					if t.DurNS >= int64(min) {
						kept = append(kept, t)
					}
				}
				traces = kept
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(traces)
		})
	}
	return mux
}
