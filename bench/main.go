// Command bench is the benchmark of this repository: every performance
// claim names one of its end-to-end metrics on one of its workloads.
//
//	bash bench/run.sh -workload core-mem -seed 1 -trace 0
//	bash bench/run.sh -list
//	bash bench/run.sh -compare results/setA.jsonl results/setB.jsonl
//
// It drives the program only through public functions of the internal
// packages, owns its transaction generator, and hands the program nothing
// but generated model.TxnSpecs. README.md in this directory explains the
// workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runSeconds is BENCHMARK.json's run_seconds. Counts per transaction move
// with the run length (logs grow, so a copy costs more), which makes it part
// of the benchmark, the same on both sides of a comparison.
const runSeconds = 20

// setRecord is one run as -out appends it and -compare reads it.
type setRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	resultLine
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the benchmark's transaction generator (feeds nothing else)")
	seconds := fs.Int("seconds", runSeconds, "run length; transaction counts and the open phase scale with it")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	smoke := fs.Bool("smoke", false, "tiny run (2000 transactions, 1 s open phase at 1000/s) for tests")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the tap's spans to this file as JSON lines when the run ends")
	out := fs.String("out", "", "append the run's result to this JSON-lines file (input of -compare)")
	list := fs.Bool("list", false, "print every workload and metric with unit, direction and bound, then exit")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(stderr, "unknown -workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(stderr, "-seconds must be within 1..60")
		return 2
	}
	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, traceOut: *traceOut, log: stdout}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line := report(cfg, res, stdout)
	if *out != "" {
		if err := appendRecord(*out, setRecord{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace, resultLine: line}); err != nil {
			fmt.Fprintf(stderr, "bench: -out: %v\n", err)
			return 1
		}
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// declared returns the metric set a run of this kind must emit.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// report prints one line per metric (name, unit, value, samples), any
// problems, and last the single JSON result line.
func report(cfg *runConfig, res *outcome, stdout io.Writer) resultLine {
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, def := range declared(cfg.trace) {
		v, ok := res.metrics[def.Name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			res.problems = append(res.problems, "metric "+def.Name+" was not measured")
			v = value{}
		}
		fmt.Fprintf(stdout, "%-38s %-6s %14.4f  n=%d\n", def.Name, def.Unit, v.v, v.n)
		line.Metrics[def.Name] = jsonMetric{Value: v.v, Unit: def.Unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "PROBLEM: %s\n", p)
	}
	line.Correct = len(res.problems) == 0 && res.failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only floats, strings and ints: cannot fail
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return line
}

func appendRecord(path string, rec setRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s %s\n", wl.Name, wl.Why)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\n", d.Name, d.Unit, d.Better)
	}
}
