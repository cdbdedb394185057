// Command threev-bench runs the reproduction's experiment suite E1–E13
// (see DESIGN.md §4) and prints the result tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	threev-bench [-txns N] [-only E5,E9] [-json FILE]
//
// -txns scales every experiment's transaction count; -only restricts
// the run to a comma-separated list of experiment ids. -json writes a
// machine-readable report ("-" = stdout) with each experiment's
// pass/fail.
//
// What the implementation costs is measured by the repo's benchmark,
// not here: bash bench/run.sh -workload W (bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// report is the -json output shape.
type report struct {
	Txns        int         `json:"txns"`
	Experiments []expResult `json:"experiments"`
	Failures    int         `json:"failures"`
	ElapsedMS   int64       `json:"elapsed_ms"`
}

type expResult struct {
	ID    string `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func main() {
	txns := flag.Int("txns", experiments.DefaultScale.Txns, "base transaction count per experiment run")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E3,E9); empty = all")
	jsonOut := flag.String("json", "", "write a JSON report of each experiment's pass/fail to this file (\"-\" = stdout)")
	flag.Parse()

	sc := experiments.Scale{Txns: *txns}
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			selected[id] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	failures := 0
	var results []expResult
	start := time.Now()

	if want("E1") || want("E2") {
		fmt.Println("== E1/E2: Table 1 + Figure 2 replay ==")
		res, err := experiments.E1Table1()
		r := expResult{ID: "E1", OK: true}
		if err != nil {
			fmt.Fprintln(os.Stderr, "E1 error:", err)
			failures++
			r.OK, r.Error = false, err.Error()
		} else {
			fmt.Print(res.String())
			if !res.OK() {
				failures++
				r.OK, r.Error = false, "replay checks failed"
			}
		}
		results = append(results, r)
		fmt.Println()
	}

	type exp struct {
		id  string
		run func(experiments.Scale) (*harness.Table, error)
	}
	for _, e := range []exp{
		{"E3", experiments.E3AnomalyRate},
		{"E4", experiments.E4VersionBound},
		{"E5", experiments.E5AdvancementInterference},
		{"E6", experiments.E6NonCommutingFraction},
		{"E7", experiments.E7QuiescenceDetection},
		{"E8", experiments.E8CopyOverhead},
		{"E9", experiments.E9ThroughputScaling},
		{"E10", experiments.E10Compensation},
		{"E11", experiments.E11Staleness},
		{"E12", experiments.E12DualWriteOverhead},
		{"E13", experiments.E13RecoveryCost},
	} {
		if !want(e.id) {
			continue
		}
		tbl, err := e.run(sc)
		if tbl != nil {
			fmt.Println(tbl.String())
		}
		r := expResult{ID: e.id, OK: true}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			failures++
			r.OK, r.Error = false, err.Error()
		}
		results = append(results, r)
	}

	fmt.Printf("suite completed in %v; %d failures\n", time.Since(start).Round(time.Millisecond), failures)

	if *jsonOut != "" {
		rep := report{
			Txns:        *txns,
			Experiments: results,
			Failures:    failures,
			ElapsedMS:   time.Since(start).Milliseconds(),
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "json encode:", err)
			failures++
		} else {
			buf = append(buf, '\n')
			if *jsonOut == "-" {
				os.Stdout.Write(buf)
			} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "json write:", err)
				failures++
			}
		}
	}

	if failures > 0 {
		os.Exit(1)
	}
}
