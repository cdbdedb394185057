package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesList renders BENCHMARK.json in the format of -list and
// requires the two to be byte-identical, then checks the contract's limits.
func TestManifestMatchesList(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}

	var fromManifest strings.Builder
	for _, w := range m.Workloads {
		fromManifest.WriteString("workload " + w.Name + " " + w.Why + "\n")
	}
	for _, d := range m.EndToEnd {
		fromManifest.WriteString("end_to_end " + d.Name + " " + d.Unit + " " + d.Better + " " + trimFloat(d.Bound) + "\n")
	}
	for _, d := range m.PerLayer {
		fromManifest.WriteString("per_layer " + d.Name + " " + d.Unit + " " + d.Better + "\n")
	}
	var list bytes.Buffer
	if code := realMain([]string{"-list"}, &list, &list); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if got, want := fromManifest.String(), list.String(); got != want {
		t.Errorf("BENCHMARK.json and -list disagree.\nmanifest:\n%s\n-list:\n%s", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %g of %s is outside (0, 0.25]", d.Bound, d.Name)
		}
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != lower) {
			t.Errorf("setup_s must have unit s and better lower")
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's runSeconds is %d", m.RunSeconds, runSeconds)
	}
	if want := "bash bench/run.sh"; strings.Join(m.Command, " ") != want {
		t.Errorf("command = %v, want %s", m.Command, want)
	}
}

func trimFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// TestSeedDeterminism: the same seed yields a byte-identical spec stream, a
// different seed (or another stream of the same seed) a different one.
func TestSeedDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := streamHash(w, 7, streamClosed, 2000), streamHash(w, 7, streamClosed, 2000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", w.Name)
		}
		if c := streamHash(w, 8, streamClosed, 2000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
		if c := streamHash(w, 7, streamClosed+1, 2000); c == a {
			t.Errorf("%s: two clients of one seed drew the same stream", w.Name)
		}
	}
}

// TestSmokeEmitsEveryMetric runs each workload small, untraced and traced,
// and requires a correct result carrying exactly the declared metrics.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "-smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s exited %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := declared(trace == "1")
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, def := range want {
				got, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: %s is missing", w.Name, trace, def.Name)
				case got.Unit != def.Unit:
					t.Errorf("%s trace=%s: %s has unit %q, declared %q", w.Name, trace, def.Name, got.Unit, def.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, must never be 0", w.Name, def.Name, got.Value)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0], n=4)
	// [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31.0) > 1e-12 {
		t.Errorf("quartiles = %g, %g; Python gives 3.5, 31.0", q1, q3)
	}
}

// TestCompareRefusesOtherRunLength: counts per transaction move with the run
// length, so -compare must not set a 5 s set against a 20 s one.
func TestCompareRefusesOtherRunLength(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{dir + "/a.jsonl", dir + "/b.jsonl"}
	for i, seconds := range []int{20, 5} {
		rec := setRecord{Workload: "core-mem", Seed: 1, Seconds: seconds, resultLine: resultLine{Correct: true, Attempted: 1}}
		if err := appendRecord(paths[i], rec); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := compareSets(paths[0], paths[1], &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "of 5 s") {
		t.Errorf("exit code %d, stderr %q; want 2 and the two run lengths", code, stderr.String())
	}
	if err := appendRecord(paths[0], setRecord{Workload: "core-mem", Seed: 2, Seconds: 5, resultLine: resultLine{Correct: true, Attempted: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSet(paths[0]); err == nil {
		t.Error("a set mixing 20 s and 5 s runs was accepted")
	}
}

// TestCompareVerdicts feeds -compare three metrics: one steady, one worse by
// more than its bound, one too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	mk := func(tps, p50, allocs []float64) map[string]map[string][]float64 {
		set := map[string]map[string][]float64{}
		for _, w := range workloads {
			set[w.Name] = map[string][]float64{}
			for _, d := range endToEnd {
				set[w.Name][d.Name] = []float64{1, 1, 1, 1}
			}
			set[w.Name]["tps"], set[w.Name]["update_p50_ms"], set[w.Name]["allocs_per_txn"] = tps, p50, allocs
		}
		return set
	}
	a := mk([]float64{100, 101, 99, 100}, []float64{1, 1.01, 0.99, 1}, []float64{60, 60, 60, 60})
	b := mk([]float64{80, 81, 79, 80}, []float64{1, 1.5, 0.5, 1}, []float64{60.5, 60.5, 60.5, 60.5})
	var out bytes.Buffer
	if code := printComparison(a, b, &out); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	for _, want := range []string{"tps", "worse", "update_p50_ms", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	rows := strings.Split(out.String(), "\n")
	for _, r := range rows {
		if strings.Contains(r, "allocs_per_txn") && !strings.Contains(r, " ok ") {
			t.Errorf("allocs_per_txn moved 0.8%% under its bound, want ok: %s", r)
		}
	}
}
