package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the driver's rule). Needs at
// least two values.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// readSet returns, per workload and metric, the values of a set's clean
// untraced runs, and the run length they share.
func readSet(path string) (set map[string]map[string][]float64, seconds int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	set = map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec setRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 || !rec.Correct {
			continue // only clean untraced runs carry end-to-end metrics
		}
		if seconds == 0 {
			seconds = rec.Seconds
		}
		if rec.Seconds != seconds {
			return nil, 0, fmt.Errorf("%s: runs of %d s and of %d s in one set", path, seconds, rec.Seconds)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], mv.Value)
		}
	}
	return set, seconds, sc.Err()
}

// compareSets prints, per workload and end-to-end metric, both medians, how
// much worse B is than A, both spreads, the bound and a verdict: unresolved
// when a spread is wider than the bound, worse when B's median is worse than
// A's by more than the bound, else ok. Exit code 1 unless every row is ok.
// Sets taken at different run lengths are refused: the counts per
// transaction depend on it.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]map[string]map[string][]float64
	var seconds [2]int
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], seconds[i], err = readSet(path); err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
	}
	if seconds[0] != seconds[1] {
		fmt.Fprintf(stderr, "bench: -compare: %s holds runs of %d s, %s of %d s\n", pathA, seconds[0], pathB, seconds[1])
		return 2
	}
	return printComparison(sets[0], sets[1], stdout)
}

func printComparison(a, b map[string]map[string][]float64, stdout io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-12s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse%", "iqr A%", "iqr B%", "bound%", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a[w.Name][def.Name], b[w.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-12s %-18s missing from a set\n", w.Name, def.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if def.Better == higher {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > def.Bound || sb > def.Bound:
				verdict = "unresolved"
				bad++
			case worse > def.Bound:
				verdict = "worse"
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %12.4f %12.4f %+8.2f %8.2f %8.2f %6.1f  %s (n=%d,%d)\n",
				w.Name, def.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*def.Bound, verdict, len(va), len(vb))
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
