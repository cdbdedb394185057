package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of sorted (ascending) by nearest rank;
// 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer absent from a workload reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is an obs histogram as bucket upper edge -> count, so snapshots of
// several clusters can be summed and a phase read as a delta.
type hist map[int64]int64

func histOf(s obs.HistSnapshot) hist {
	h := make(hist, len(s.Buckets))
	for _, b := range s.Buckets {
		h[b.Upper] = b.Count
	}
	return h
}

// plus returns h + sign·o.
func (h hist) plus(o hist, sign int64) hist {
	out := make(hist, len(h)+len(o))
	for k, v := range h {
		out[k] = v
	}
	for k, v := range o {
		out[k] += sign * v
	}
	return out
}

// quantile rebuilds a snapshot and uses the program's own interpolation.
func (h hist) quantile(q float64) (value int64, samples int64) {
	var s obs.HistSnapshot
	for upper, n := range h {
		if n <= 0 {
			continue
		}
		s.Buckets = append(s.Buckets, obs.Bucket{Upper: upper, Count: n})
		s.Count += n
		if upper > s.Max {
			s.Max = upper
		}
	}
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].Upper < s.Buckets[j].Upper })
	return s.Quantile(q), s.Count
}
