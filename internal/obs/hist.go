// Package obs is the protocol observability layer: lock-free latency
// histograms, advancement phase timers, counter-lag gauges, a bounded
// structured event log, and Prometheus/JSON exposition — all stdlib
// only, and cheap enough to stay enabled on the hot path (atomic bucket
// increments; the event log samples transaction-level events).
//
// Everything is nil-safe: a nil *Registry (observability disabled)
// accepts every recording call as a no-op, so instrumented code never
// branches on configuration.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets are log-spaced with subBuckets linear buckets per
// octave (power of two), giving ≤ 6.25% relative bucket width; with the
// within-bucket interpolation in Quantile, nearby distinct latencies
// report distinct quantiles instead of collapsing to shared bucket
// edges (the "every p50 is exactly 2.621 ms" artifact). Values
// are int64 — nanoseconds for latencies, plain counts for e.g.
// quiescence sweeps.
const (
	subBuckets = 8
	numBuckets = 64 * subBuckets
)

// bucketIndex maps a value to its bucket using integer math only
// (deterministic, no floating point on the hot path). Values below 1
// land in bucket 0.
func bucketIndex(v int64) int {
	if v < 2 {
		return 0
	}
	o := bits.Len64(uint64(v)) - 1 // floor(log2 v) ≥ 1
	if o < 3 {
		return o * subBuckets // octave too narrow to subdivide
	}
	low := int64(1) << o
	sub := int((v - low) >> (o - 3)) // 0..7
	return o*subBuckets + sub
}

// bucketUpper returns the largest value that maps to bucket i.
func bucketUpper(i int) int64 {
	o := i / subBuckets
	sub := i % subBuckets
	low := int64(1) << o
	if o < 3 {
		return int64(1)<<(o+1) - 1
	}
	return low + int64(sub+1)*(low>>3) - 1
}

// bucketLowerOf returns the smallest value that maps to the bucket
// whose upper edge is upper (the interpolation base in Quantile).
func bucketLowerOf(upper int64) int64 {
	i := bucketIndex(upper)
	if i == 0 {
		return 0
	}
	return bucketUpper(i-1) + 1
}

// Histogram is a fixed-bucket, log-spaced histogram whose Observe path
// is three atomic adds and one atomic max — safe for unsynchronized use
// from every worker goroutine.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot returns a consistent-enough copy for reporting. (Counts are
// read without a global lock; a snapshot taken mid-Observe may be off
// by the in-flight sample, which is fine for monitoring.)
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: bucketUpper(i), Count: n})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: Count samples with value
// ≤ Upper (and greater than the previous bucket's Upper).
type Bucket struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram, serializable and
// queryable for quantiles.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1): the rank-⌈q·count⌉
// sample's bucket is located and the value is linearly interpolated
// across the bucket by the rank's position within it, then clamped to
// the true observed maximum. Interpolation keeps distinct nearby
// distributions from reporting the identical bucket edge. Zero if
// empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			low := bucketLowerOf(b.Upper)
			// Position of the rank within this bucket, at the midpoint
			// of its 1/Count-wide slot: pos ∈ (0, 1).
			pos := (float64(rank-(cum-b.Count)) - 0.5) / float64(b.Count)
			v := low + int64(float64(b.Upper-low)*pos+0.5)
			if v > s.Max {
				return s.Max
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the average observed value (zero if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// P50, P95, P99 are the quantiles every report wants.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }

// P95 returns the 95th-percentile upper bound.
func (s HistSnapshot) P95() int64 { return s.Quantile(0.95) }

// P99 returns the 99th-percentile upper bound.
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }
