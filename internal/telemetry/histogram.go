package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/datacomp/datacomp/internal/stats"
)

// The histogram is log-linear (HdrHistogram-style): each power-of-two
// octave is divided into histSub linear sub-buckets, so relative error is
// bounded by 1/histSub at every magnitude. That keeps nanosecond latencies
// and multi-megabyte sizes in the same fixed-size, allocation-free
// structure — the property a sampling profiler's aggregation needs.
const (
	histSubLog = 2
	histSub    = 1 << histSubLog // linear sub-buckets per octave
	// Values 0..histSub-1 get exact buckets; each octave ≥ histSub adds
	// histSub buckets, up to 2^63-1.
	histBuckets = histSub * (64 - histSubLog)
)

// bucketIndex maps a non-negative value to its bucket. Negative values
// clamp to bucket 0.
func bucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e ≤ v < 2^(e+1)
	g := uint(e - histSubLog)
	return histSub + int(g)*histSub + int(uint64(v)>>g) - histSub
}

// bucketBounds returns the value range [lower, upper) covered by a bucket.
// The top bucket's upper bound saturates at MaxInt64 (treated inclusive).
func bucketBounds(idx int) (lower, upper int64) {
	if idx < histSub {
		return int64(idx), int64(idx) + 1
	}
	g := uint((idx - histSub) / histSub)
	w := int64((idx - histSub) % histSub)
	lower = (histSub + w) << g
	upper = lower + (1 << g)
	if upper < lower { // 2^63 overflowed: final bucket
		upper = math.MaxInt64
	}
	return lower, upper
}

// Histogram records a distribution of non-negative int64 values (latencies
// in nanoseconds, sizes in bytes). Observe is lock-free: one atomic add on
// the bucket plus count/sum updates, and CAS loops for min/max.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64

	// exemplars, when enabled, holds per-bucket the trace ID of the most
	// recent traced observation that landed there — the link from a tail
	// bucket to the flight-recorded trace that produced it. Lazy so
	// histograms that never enable exemplars pay nothing but a nil check.
	exemplars atomic.Pointer[[histBuckets]atomic.Uint64]
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// EnableExemplars allocates the per-bucket exemplar table. Idempotent and
// safe to race with observers; ObserveTraced before enablement records the
// value but drops the exemplar.
func (h *Histogram) EnableExemplars() {
	if h.exemplars.Load() == nil {
		h.exemplars.CompareAndSwap(nil, new([histBuckets]atomic.Uint64))
	}
}

// ObserveTraced records one value and, when exemplars are enabled and
// traceID is nonzero, stamps the bucket's exemplar with the trace that
// produced the observation. With a zero traceID it is exactly Observe —
// callers on unsampled requests need no branch.
func (h *Histogram) ObserveTraced(v int64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	if ex := h.exemplars.Load(); ex != nil {
		ex[bucketIndex(v)].Store(traceID)
	}
}

// Exemplar returns the bucket exemplar recorded for value v's bucket (zero
// when none, or exemplars are disabled).
func (h *Histogram) Exemplar(v int64) uint64 {
	if ex := h.exemplars.Load(); ex != nil {
		return ex[bucketIndex(v)].Load()
	}
	return 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketCount is one occupied histogram bucket. Exemplar, when nonzero, is
// the trace ID of the most recent traced observation in the bucket.
type BucketCount struct {
	Lower    int64 // inclusive
	Upper    int64 // exclusive
	Count    int64
	Exemplar uint64
}

// Snapshot is a point-in-time copy of a histogram with derived summary
// statistics. Mean and Stddev come from a stats.Welford fed with bucket
// midpoints, so the summary machinery is shared with the rest of the
// characterization harness.
type Snapshot struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Mean    float64
	Stddev  float64
	Buckets []BucketCount
}

// Snapshot copies the histogram. Concurrent Observe calls may straddle the
// copy; each bucket count is individually consistent.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	ex := h.exemplars.Load()
	var w stats.Welford
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		b := BucketCount{Lower: lo, Upper: hi, Count: c}
		if ex != nil {
			b.Exemplar = ex[i].Load()
		}
		s.Buckets = append(s.Buckets, b)
		w.ObserveN(float64(lo+hi)/2, c)
	}
	s.Mean = w.Mean()
	s.Stddev = w.Stddev()
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated by linear
// interpolation within the containing bucket. Returns 0 for an empty
// histogram.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if rank <= next || b == s.Buckets[len(s.Buckets)-1] {
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - cum) / float64(b.Count)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			v := float64(b.Lower) + frac*float64(b.Upper-b.Lower)
			// Clamp to the observed range so p0/p100 are exact.
			if int64(v) < s.Min {
				return s.Min
			}
			if int64(v) > s.Max {
				return s.Max
			}
			return int64(v)
		}
		cum = next
	}
	return s.Max
}
