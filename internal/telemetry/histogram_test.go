package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestBucketIndexBoundaries(t *testing.T) {
	// Values below histSub get exact unit buckets.
	for v := int64(0); v < histSub; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("negative value bucket = %d, want 0", got)
	}
	// Table of exact boundary cases for histSub = 4: each octave splits
	// into 4 linear sub-buckets.
	cases := []struct {
		v    int64
		want int
	}{
		{4, 4}, {5, 5}, {6, 6}, {7, 7}, // octave [4,8), width 1
		{8, 8}, {9, 8}, {10, 9}, {11, 9}, // octave [8,16), width 2
		{15, 11},
		{16, 12}, {19, 12}, {20, 13}, // octave [16,32), width 4
		{31, 15},
		{32, 16}, // octave [32,64), width 8
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Largest representable value must stay in range.
	if got := bucketIndex(math.MaxInt64); got >= histBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d, out of range (%d buckets)", got, histBuckets)
	}
}

func TestBucketBoundsRoundtrip(t *testing.T) {
	// Every value must fall inside its bucket's [lower, upper) range, and
	// bounds must tile without gaps.
	check := func(v int64) {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v >= hi {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d)", v, idx, lo, hi)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		check(rng.Int63())
	}
	// Adjacent buckets tile: upper(i) == lower(i+1).
	for i := 0; i < histBuckets-1; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi != lo {
			t.Fatalf("gap between buckets %d and %d: %d vs %d", i, i+1, hi, lo)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{1, 2, 2, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1105 {
		t.Fatalf("sum = %d", h.Sum())
	}
	s := h.Snapshot()
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d", total)
	}
	if s.Mean <= 0 || s.Stddev <= 0 {
		t.Fatalf("mean/stddev = %v/%v", s.Mean, s.Stddev)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	if q := (Snapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("p0 = %d, want 1 (observed min)", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (observed max)", q)
	}
	// Log-linear relative error is bounded by 1/histSub per octave.
	if q := s.Quantile(0.5); q < 350 || q > 650 {
		t.Fatalf("p50 = %d, want ≈500", q)
	}
	if q := s.Quantile(0.99); q < 800 || q > 1000 {
		t.Fatalf("p99 = %d, want ≈990", q)
	}
	// Out-of-range q clamps.
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Fatal("q outside [0,1] must clamp")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Observe(rng.Int63n(1 << 20))
			}
		}(int64(g))
	}
	// Snapshot concurrently with writers; must not race or corrupt.
	for i := 0; i < 10; i++ {
		_ = h.Snapshot()
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	s := h.Snapshot()
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != goroutines*perG {
		t.Fatalf("bucket sum = %d, want %d", total, goroutines*perG)
	}
}
