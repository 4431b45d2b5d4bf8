// Package fleet models a datacenter fleet and reproduces the paper's
// fleet-level characterization pipeline (§III): services are profiled by
// sampling call stacks, samples landing in compression functions are
// filtered and aggregated by algorithm, category, level, and
// compression-vs-decompression direction.
//
// The paper's raw inputs — per-service cycle volumes — are proprietary, so
// DefaultFleet ships service profiles *calibrated* to the paper's reported
// aggregates (4.6% of fleet cycles in compression, Zstd ≫ LZ4 ≈ Zlib,
// category Zstd shares spanning 1.8–21.2%, levels 1-4 holding >50% of
// cycles). What is real: the codec work is measured on this machine per
// (algorithm, level, block size, data kind) to derive byte volumes, and the
// reported numbers come out of a simulated sampling profiler with
// configurable sample count, exactly like the 30-day continuous profiling
// infrastructure the paper used. See DESIGN.md §4 for the calibrated vs
// measured split.
package fleet

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/orc"
	"github.com/datacomp/datacomp/internal/stats"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Category is a service class, matching the paper's taxonomy (§III-A).
type Category string

// The six categories of the fleet characterization.
const (
	Ads           Category = "ads"
	Cache         Category = "cache"
	DataWarehouse Category = "data-warehouse"
	Feed          Category = "feed"
	KeyValueStore Category = "key-value-store"
	Web           Category = "web"
)

// Categories lists all categories in report order.
func Categories() []Category {
	return []Category{Ads, Cache, DataWarehouse, Feed, KeyValueStore, Web}
}

// DataKind selects the synthetic data family a use compresses.
type DataKind string

// Data kinds exercised by the fleet.
const (
	KindWeb       DataKind = "web"
	KindFeed      DataKind = "feed"
	KindAds       DataKind = "ads"
	KindCacheItem DataKind = "cacheitem"
	KindORC       DataKind = "orc"
	KindSST       DataKind = "sst"
)

// Use is one compression configuration a service exercises.
type Use struct {
	Algorithm string
	Level     int
	// BlockSize is the typical input size per call (Fig 5's distribution).
	BlockSize int
	Kind      DataKind
	// CycleShare is this use's share of the service's compression cycles.
	CycleShare float64
	// CompressShare splits the use's cycles between compression and
	// decompression (Fig 3).
	CompressShare float64
}

// Service is one fleet service profile.
type Service struct {
	Name     string
	Category Category
	// CycleWeight is the service's share of total fleet cycles.
	CycleWeight float64
	// CompFrac is the fraction of the service's cycles spent in
	// (de)compression.
	CompFrac float64
	Uses     []Use
}

// Validate checks that shares are sane.
func (s Service) Validate() error {
	if s.CycleWeight < 0 || s.CompFrac < 0 || s.CompFrac > 1 {
		return fmt.Errorf("fleet: service %s has invalid weights", s.Name)
	}
	total := 0.0
	for _, u := range s.Uses {
		if u.CycleShare < 0 || u.CompressShare < 0 || u.CompressShare > 1 {
			return fmt.Errorf("fleet: service %s use %s has invalid shares", s.Name, u.Algorithm)
		}
		if _, ok := codec.Lookup(u.Algorithm); !ok {
			return fmt.Errorf("fleet: service %s uses unknown codec %s", s.Name, u.Algorithm)
		}
		total += u.CycleShare
	}
	if len(s.Uses) > 0 && (total < 0.99 || total > 1.01) {
		return fmt.Errorf("fleet: service %s use shares sum to %.3f", s.Name, total)
	}
	return nil
}

// DefaultFleet returns the calibrated fleet (14 services across the six
// categories). The weights reproduce the paper's headline aggregates; see
// the package comment.
func DefaultFleet() []Service {
	return []Service{
		{
			Name: "web-frontend", Category: Web, CycleWeight: 0.32, CompFrac: 0.022,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 8 << 10, Kind: KindWeb, CycleShare: 0.80, CompressShare: 0.30},
				{Algorithm: "zlib", Level: 6, BlockSize: 8 << 10, Kind: KindWeb, CycleShare: 0.20, CompressShare: 0.40},
			},
		},
		{
			Name: "web-api", Category: Web, CycleWeight: 0.08, CompFrac: 0.030,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 4 << 10, Kind: KindWeb, CycleShare: 0.55, CompressShare: 0.35},
				{Algorithm: "zlib", Level: 6, BlockSize: 4 << 10, Kind: KindWeb, CycleShare: 0.45, CompressShare: 0.45},
			},
		},
		{
			Name: "feed-ranker", Category: Feed, CycleWeight: 0.14, CompFrac: 0.024,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 4 << 10, Kind: KindFeed, CycleShare: 0.85, CompressShare: 0.25},
				{Algorithm: "lz4", Level: 1, BlockSize: 4 << 10, Kind: KindFeed, CycleShare: 0.15, CompressShare: 0.30},
			},
		},
		{
			Name: "feed-aggregator", Category: Feed, CycleWeight: 0.08, CompFrac: 0.030,
			Uses: []Use{
				{Algorithm: "zstd", Level: 2, BlockSize: 16 << 10, Kind: KindFeed, CycleShare: 1.0, CompressShare: 0.30},
			},
		},
		{
			Name: "ads-serving", Category: Ads, CycleWeight: 0.10, CompFrac: 0.042,
			Uses: []Use{
				{Algorithm: "zstd", Level: 4, BlockSize: 128 << 10, Kind: KindAds, CycleShare: 1.0, CompressShare: 0.55},
			},
		},
		{
			Name: "ads-feature-log", Category: Ads, CycleWeight: 0.04, CompFrac: 0.030,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 64 << 10, Kind: KindAds, CycleShare: 0.85, CompressShare: 0.60},
				{Algorithm: "lz4", Level: 1, BlockSize: 64 << 10, Kind: KindAds, CycleShare: 0.15, CompressShare: 0.60},
			},
		},
		{
			Name: "cache1", Category: Cache, CycleWeight: 0.07, CompFrac: 0.052,
			Uses: []Use{
				{Algorithm: "zstd", Level: 3, BlockSize: 512, Kind: KindCacheItem, CycleShare: 1.0, CompressShare: 0.30},
			},
		},
		{
			Name: "cache2", Category: Cache, CycleWeight: 0.05, CompFrac: 0.045,
			Uses: []Use{
				{Algorithm: "zstd", Level: 3, BlockSize: 1 << 10, Kind: KindCacheItem, CycleShare: 0.85, CompressShare: 0.30},
				{Algorithm: "lz4", Level: 1, BlockSize: 1 << 10, Kind: KindCacheItem, CycleShare: 0.15, CompressShare: 0.35},
			},
		},
		{
			Name: "dw-ingestion", Category: DataWarehouse, CycleWeight: 0.025, CompFrac: 0.285,
			Uses: []Use{
				{Algorithm: "zstd", Level: 7, BlockSize: 256 << 10, Kind: KindORC, CycleShare: 1.0, CompressShare: 0.80},
			},
		},
		{
			Name: "dw-shuffle", Category: DataWarehouse, CycleWeight: 0.020, CompFrac: 0.300,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 256 << 10, Kind: KindORC, CycleShare: 1.0, CompressShare: 0.73},
			},
		},
		{
			Name: "dw-spark", Category: DataWarehouse, CycleWeight: 0.020, CompFrac: 0.135,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 256 << 10, Kind: KindORC, CycleShare: 0.70, CompressShare: 0.45},
				{Algorithm: "zstd", Level: 7, BlockSize: 256 << 10, Kind: KindORC, CycleShare: 0.30, CompressShare: 0.75},
			},
		},
		{
			Name: "dw-ml", Category: DataWarehouse, CycleWeight: 0.015, CompFrac: 0.080,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 256 << 10, Kind: KindORC, CycleShare: 1.0, CompressShare: 0.45},
			},
		},
		{
			Name: "kvstore1", Category: KeyValueStore, CycleWeight: 0.050, CompFrac: 0.150,
			Uses: []Use{
				{Algorithm: "zstd", Level: 1, BlockSize: 16 << 10, Kind: KindSST, CycleShare: 0.90, CompressShare: 0.50},
				{Algorithm: "zstd", Level: 5, BlockSize: 64 << 10, Kind: KindSST, CycleShare: 0.10, CompressShare: 0.85},
			},
		},
		{
			Name: "kv-backup", Category: KeyValueStore, CycleWeight: 0.020, CompFrac: 0.080,
			Uses: []Use{
				{Algorithm: "lz4", Level: 3, BlockSize: 64 << 10, Kind: KindSST, CycleShare: 0.60, CompressShare: 0.70},
				{Algorithm: "zstd", Level: 5, BlockSize: 64 << 10, Kind: KindSST, CycleShare: 0.40, CompressShare: 0.75},
			},
		},
	}
}

// GenerateKind produces sample data of the kind sized for measurement.
func GenerateKind(kind DataKind, seed int64, size int) ([]byte, error) {
	switch kind {
	case KindWeb:
		return corpus.LogLines(seed, size), nil
	case KindFeed:
		// Feed payloads: ranked story metadata, JSON-ish.
		types := corpus.DefaultItemTypes()
		var out []byte
		rng := rand.New(rand.NewSource(seed))
		for len(out) < size {
			out = append(out, types[1].Item(rng)...)
		}
		return out[:size], nil
	case KindAds:
		var out []byte
		rng := rand.New(rand.NewSource(seed))
		for len(out) < size {
			out = append(out, corpus.ModelB.Request(rng)...)
		}
		return out[:size], nil
	case KindCacheItem:
		types := corpus.DefaultItemTypes()
		var out []byte
		rng := rand.New(rand.NewSource(seed))
		for len(out) < size {
			out = append(out, types[0].Item(rng)...)
		}
		return out[:size], nil
	case KindORC:
		cols := []orc.Column{
			{Name: "ts", Kind: orc.Int64, Ints: corpus.TimestampColumn(seed, size/24)},
			{Name: "id", Kind: orc.Int64, Ints: corpus.IDColumn(seed+1, size/24)},
			{Name: "ev", Kind: orc.String, Strings: corpus.CategoryColumn(seed+2, size/24)},
		}
		enc, err := orc.EncodeStripe(cols)
		if err != nil {
			return nil, err
		}
		for len(enc) < size {
			enc = append(enc, enc...)
		}
		return enc[:size], nil
	case KindSST:
		return corpus.SSTSample(seed, size), nil
	default:
		return nil, fmt.Errorf("fleet: unknown data kind %q", kind)
	}
}

// useKey identifies a distinct measurement configuration.
type useKey struct {
	algo  string
	level int
	block int
	kind  DataKind
}

// UseMetrics is the measured performance of one configuration.
type UseMetrics struct {
	Algorithm      string
	Level          int
	BlockSize      int
	Kind           DataKind
	Ratio          float64
	CompressMBps   float64
	DecompressMBps float64
}

// Split is a compression/decompression cycle split.
type Split struct {
	CompressPct   float64
	DecompressPct float64
}

// Report is the output of a fleet profiling run.
type Report struct {
	// TotalCompressionPct is the share of fleet cycles in compression
	// functions (paper: 4.6%).
	TotalCompressionPct float64
	// AlgorithmPct is per-algorithm share of fleet cycles (paper: zstd
	// 3.9%, lz4 0.4%, zlib 0.3%).
	AlgorithmPct map[string]float64
	// CategoryZstdPct is Fig 2: zstd share of each category's cycles.
	CategoryZstdPct map[Category]float64
	// CategorySplit is Fig 3 per category; FleetSplit is the fleet row.
	CategorySplit map[Category]Split
	FleetSplit    Split
	// LevelCyclesPct is Fig 4: share of zstd cycles per level.
	LevelCyclesPct map[int]float64
	// ServiceZstdPct is the per-service zstd share (feeds Fig 6).
	ServiceZstdPct map[string]float64
	// BlockSizes is Fig 5: one observation per service at its
	// cycle-weighted mean block size.
	BlockSizes *stats.SizeHistogram
	// Measured holds the real codec measurements backing the volumes.
	Measured []UseMetrics
	// Samples is the number of profiler samples drawn.
	Samples int
	// Cycles is the raw sample aggregation the report was computed from —
	// the same substrate telemetry.ProfileCPU fills from the runtime's CPU
	// profile, so downstream tooling can consume simulated and live
	// profiles uniformly.
	Cycles *telemetry.CycleProfile
}

// Profiler runs the sampled-stack emulation.
type Profiler struct {
	// Samples is the number of call-stack samples to draw (default 2e6).
	Samples int
	// Seed drives sampling and data generation.
	Seed int64
	// MeasureBytes is the data volume per configuration measurement
	// (default 1 MiB).
	MeasureBytes int
}

func (p *Profiler) fill() {
	if p.Samples == 0 {
		p.Samples = 2_000_000
	}
	if p.MeasureBytes == 0 {
		p.MeasureBytes = 1 << 20
	}
}

// stackBucket is one (service, function) attribution target. Sampled hits
// are accumulated in a telemetry.CycleProfile keyed by the bucket's key,
// not here — the simulated profiler and live telemetry.ProfileCPU share
// that aggregation substrate.
type stackBucket struct {
	key    telemetry.SampleKey
	weight float64 // exact cycle share
}

// Profile measures every configuration in the fleet and emulates the
// sampling profiler over the calibrated cycle distribution.
func (p *Profiler) Profile(fleet []Service) (*Report, error) {
	p.fill()
	for _, s := range fleet {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}

	// Normalize fleet weights.
	totalWeight := 0.0
	for _, s := range fleet {
		totalWeight += s.CycleWeight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("fleet: zero total cycle weight")
	}

	// Measurement phase: run every distinct configuration on real data.
	measured := map[useKey]UseMetrics{}
	for _, s := range fleet {
		for _, u := range s.Uses {
			k := useKey{u.Algorithm, u.Level, u.BlockSize, u.Kind}
			if _, ok := measured[k]; ok {
				continue
			}
			eng, err := codec.NewEngine(u.Algorithm, codec.WithLevel(u.Level))
			if err != nil {
				return nil, fmt.Errorf("fleet: %s: %w", s.Name, err)
			}
			data, err := GenerateKind(u.Kind, p.Seed+int64(len(measured)), p.MeasureBytes)
			if err != nil {
				return nil, err
			}
			m, err := codec.Measure(eng, [][]byte{data}, u.BlockSize, 1)
			if err != nil {
				return nil, fmt.Errorf("fleet: measuring %s L%d on %s: %w", u.Algorithm, u.Level, u.Kind, err)
			}
			measured[k] = UseMetrics{
				Algorithm:      u.Algorithm,
				Level:          u.Level,
				BlockSize:      u.BlockSize,
				Kind:           u.Kind,
				Ratio:          m.Ratio(),
				CompressMBps:   m.CompressMBps(),
				DecompressMBps: m.DecompressMBps(),
			}
		}
	}

	// Build the exact cycle distribution over stack buckets.
	var buckets []stackBucket
	for _, s := range fleet {
		w := s.CycleWeight / totalWeight
		app := w * (1 - s.CompFrac)
		buckets = append(buckets, stackBucket{
			key:    telemetry.SampleKey{Service: s.Name, Group: string(s.Category)},
			weight: app,
		})
		for _, u := range s.Uses {
			base := w * s.CompFrac * u.CycleShare
			buckets = append(buckets,
				stackBucket{
					key: telemetry.SampleKey{Service: s.Name, Group: string(s.Category),
						Codec: u.Algorithm, Level: u.Level, Dir: telemetry.DirCompress},
					weight: base * u.CompressShare,
				},
				stackBucket{
					key: telemetry.SampleKey{Service: s.Name, Group: string(s.Category),
						Codec: u.Algorithm, Level: u.Level, Dir: telemetry.DirDecompress},
					weight: base * (1 - u.CompressShare),
				},
			)
		}
	}

	// Sampling phase: draw stack samples from the distribution into the
	// shared cycle-profile aggregation.
	profile := telemetry.NewCycleProfile()
	rng := rand.New(rand.NewSource(p.Seed))
	cum := make([]float64, len(buckets))
	total := 0.0
	for i, b := range buckets {
		total += b.weight
		cum[i] = total
	}
	for i := 0; i < p.Samples; i++ {
		x := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		profile.Add(buckets[lo].key, 1)
	}

	// Aggregation phase (everything below uses the sampled counts, as the
	// paper's pipeline aggregates sampled stacks).
	r := &Report{
		AlgorithmPct:    map[string]float64{},
		CategoryZstdPct: map[Category]float64{},
		CategorySplit:   map[Category]Split{},
		LevelCyclesPct:  map[int]float64{},
		ServiceZstdPct:  map[string]float64{},
		BlockSizes:      stats.NewSizeHistogram(),
		Samples:         p.Samples,
		Cycles:          profile,
	}
	catTotal := map[Category]float64{}
	catZstd := map[Category]float64{}
	catComp := map[Category]float64{}
	catDecomp := map[Category]float64{}
	svcTotal := map[string]float64{}
	svcZstd := map[string]float64{}
	zstdTotal := 0.0
	levelCount := map[int]float64{}
	var fleetComp, fleetDecomp float64

	// Fleet-wide algorithm shares come straight off the profile's
	// classifier-based grouping (application samples count toward the
	// denominator, as they do for a real sampling profiler).
	for algo, share := range profile.ShareBy(func(k telemetry.SampleKey) (string, bool) {
		return k.Codec, k.Codec != ""
	}) {
		r.AlgorithmPct[algo] = share * 100
		r.TotalCompressionPct += share * 100
	}

	for k, samples := range profile.Samples() {
		c := float64(samples)
		cat := Category(k.Group)
		catTotal[cat] += c
		svcTotal[k.Service] += c
		if k.Codec == "" {
			continue
		}
		if k.Dir == telemetry.DirCompress {
			fleetComp += c
			catComp[cat] += c
		} else {
			fleetDecomp += c
			catDecomp[cat] += c
		}
		if k.Codec == "zstd" {
			catZstd[cat] += c
			svcZstd[k.Service] += c
			zstdTotal += c
			levelCount[k.Level] += c
		}
	}
	for _, cat := range Categories() {
		if catTotal[cat] > 0 {
			r.CategoryZstdPct[cat] = catZstd[cat] / catTotal[cat] * 100
		}
		if cd := catComp[cat] + catDecomp[cat]; cd > 0 {
			r.CategorySplit[cat] = Split{
				CompressPct:   catComp[cat] / cd * 100,
				DecompressPct: catDecomp[cat] / cd * 100,
			}
		}
	}
	if cd := fleetComp + fleetDecomp; cd > 0 {
		r.FleetSplit = Split{CompressPct: fleetComp / cd * 100, DecompressPct: fleetDecomp / cd * 100}
	}
	for lvl, c := range levelCount {
		if zstdTotal > 0 {
			r.LevelCyclesPct[lvl] = c / zstdTotal * 100
		}
	}
	for svc, tot := range svcTotal {
		if tot > 0 {
			r.ServiceZstdPct[svc] = svcZstd[svc] / tot * 100
		}
	}
	// Fig 5: one histogram observation per service at its cycle-weighted
	// mean block size.
	for _, s := range fleet {
		mean := 0.0
		for _, u := range s.Uses {
			mean += float64(u.BlockSize) * u.CycleShare
		}
		r.BlockSizes.Observe(int(mean))
	}
	keys := make([]useKey, 0, len(measured))
	for k := range measured {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.algo != b.algo {
			return a.algo < b.algo
		}
		if a.level != b.level {
			return a.level < b.level
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.block < b.block
	})
	for _, k := range keys {
		r.Measured = append(r.Measured, measured[k])
	}
	return r, nil
}

// LowLevelCyclesPct sums the Fig 4 shares for levels 1-4 (the paper: >50%,
// even >80% for Feed).
func (r *Report) LowLevelCyclesPct() float64 {
	total := 0.0
	for lvl, pct := range r.LevelCyclesPct {
		if lvl >= 1 && lvl <= 4 {
			total += pct
		}
	}
	return total
}

// nominalGHz is the clock used to convert measured seconds into "cycles"
// for narrative reporting; only ratios are ever reported.
const nominalGHz = 2.5

// CyclesPerByte converts a measured throughput into cycles/byte at the
// nominal clock.
func CyclesPerByte(mbps float64) float64 {
	if mbps <= 0 {
		return 0
	}
	return nominalGHz * 1e9 / (mbps * 1e6)
}
