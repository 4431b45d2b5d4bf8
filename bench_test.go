// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkFigN / BenchmarkStudyN produces the measurements behind the
// corresponding figure; the cmd/ binaries print the full formatted reports.
// Table I is a static inventory (printed by `servicechar -table1`) and has
// no measurement to benchmark.
package datacomp_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/ads"
	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/fleet"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/warehouse"
)

// BenchmarkFig1Codecs measures ratio and speed for every codec and level of
// Figure 1 on the Silesia-proxy corpus. Ratios are reported as custom
// metrics alongside MB/s.
func BenchmarkFig1Codecs(b *testing.B) {
	files := corpus.Silesia(1, 1<<19)
	levels := map[string][]int{"zstd": {1, 3, 5, 9}, "zlib": {1, 6, 9}, "lz4": {1, 5, 9}}
	for _, f := range files[:4] { // dickens, mozilla, mr, nci keep runtime sane
		for algo, ls := range levels {
			for _, level := range ls {
				b.Run(fmt.Sprintf("%s/%s_L%d", f.Name, algo, level), func(b *testing.B) {
					eng, err := codec.NewEngine(algo, codec.WithLevel(level))
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(len(f.Data)))
					var out []byte
					for i := 0; i < b.N; i++ {
						out, err = eng.Compress(out[:0], f.Data)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(len(f.Data))/float64(len(out)), "ratio")
				})
			}
		}
	}
}

// BenchmarkFig1Decompress is Figure 1's decompression-speed panel.
func BenchmarkFig1Decompress(b *testing.B) {
	files := corpus.Silesia(1, 1<<19)
	for _, algo := range []string{"zstd", "zlib", "lz4"} {
		b.Run(algo, func(b *testing.B) {
			eng, err := codec.NewEngine(algo, codec.WithLevel(1))
			if err != nil {
				b.Fatal(err)
			}
			comp, err := eng.Compress(nil, files[0].Data)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(files[0].Data)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out, err = eng.Decompress(out[:0], comp)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2to5FleetProfile runs the full fleet profiling pipeline
// behind Figures 2-5 (and the §III-B headline numbers), reporting the
// fleet-wide compression share.
func BenchmarkFig2to5FleetProfile(b *testing.B) {
	p := &fleet.Profiler{Samples: 500_000, Seed: 1, MeasureBytes: 256 << 10}
	f := fleet.DefaultFleet()
	for i := 0; i < b.N; i++ {
		r, err := p.Profile(f)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TotalCompressionPct, "comp%")
		b.ReportMetric(r.LowLevelCyclesPct(), "lvl1-4%")
	}
}

// BenchmarkFig6ServiceCycles reproduces the per-service Zstd shares of
// Figure 6 via the same profiling pipeline.
func BenchmarkFig6ServiceCycles(b *testing.B) {
	p := &fleet.Profiler{Samples: 500_000, Seed: 2, MeasureBytes: 256 << 10}
	f := fleet.DefaultFleet()
	for i := 0; i < b.N; i++ {
		r, err := p.Profile(f)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ServiceZstdPct["dw-ingestion"], "DW1%")
		b.ReportMetric(r.ServiceZstdPct["dw-spark"], "DW3%")
	}
}

// BenchmarkFig7WarehouseStages measures the DW1-DW4 workflows behind
// Figure 7, reporting the match-finding share of zstd compression samples
// in a CPU profile of the benchmark's runs.
func BenchmarkFig7WarehouseStages(b *testing.B) {
	ds, _, err := warehouse.Ingest(2, 2, 20000)
	if err != nil {
		b.Fatal(err)
	}
	for _, dw := range []struct {
		name string
		run  func() error
	}{
		{"DW1_ingest", func() error { _, _, err := warehouse.Ingest(1, 2, 20000); return err }},
		{"DW2_shuffle", func() error { _, _, err := warehouse.Shuffle(ds, 4); return err }},
		{"DW3_spark", func() error { _, _, err := warehouse.SparkWorker(ds, 2); return err }},
		{"DW4_ml", func() error { _, err := warehouse.MLJob(ds, 1); return err }},
	} {
		b.Run(dw.name, func(b *testing.B) {
			p, err := telemetry.ProfileCPU(func() {
				for i := 0; i < b.N; i++ {
					if err := dw.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			if errors.Is(err, telemetry.ErrProfilerBusy) {
				b.Skip(err)
			}
			if err != nil {
				b.Fatal(err)
			}
			mf, _, n := warehouse.StageSplit(p)
			b.ReportMetric(mf*100, "matchfind%")
			b.ReportMetric(float64(n), "samples")
		})
	}
}

// BenchmarkFig8Fig9ItemSizes regenerates the cache item populations whose
// size distributions are Figures 8 and 9.
func BenchmarkFig8Fig9ItemSizes(b *testing.B) {
	types := corpus.DefaultItemTypes()
	for _, typ := range types {
		b.Run(typ.Name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				items := corpus.CacheItems(int64(i), typ, 1000)
				bytes = 0
				for _, it := range items {
					bytes += int64(len(it))
				}
			}
			b.ReportMetric(float64(bytes)/1000, "meanB")
		})
	}
}

// BenchmarkFig10Fig11DictCompression measures the plain-vs-dictionary
// speed/ratio points of Figures 10 and 11.
func BenchmarkFig10Fig11DictCompression(b *testing.B) {
	typ := corpus.DefaultItemTypes()[0]
	training := corpus.CacheItems(1, typ, 1500)
	d, err := dict.Train(training, dict.DefaultParams(16<<10))
	if err != nil {
		b.Fatal(err)
	}
	items := corpus.CacheItems(2, typ, 300)
	var total int64
	for _, it := range items {
		total += int64(len(it))
	}
	for _, level := range []int{1, 3, 6, 11} {
		for _, mode := range []string{"plain", "dict"} {
			b.Run(fmt.Sprintf("L%d_%s", level, mode), func(b *testing.B) {
				opts := []codec.Option{codec.WithLevel(level)}
				if mode == "dict" {
					opts = append(opts, codec.WithDict(d))
				}
				eng, err := codec.NewEngine("zstd", opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(total)
				var out []byte
				var compressed int64
				for i := 0; i < b.N; i++ {
					compressed = 0
					for _, it := range items {
						out, err = eng.Compress(out[:0], it)
						if err != nil {
							b.Fatal(err)
						}
						compressed += int64(len(out))
					}
				}
				b.ReportMetric(float64(total)/float64(compressed), "ratio")
			})
		}
	}
}

// BenchmarkFig12AdsLevels sweeps Zstd levels over the three ads models of
// Figure 12.
func BenchmarkFig12AdsLevels(b *testing.B) {
	for _, m := range corpus.AdsModels() {
		reqs := m.Requests(1, 2)
		var total int64
		for _, r := range reqs {
			total += int64(len(r))
		}
		for _, level := range []int{-5, -1, 1, 4, 9} {
			b.Run(fmt.Sprintf("model%s_L%d", m.Name, level), func(b *testing.B) {
				eng, err := codec.NewEngine("zstd", codec.WithLevel(level))
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(total)
				var out []byte
				var compressed int64
				for i := 0; i < b.N; i++ {
					compressed = 0
					for _, r := range reqs {
						out, err = eng.Compress(out[:0], r)
						if err != nil {
							b.Fatal(err)
						}
						compressed += int64(len(out))
					}
				}
				b.ReportMetric(float64(total)/float64(compressed), "ratio")
			})
		}
	}
}

// BenchmarkFig12AdsPipeline measures the end-to-end request path (compress
// + wire + decompress) the ADS1 latency argument rests on.
func BenchmarkFig12AdsPipeline(b *testing.B) {
	p, err := ads.New(ads.Config{Model: corpus.ModelB, Compress: true, Level: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	req := corpus.ModelB.Request(rng)
	b.SetBytes(int64(len(req)))
	for i := 0; i < b.N; i++ {
		if _, err := p.Send(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13BlockSize sweeps the SST block size of Figure 13 at Zstd
// level 1, reporting ratio and per-block decompression latency.
func BenchmarkFig13BlockSize(b *testing.B) {
	sample := corpus.SSTSample(1, 2<<20)
	for _, bs := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("block%dKiB", bs/1024), func(b *testing.B) {
			eng, err := codec.NewEngine("zstd", codec.WithLevel(1))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(sample)))
			var m codec.Metrics
			for i := 0; i < b.N; i++ {
				m, err = codec.Measure(eng, [][]byte{sample}, bs, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Ratio(), "ratio")
			b.ReportMetric(float64(m.DecompressPerBlock().Microseconds()), "µs/block")
		})
	}
}

// BenchmarkFig13LSMEndToEnd exercises the real LSM read path whose block
// decompression Figure 13 characterizes.
func BenchmarkFig13LSMEndToEnd(b *testing.B) {
	// WithoutWAL keeps the benchmark apples-to-apples with prior runs: it
	// measures the block read path, not durability.
	ctx := context.Background()
	db, err := kvstore.Open(ctx, "",
		kvstore.WithBlockSize(16<<10), kvstore.WithSeed(1), kvstore.WithoutWAL())
	if err != nil {
		b.Fatal(err)
	}
	pairs := corpus.KVPairs(1, 20000)
	for _, kv := range pairs {
		if err := db.Put(ctx, kv.Key, kv.Value); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := pairs[rng.Intn(len(pairs))]
		if _, _, err := db.Get(ctx, kv.Key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudy1AdsSearch runs sensitivity study 1 (Fig 15a): the CompOpt
// search over the ads candidate grid.
func BenchmarkStudy1AdsSearch(b *testing.B) {
	params := core.DefaultCostParams()
	params.AlphaStorage = 0
	rng := rand.New(rand.NewSource(1))
	e := &core.CompEngine{
		Samples:     [][]byte{corpus.ModelA.Request(rng)},
		Params:      params,
		Constraints: core.Constraints{MinCompressMBps: 40},
	}
	candidates := core.Grid(map[string][]int{
		"zstd": {-1, 1, 4, 9},
		"lz4":  {-10, 1, 9},
	}, nil)
	for i := 0; i < b.N; i++ {
		best, _, err := e.Search(candidates)
		if err != nil {
			b.Fatal(err)
		}
		if best.Config.Algorithm == "" {
			b.Fatal("no winner")
		}
	}
}

// BenchmarkStudy2KVSearch runs sensitivity study 2 (Fig 15b): the block
// size × codec grid under the decompression SLO.
func BenchmarkStudy2KVSearch(b *testing.B) {
	params := core.DefaultCostParams()
	params.AlphaNetwork = 0
	params.RetentionDays = 90
	params.DecompressWeight = 3
	e := &core.CompEngine{
		Samples:     [][]byte{corpus.SSTSample(1, 1<<20)},
		Params:      params,
		Constraints: core.Constraints{MaxDecompressPerBlock: 150 * time.Microsecond},
	}
	candidates := core.Grid(map[string][]int{"zstd": {1, 3}, "lz4": {1}},
		[]int{4 << 10, 16 << 10, 64 << 10})
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Search(candidates); err != nil && err != core.ErrNoFeasible {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudy3WindowSweep runs sensitivity study 3 (Fig 16): the CompSim
// accelerator match-window sweep.
func BenchmarkStudy3WindowSweep(b *testing.B) {
	params := core.DefaultCostParams()
	params.AlphaNetwork = 0
	e := &core.CompEngine{
		Samples: [][]byte{corpus.SSTSample(1, 1<<20)},
		Params:  params,
	}
	sweep := core.WindowSweep("zstd", 1, 64<<10, 10, 18, 10, core.EIAComputeAlpha)
	for i := 0; i < b.N; i++ {
		for _, cfg := range sweep {
			if _, err := e.Evaluate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
