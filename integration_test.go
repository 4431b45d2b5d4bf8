// Integration tests: cross-module end-to-end paths and adversarial
// robustness (mutated/truncated payloads must fail cleanly, never panic,
// and never silently corrupt checksummed data).
package datacomp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/adaptive"
	"github.com/datacomp/datacomp/internal/cache"
	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/fleet"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/warehouse"
	"github.com/datacomp/datacomp/internal/zstd"
)

// TestWarehousePipelineEndToEnd chains DW1 → DW2 → DW3 → DW4 over one
// dataset, the way the paper's warehouse jobs feed each other.
func TestWarehousePipelineEndToEnd(t *testing.T) {
	ds, ingestStats, err := warehouse.Ingest(1, 3, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if ingestStats.CompressionRatio() <= 1 {
		t.Fatalf("ingest ratio %.2f", ingestStats.CompressionRatio())
	}
	parts, shuffleStats, err := warehouse.Shuffle(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shuffleStats.DecompressTime <= 0 {
		t.Fatal("shuffle read nothing")
	}
	// Each shuffle partition is itself valid warehouse data: run a worker
	// over one of them.
	for _, p := range parts {
		if len(p.Stripes) == 0 {
			continue
		}
		out, workerStats, err := warehouse.SparkWorker(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Stripes) == 0 || workerStats.ComputeTime <= 0 {
			t.Fatal("worker produced nothing")
		}
		if _, err := warehouse.MLJob(out, 1); err != nil {
			t.Fatal(err)
		}
		break
	}
	// Stage accounting: the level-7 ingest must be more match-find-heavy
	// than the level-1 shuffle in a CPU profile of each (the Fig 7 claim,
	// asserted cross-module).
	split := func(run func() error) float64 {
		mf, _, _, err := warehouse.ProfileStageSplit(100, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
		if errors.Is(err, telemetry.ErrProfilerBusy) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		return mf
	}
	ingestMF := split(func() error { _, _, err := warehouse.Ingest(1, 3, 8000); return err })
	shuffleMF := split(func() error { _, _, err := warehouse.Shuffle(ds, 4); return err })
	if ingestMF <= shuffleMF {
		t.Errorf("ingest MF %.2f should exceed shuffle MF %.2f", ingestMF, shuffleMF)
	}
}

// TestDictionaryWorkflowAcrossPackages trains one dictionary and uses it
// consistently through zstd directly and the cache's class of a controller.
func TestDictionaryWorkflowAcrossPackages(t *testing.T) {
	typ := corpus.DefaultItemTypes()[2]
	training := corpus.CacheItems(1, typ, 1200)
	d, err := dict.Train(training, dict.DefaultParams(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	item := corpus.CacheItems(2, typ, 1)[0]

	// Direct zstd.
	enc, err := zstd.NewEncoder(zstd.Options{Level: 3, Dict: d})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Compress(nil, item)
	if err != nil {
		t.Fatal(err)
	}
	back, err := zstd.Decompress(nil, frame, d)
	if err != nil || !bytes.Equal(back, item) {
		t.Fatalf("direct roundtrip: %v", err)
	}

	// The frame self-describes its dictionary.
	id, required, err := zstd.FrameDictID(frame)
	if err != nil || !required || id != zstd.DictID(d) {
		t.Fatalf("frame dict id: %08x required=%v err=%v", id, required, err)
	}

	// The cache, its item type's class serving the same dictionary.
	ctrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	c, err := cache.New(cache.Config{Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ctrl.Handle("cache:" + typ.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Adopt(core.Config{Algorithm: "zstd", Level: 3, Dict: d}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", typ.Name, item); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("k")
	if err != nil || !ok || !bytes.Equal(got, item) {
		t.Fatalf("cache roundtrip: ok=%v err=%v", ok, err)
	}
	af, err := h.Compress(nil, item)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, id, _, err := adaptive.ParseFrame(af); err != nil || id != zstd.DictID(d) {
		t.Fatalf("adaptive frame dict id %08x, want %08x (err %v)", id, zstd.DictID(d), err)
	}
}

// TestManagedServiceOverCacheTraffic drives the Managed Compression
// service, a started controller behind the cache, with typed cache traffic
// of two small-item use cases. Each use case's class must adopt a trained
// dictionary and then store held-out items smaller than a controller that
// never trains, with every item written before and after adoption readable.
func TestManagedServiceOverCacheTraffic(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Config{Interval: 10 * time.Millisecond, SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	c, err := cache.New(cache.Config{Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	types := corpus.DefaultItemTypes()[:2] // two small-item use cases
	rng := rand.New(rand.NewSource(5))
	want := map[string][]byte{}
	adopted := func() bool {
		n := 0
		for _, st := range ctrl.Status() {
			if strings.Contains(st.Config, "dict") {
				n++
			}
		}
		return n == len(types)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; !adopted(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("after %d sets not every use case adopted a dictionary: %+v", i, ctrl.Status())
		}
		typ := types[i%len(types)]
		key := fmt.Sprintf("%s/%d", typ.Name, i%500)
		want[key] = typ.Item(rng)
		if err := c.Set(key, typ.Name, want[key]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}

	plainCtrl, err := adaptive.New(adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plainCtrl.Close()
	for _, typ := range types {
		managed, err := cache.New(cache.Config{Adaptive: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := cache.New(cache.Config{Adaptive: plainCtrl})
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range corpus.CacheItems(77, typ, 300) {
			key := fmt.Sprintf("%s/held-out/%d", typ.Name, i)
			want[key] = it
			if err := managed.Set(key, typ.Name, it); err != nil {
				t.Fatal(err)
			}
			if err := c.Set(key, typ.Name, it); err != nil {
				t.Fatal(err)
			}
			if err := plain.Set(key, typ.Name, it); err != nil {
				t.Fatal(err)
			}
		}
		mr, pr := managed.Stats().CompressionRatio(), plain.Stats().CompressionRatio()
		t.Logf("%s: managed ratio %.2f, plain zstd-3 %.2f", typ.Name, mr, pr)
		if mr <= pr {
			t.Errorf("%s: managed ratio %.2f does not beat plain %.2f", typ.Name, mr, pr)
		}
	}
	for key, v := range want {
		got, ok, err := c.Get(key)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("get %s: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestCompOptPickIsActuallyFeasible re-measures CompOpt's chosen
// configuration on fresh data and checks the constraint holds out of
// sample.
func TestCompOptPickIsActuallyFeasible(t *testing.T) {
	params := core.DefaultCostParams()
	params.AlphaNetwork = 0
	e := &core.CompEngine{
		Samples:     [][]byte{corpus.SSTSample(1, 1<<20)},
		Params:      params,
		Constraints: core.Constraints{MaxDecompressPerBlock: 400_000}, // 0.4ms
		Repeats:     2,
	}
	candidates := core.Grid(map[string][]int{"zstd": {1, 3}, "lz4": {1}}, []int{4 << 10, 64 << 10})
	best, _, err := e.Search(candidates)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh data, fresh engine.
	eng, err := codec.NewEngine(best.Config.Algorithm, codec.WithLevel(best.Config.Level))
	if err != nil {
		t.Fatal(err)
	}
	m, err := codec.Measure(eng, [][]byte{corpus.SSTSample(99, 1<<20)}, best.Config.BlockSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.DecompressPerBlock() > 3*400_000 { // generous out-of-sample slack
		t.Errorf("picked config violates SLO badly out of sample: %v", m.DecompressPerBlock())
	}
}

// TestKVStoreUnderAllCodecLevels loads the LSM store with each codec at its
// extremes and verifies reads after heavy compaction churn.
func TestKVStoreUnderAllCodecLevels(t *testing.T) {
	configs := []struct {
		codec string
		level int
	}{
		{"zstd", -5},
		{"zstd", 12},
		{"lz4", 12},
		{"zlib", 9},
	}
	ctx := context.Background()
	pairs := corpus.KVPairs(3, 4000)
	for _, cfg := range configs {
		db, err := kvstore.Open(ctx, "",
			kvstore.WithCodec(cfg.codec),
			kvstore.WithLevel(cfg.level),
			kvstore.WithMemtableBytes(16<<10),
			kvstore.WithL0CompactionTrigger(2),
			kvstore.WithBaseLevelBytes(32<<10),
			kvstore.WithMaxTableBytes(32<<10),
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range pairs {
			if err := db.Put(ctx, kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		want := map[string][]byte{}
		for _, kv := range pairs {
			want[string(kv.Key)] = kv.Value // last write wins
		}
		checked := 0
		for k, v := range want {
			got, ok, err := db.Get(ctx, []byte(k))
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s L%d: key %q ok=%v err=%v", cfg.codec, cfg.level, k, ok, err)
			}
			if checked++; checked >= 500 {
				break
			}
		}
		if db.Stats().Compactions == 0 {
			t.Errorf("%s L%d: no compactions", cfg.codec, cfg.level)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutationRobustness mutates compressed payloads and requires decoders
// to fail cleanly (error or — without integrity checks — garbage), never
// panic. With zstd checksums on, silent corruption must be impossible.
func TestMutationRobustness(t *testing.T) {
	src := corpus.LogLines(1, 32<<10)
	rng := rand.New(rand.NewSource(9))
	for _, name := range codec.Names() {
		c, _ := codec.Lookup(name)
		_, _, def := c.Levels()
		eng, err := c.New(codec.Options{Level: def})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := eng.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte{}, frame...)
			switch trial % 3 {
			case 0: // flip bytes
				for k := 0; k < 1+rng.Intn(4); k++ {
					mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				}
			case 1: // truncate
				mut = mut[:rng.Intn(len(mut))]
			default: // extend
				extra := make([]byte, 1+rng.Intn(16))
				rng.Read(extra)
				mut = append(mut, extra...)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: decoder panicked on mutated input: %v", name, r)
					}
				}()
				_, _ = eng.Decompress(nil, mut)
			}()
		}
	}
}

// TestZstdChecksumCatchesAllMutations: with the frame checksum enabled no
// mutation may decode to different content without an error.
func TestZstdChecksumCatchesAllMutations(t *testing.T) {
	src := corpus.LogLines(2, 32<<10)
	enc, err := zstd.NewEncoder(zstd.Options{Level: 3, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte{}, frame...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		got, err := zstd.Decompress(nil, mut, nil)
		if err == nil && !bytes.Equal(got, src) {
			t.Fatalf("trial %d: silent corruption", trial)
		}
	}
}

// TestCrossCodecFrameRejection: payloads from one codec must not decode
// under another.
func TestCrossCodecFrameRejection(t *testing.T) {
	src := corpus.LogLines(3, 8<<10)
	frames := map[string][]byte{}
	engines := map[string]codec.Engine{}
	for _, name := range codec.Names() {
		eng, err := codec.NewEngine(name, codec.WithLevel(1))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := eng.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		frames[name] = frame
		engines[name] = eng
	}
	for from, frame := range frames {
		for to, eng := range engines {
			if from == to {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoding %s frame with %s panicked: %v", from, to, r)
					}
				}()
				if got, err := eng.Decompress(nil, frame); err == nil && bytes.Equal(got, src) {
					// Extremely unlikely; would mean format confusion.
					t.Errorf("%s frame decoded perfectly by %s", from, to)
				}
			}()
		}
	}
}

// TestFleetProfileDeterminism: identical seeds must give identical sampled
// aggregates (measurement timings vary, sampled counts must not).
func TestFleetProfileDeterminism(t *testing.T) {
	run := func() *fleet.Report {
		p := &fleet.Profiler{Samples: 100_000, Seed: 7, MeasureBytes: 64 << 10}
		r, err := p.Profile(fleet.DefaultFleet())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if math.Abs(a.TotalCompressionPct-b.TotalCompressionPct) > 1e-12 {
		t.Fatalf("non-deterministic sampling: %v vs %v", a.TotalCompressionPct, b.TotalCompressionPct)
	}
	for cat, v := range a.CategoryZstdPct {
		if math.Abs(v-b.CategoryZstdPct[cat]) > 1e-12 {
			t.Fatalf("category %s differs", cat)
		}
	}
}

// TestBlockCompressionAcrossCodecsAndSizes is the Fig 13 measurement path
// exercised across every codec (not just zstd) for coverage.
func TestBlockCompressionAcrossCodecsAndSizes(t *testing.T) {
	sample := corpus.SSTSample(5, 256<<10)
	for _, name := range codec.Names() {
		var prevRatio float64
		for _, bs := range []int{1 << 10, 8 << 10, 64 << 10} {
			eng, err := codec.NewEngine(name, codec.WithLevel(1))
			if err != nil {
				t.Fatal(err)
			}
			m, err := codec.Measure(eng, [][]byte{sample}, bs, 1)
			if err != nil {
				t.Fatalf("%s bs=%d: %v", name, bs, err)
			}
			if m.Ratio() < prevRatio*0.98 {
				t.Errorf("%s: ratio regressed with larger blocks: %.3f -> %.3f at %d",
					name, prevRatio, m.Ratio(), bs)
			}
			prevRatio = m.Ratio()
		}
	}
}

// TestAdsEndToEndAgainstCompOpt: the level CompOpt picks for the ads
// workload must be at least as cheap as a fixed default when replayed.
func TestAdsEndToEndAgainstCompOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	samples := [][]byte{corpus.ModelB.Request(rng), corpus.ModelB.Request(rng)}
	params := core.DefaultCostParams()
	params.AlphaStorage = 0
	e := &core.CompEngine{Samples: samples, Params: params, Repeats: 2}
	candidates := core.Grid(map[string][]int{"zstd": {-1, 1, 3, 6}}, nil)
	best, all, err := e.Search(candidates)
	if err != nil {
		t.Fatal(err)
	}
	var defaultCost float64
	for _, r := range all {
		if r.Config.Level == 6 {
			defaultCost = r.TotalCost()
		}
	}
	if best.TotalCost() > defaultCost {
		t.Fatalf("search returned worse than a fixed candidate: %v > %v", best.TotalCost(), defaultCost)
	}
	_ = fmt.Sprintf("%s", best.Config)
}
