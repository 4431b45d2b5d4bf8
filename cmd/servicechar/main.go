// Command servicechar reproduces the paper's service-level
// characterization (Section IV): Table I's service inventory and Figures
// 6-13. Select sections with flags; by default everything runs.
//
//	-table1  service inventory
//	-fig6    per-service Zstd cycle shares
//	-fig7    DW1-4 splits: compression/decompression (timed) and
//	         match-finding vs entropy (a CPU profile of the workflows,
//	         classified by function)
//	-fig8    CACHE1 item size distribution
//	-fig9    CACHE2 item size distribution
//	-fig10   CACHE1 dictionary vs plain speed/ratio curve (levels 1,3,6,11)
//	-fig11   CACHE2 dictionary vs plain speed/ratio curve
//	-fig12   ADS1 models A/B/C across Zstd levels -5..9
//	-fig13   KVSTORE1 block size sweep 1-64 KiB at Zstd level 1: plain,
//	         against a 2 KiB store dictionary, and against it with entropy
//	         tables
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/fleet"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/stats"
	"github.com/datacomp/datacomp/internal/telemetry/boot"
	"github.com/datacomp/datacomp/internal/warehouse"
	"github.com/datacomp/datacomp/internal/zstd"
)

var seed = flag.Int64("seed", 423, "generation seed")

func main() {
	table1 := flag.Bool("table1", false, "print Table I")
	fig6 := flag.Bool("fig6", false, "print Fig 6")
	fig7 := flag.Bool("fig7", false, "print Fig 7")
	fig8 := flag.Bool("fig8", false, "print Fig 8")
	fig9 := flag.Bool("fig9", false, "print Fig 9")
	fig10 := flag.Bool("fig10", false, "print Fig 10")
	fig11 := flag.Bool("fig11", false, "print Fig 11")
	fig12 := flag.Bool("fig12", false, "print Fig 12")
	fig13 := flag.Bool("fig13", false, "print Fig 13")
	chaos := flag.Bool("chaos", false, "run the fault-injection harness against a loopback RPC server and report corruption handling")
	adaptiveF := flag.Bool("adaptive", false, "run the online adaptive codec controller demo on a shifting traffic mix")
	obs := boot.Register(flag.CommandLine)
	flag.Parse()

	rt, err := obs.Start("servicechar")
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	if *chaos {
		runChaos(rt.Tracer)
		return
	}
	if *adaptiveF {
		runAdaptive(rt.Tracer)
		return
	}

	all := !(*table1 || *fig6 || *fig7 || *fig8 || *fig9 || *fig10 || *fig11 || *fig12 || *fig13)
	if all || *table1 {
		printTable1()
	}
	if all || *fig6 {
		printFig6()
	}
	if all || *fig7 {
		printFig7()
	}
	if all || *fig8 {
		printItemSizes("CACHE1", "Fig 8", cache1Types())
	}
	if all || *fig9 {
		printItemSizes("CACHE2", "Fig 9", cache2Types())
	}
	if all || *fig10 {
		printDictCurve("CACHE1", "Fig 10", cache1Types())
	}
	if all || *fig11 {
		printDictCurve("CACHE2", "Fig 11", cache2Types())
	}
	if all || *fig12 {
		printFig12()
	}
	if all || *fig13 {
		printFig13()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servicechar:", err)
	os.Exit(1)
}

func printTable1() {
	fmt.Println("=== Table I: characterized services ===")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "service\tcategory\tdescription\tresource boundedness\tkey takeaway")
	rows := [][]string{
		{"DW1", "Data warehouse", "Distributed data delivery service (ingestion, zstd-7)", "Storage bound", "Compute-storage cost trade-offs"},
		{"DW2", "Data warehouse", "Distributed data shuffle service (zstd-1)", "Storage bound", "Compute-storage cost trade-offs"},
		{"DW3", "Data warehouse", "Distributed scheduling framework for data warehouse jobs", "Storage bound", "Compute-storage cost trade-offs"},
		{"DW4", "Data warehouse", "Distributed scheduling framework for ML jobs", "Storage bound", "Compute-storage cost trade-offs"},
		{"ADS1", "Ads", "Ads serving ML inference service", "Network bound", "Network compression and model variance"},
		{"CACHE1", "Caching", "Distributed memory object caching service", "Compute/memory bound", "Small data compression"},
		{"CACHE2", "Caching", "Distributed social graph data store service", "Compute/memory bound", "Small data compression"},
		{"KVSTORE1", "Key-value store", "Large distributed key-value store (LSM)", "Storage bound", "Different block sizes"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", r[0], r[1], r[2], r[3], r[4])
	}
	w.Flush()
	fmt.Println()
}

// fig6Map pairs the paper's service names with the calibrated fleet
// profiles.
var fig6Map = []struct {
	paper, fleetName string
	paperPct         float64
}{
	{"DW1", "dw-ingestion", 28.5},
	{"DW2", "dw-shuffle", 30.0},
	{"DW3", "dw-spark", 13.5},
	{"DW4", "dw-ml", 8.0},
	{"ADS1", "ads-serving", 4.2},
	{"CACHE1", "cache1", 5.2},
	{"CACHE2", "cache2", 4.5},
	{"KVSTORE1", "kvstore1", 15.0},
}

func printFig6() {
	fmt.Println("=== Fig 6: compute cycles (%) used by Zstd per service ===")
	p := &fleet.Profiler{Samples: 1_000_000, Seed: *seed, MeasureBytes: 512 << 10}
	r, err := p.Profile(fleet.DefaultFleet())
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "service\tzstd % (profiled)\tcalibration target")
	for _, m := range fig6Map {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", m.paper, r.ServiceZstdPct[m.fleetName], m.paperPct)
	}
	w.Flush()
	fmt.Println()
}

// fig7Samples is how many zstd compression samples each Fig 7 split is
// read from: each workflow reruns under the CPU profiler until it has them.
const fig7Samples = 200

func printFig7() {
	fmt.Println("=== Fig 7: warehouse splits (measured from the DW workflows) ===")
	ds1, _, err := warehouse.Ingest(*seed, 6, 30000)
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workflow\tcompress %\tdecompress %\tmatch-find % of comp\tentropy % of comp\tsamples\tratio")
	for _, row := range []struct {
		name string
		run  func() (warehouse.Stats, error)
	}{
		{"DW1 ingest (zstd-7)", func() (warehouse.Stats, error) { _, st, err := warehouse.Ingest(*seed, 6, 30000); return st, err }},
		{"DW2 shuffle (zstd-1)", func() (warehouse.Stats, error) { _, st, err := warehouse.Shuffle(ds1, 8); return st, err }},
		{"DW3 spark (zstd-1)", func() (warehouse.Stats, error) { _, st, err := warehouse.SparkWorker(ds1, 3); return st, err }},
		{"DW4 ml (zstd-1)", func() (warehouse.Stats, error) { return warehouse.MLJob(ds1, 2) }},
	} {
		// The time split and ratio are one run's; the stage split is a CPU
		// profile's over reruns.
		st, err := row.run()
		if err != nil {
			fatal(err)
		}
		mf, ent, n, err := warehouse.ProfileStageSplit(fig7Samples, func() {
			if _, err := row.run(); err != nil {
				fatal(err)
			}
		})
		if err != nil {
			fatal(err)
		}
		codecTime := st.CompressTime + st.DecompressTime
		compPct, decompPct := 0.0, 0.0
		if codecTime > 0 {
			compPct = float64(st.CompressTime) / float64(codecTime) * 100
			decompPct = float64(st.DecompressTime) / float64(codecTime) * 100
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%.2f\n",
			row.name, compPct, decompPct, mf*100, ent*100, n, st.CompressionRatio())
	}
	w.Flush()
	fmt.Println("(match-find and entropy: shares of the zstd compression samples in a CPU profile, classified by function as the paper does)")
	fmt.Println("(paper: match finding ≈80% of zstd time for DW1 at level 7, ≈30% for DW4 at level 1)")
	fmt.Println()
}

func cache1Types() []corpus.ItemType {
	t := corpus.DefaultItemTypes()
	return []corpus.ItemType{t[0], t[2]} // user profiles + graph edges
}

func cache2Types() []corpus.ItemType {
	t := corpus.DefaultItemTypes()
	return []corpus.ItemType{t[1], t[3]} // posts + media manifests
}

func printItemSizes(service, figure string, types []corpus.ItemType) {
	fmt.Printf("=== %s: item size distribution for %s ===\n", figure, service)
	h := stats.NewSizeHistogram()
	for i, typ := range types {
		for _, item := range corpus.CacheItems(*seed+int64(i), typ, 20000) {
			h.Observe(len(item))
		}
	}
	fmt.Print(h.String())
	fmt.Printf("mean %.0fB; %.1f%% below 1KiB (paper: strongly skewed small with a long tail)\n\n",
		h.Mean(), h.FractionBelow(1024)*100)
}

func printDictCurve(service, figure string, types []corpus.ItemType) {
	fmt.Printf("=== %s: speed vs ratio, plain vs dictionary, %s ===\n", figure, service)
	// Train one dictionary per type, as the paper's typed caches do.
	var trainSamples [][]byte
	var items [][]byte
	for i, typ := range types {
		trainSamples = append(trainSamples, corpus.CacheItems(*seed+int64(i), typ, 1500)...)
		items = append(items, corpus.CacheItems(*seed+100+int64(i), typ, 400)...)
	}
	d, err := dict.Train(trainSamples, dict.DefaultParams(16<<10))
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "level\tmode\tratio\tcomp MB/s")
	for _, level := range []int{1, 3, 6, 11} {
		for _, mode := range []string{"plain", "dict"} {
			opts := []codec.Option{codec.WithLevel(level)}
			if mode == "dict" {
				opts = append(opts, codec.WithDict(d))
			}
			eng, err := codec.NewEngine("zstd", opts...)
			if err != nil {
				fatal(err)
			}
			m, err := codec.Measure(eng, items, 0, 2)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "%d\t%s\t%.2f\t%.1f\n", level, mode, m.Ratio(), m.CompressMBps())
		}
	}
	w.Flush()
	fmt.Println("(paper: dictionary compression achieves a much higher ratio at every level)")
	fmt.Println()
}

func printFig12() {
	fmt.Println("=== Fig 12: ADS1 ratio and speed by Zstd level (-5..9) per model ===")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\tlevel\tratio\tcomp MB/s")
	for _, m := range corpus.AdsModels() {
		reqs := m.Requests(*seed, 3)
		for _, level := range []int{-5, -3, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
			eng, err := codec.NewEngine("zstd", codec.WithLevel(level))
			if err != nil {
				fatal(err)
			}
			mt, err := codec.Measure(eng, reqs, 0, 1)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.1f\n", m.Name, level, mt.Ratio(), mt.CompressMBps())
		}
	}
	w.Flush()
	fmt.Println("(paper: ratios and speeds vary strongly by model; sparser embeddings compress better)")
	fmt.Println()
}

func printFig13() {
	fmt.Println("=== Fig 13: KVSTORE1 block-size sweep (Zstd level 1) ===")
	sample := corpus.SSTSample(*seed, 4<<20)
	// The store dictionary as a kvstore's first flush trains it: 2 KiB from
	// 64 KiB taken at even spacing across the first 1 MiB memtable.
	var train [][]byte
	for off := 0; off < 1<<20; off += 16 << 10 {
		train = append(train, sample[off:off+1<<10])
	}
	d, err := dict.Train(train, dict.DefaultParams(2<<10))
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "block\tratio\tratio +dict\tratio +tables\tcomp MB/s\tdecomp time/block\t+dict\t+tables")
	for _, bs := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		// The entropy tables a store with this block size trains with the
		// dictionary: on that first memtable cut into its blocks.
		tables, err := zstd.TrainTables(zstd.Options{Level: 1, Dict: d}, codec.SplitBlocks(sample[:1<<20], bs))
		if err != nil {
			fatal(err)
		}
		var ms [3]codec.Metrics
		for i, opts := range [][]codec.Option{nil, {codec.WithDict(d)}, {codec.WithDict(tables)}} {
			eng, err := codec.NewEngine("zstd", append(opts, codec.WithLevel(1))...)
			if err != nil {
				fatal(err)
			}
			if ms[i], err = codec.Measure(eng, [][]byte{sample}, bs, 2); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.1f\t%v\t%v\t%v\n",
			stats.FormatBytes(bs), ms[0].Ratio(), ms[1].Ratio(), ms[2].Ratio(), ms[0].CompressMBps(),
			ms[0].DecompressPerBlock().Round(100*time.Nanosecond),
			ms[1].DecompressPerBlock().Round(100*time.Nanosecond),
			ms[2].DecompressPerBlock().Round(100*time.Nanosecond))
	}
	w.Flush()
	fmt.Println("(paper: larger blocks raise ratio and per-block decompression time; small blocks show non-monotonic speed)")
	fmt.Println("(+dict: a 2 KiB store dictionary trained on a 64 KiB sample wins back the ratio small blocks lose)")
	fmt.Println("(+tables: the same dictionary carrying entropy tables trained on the first 1 MiB in blocks of that size; no block sends its own)")

	// End-to-end flavour: load the LSM store at its defaults — 8 KiB blocks
	// coded against the dictionary its first flush trains — and report its
	// read path. Characterization measures block compression alone, so the
	// WAL is off.
	ctx := context.Background()
	db, err := kvstore.Open(ctx, "", kvstore.WithSeed(*seed), kvstore.WithoutWAL())
	if err != nil {
		fatal(err)
	}
	pairs := corpus.KVPairs(*seed, 30000)
	for _, kv := range pairs {
		if err := db.Put(ctx, kv.Key, kv.Value); err != nil {
			fatal(err)
		}
	}
	if err := db.Flush(ctx); err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < 500; i++ {
		if _, _, err := db.Get(ctx, pairs[rng.Intn(len(pairs))].Key); err != nil {
			fatal(err)
		}
	}
	st := db.Stats()
	fmt.Printf("end-to-end LSM (8KiB blocks, store dictionary with tables): ratio %.2f, write amp %.2f, decomp/block %v, cache hits %d\n\n",
		st.CompressionRatio(), st.WriteAmplification(),
		st.DecompressPerBlock().Round(100*time.Nanosecond), st.BlockCacheHits)
}
