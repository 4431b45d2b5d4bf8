// Command fleetchar reproduces the paper's fleet-level characterization
// (Section III): it profiles the calibrated synthetic fleet with the
// sampling profiler and prints
//
//	– the overall compression share of fleet cycles and its per-algorithm
//	  breakdown (§III-B: 4.6% total; Zstd 3.9%, LZ4 0.4%, Zlib 0.3%),
//	– Fig 2: Zstd cycle share per service category,
//	– Fig 3: compression/decompression split per category and fleet-wide,
//	– Fig 4: Zstd level usage by cycles,
//	– Fig 5: block size distribution across services,
//	– the real codec measurements backing the volumes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/fleet"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/telemetry/boot"
)

func main() {
	samples := flag.Int("samples", 2_000_000, "profiler samples")
	seed := flag.Int64("seed", 30, "profiling seed")
	measureBytes := flag.Int("measure-bytes", 1<<20, "bytes per configuration measurement")
	obs := boot.Register(flag.CommandLine)
	flag.Parse()

	rt, err := obs.Start("fleetchar")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetchar:", err)
		os.Exit(1)
	}
	defer rt.Close()

	p := &fleet.Profiler{Samples: *samples, Seed: *seed, MeasureBytes: *measureBytes}
	r, err := p.Profile(fleet.DefaultFleet())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetchar:", err)
		os.Exit(1)
	}

	if rt.Tracing() {
		// One traced compression per measured fleet configuration: the
		// exported traces time each (codec, level, data kind) with its raw
		// and compressed sizes.
		for _, m := range r.Measured {
			data, err := fleet.GenerateKind(m.Kind, *seed, *measureBytes)
			if err != nil {
				continue
			}
			ie, err := telemetry.InstrumentedEngine(m.Algorithm,
				codec.Options{Level: m.Level}, telemetry.InstrumentOptions{})
			if err != nil {
				continue
			}
			ctx, root := rt.Tracer.StartRoot(context.Background(), "fleetchar.measure")
			root.SetStr("codec", m.Algorithm).SetInt("level", int64(m.Level)).
				SetStr("data", string(m.Kind))
			_, _ = ie.CompressCtx(ctx, nil, data)
			root.End()
		}
	}

	fmt.Printf("=== Fleet-level characterization (%d sampled stacks) ===\n\n", r.Samples)
	fmt.Printf("Compression share of fleet cycles: %.2f%%  (paper: 4.6%%)\n", r.TotalCompressionPct)
	algos := make([]string, 0, len(r.AlgorithmPct))
	for a := range r.AlgorithmPct {
		algos = append(algos, a)
	}
	sort.Slice(algos, func(i, j int) bool { return r.AlgorithmPct[algos[i]] > r.AlgorithmPct[algos[j]] })
	for _, a := range algos {
		fmt.Printf("  %-5s %.2f%%\n", a, r.AlgorithmPct[a])
	}

	fmt.Printf("\n--- Fig 2: Zstd cycles (%%) by service category ---\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "category\tzstd % of cycles\t")
	for _, cat := range fleet.Categories() {
		fmt.Fprintf(w, "%s\t%.1f\t%s\n", cat, r.CategoryZstdPct[cat],
			bar(r.CategoryZstdPct[cat], 25))
	}
	w.Flush()

	fmt.Printf("\n--- Fig 3: compression/decompression split by cycles ---\n")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "category\tcompress %\tdecompress %")
	for _, cat := range fleet.Categories() {
		s := r.CategorySplit[cat]
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", cat, s.CompressPct, s.DecompressPct)
	}
	fmt.Fprintf(w, "fleet\t%.1f\t%.1f\n", r.FleetSplit.CompressPct, r.FleetSplit.DecompressPct)
	w.Flush()

	fmt.Printf("\n--- Fig 4: Zstd level usage by compute cycles ---\n")
	levels := make([]int, 0, len(r.LevelCyclesPct))
	for l := range r.LevelCyclesPct {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "level\t% of zstd cycles\t")
	for _, l := range levels {
		fmt.Fprintf(w, "%d\t%.1f\t%s\n", l, r.LevelCyclesPct[l], bar(r.LevelCyclesPct[l], 60))
	}
	w.Flush()
	fmt.Printf("levels 1-4 total: %.1f%%  (paper: >50%%)\n", r.LowLevelCyclesPct())

	fmt.Printf("\n--- Fig 5: block size distribution across services ---\n")
	fmt.Print(r.BlockSizes.String())

	fmt.Printf("\n--- Measured codec performance backing the volumes ---\n")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "codec\tlevel\tdata\tblock\tratio\tcomp MB/s\tdecomp MB/s\tcycles/B (comp)")
	for _, m := range r.Measured {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%.2f\t%.1f\t%.1f\t%.1f\n",
			m.Algorithm, m.Level, m.Kind, m.BlockSize, m.Ratio,
			m.CompressMBps, m.DecompressMBps, fleet.CyclesPerByte(m.CompressMBps))
	}
	w.Flush()
}

func bar(pct float64, scale int) string {
	n := int(pct * float64(scale) / 100)
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}
