// Command compbench reproduces Figure 1 of the paper: compression ratio
// and compression/decompression speed for Zstd, Zlib and LZ4 across
// compression levels 1-9, on a Silesia-style mixed corpus.
//
// Usage:
//
//	compbench [-size N] [-seed N] [-levels 1,3,5,9] [-algos zstd,zlib,lz4] [-files dickens,xml]
//	          [-telemetry addr] [-trace out.json] [-hold]
//
// With -telemetry, every engine is instrumented, the sweep runs under one
// CPU profile (telemetry.ProfileCPU) with each cell labelled with its
// level, and a telemetry endpoint serves /metrics (Prometheus), /vars
// (JSON), /profile (stage shares on request) and /debug/traces while the
// benchmark runs; a final snapshot and the sweep's cycle shares are
// printed at exit. With -trace, each (file, codec, level) cell
// additionally records one traced compression, and the retained traces
// are dumped as Chrome trace-event JSON at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/telemetry/boot"
)

func main() {
	size := flag.Int("size", 1<<20, "bytes per corpus member")
	seed := flag.Int64("seed", 20230423, "corpus generation seed")
	levelsFlag := flag.String("levels", "1,2,3,4,5,6,7,8,9", "comma-separated levels")
	algosFlag := flag.String("algos", "zstd,zlib,lz4", "comma-separated codecs")
	filesFlag := flag.String("files", "", "comma-separated corpus members (default all)")
	repeats := flag.Int("repeats", 1, "measurement repeats")
	hold := flag.Bool("hold", false, "with -telemetry, keep serving after the run until interrupted")
	obs := boot.Register(flag.CommandLine)
	flag.Parse()

	rt, err := obs.Start("compbench")
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	serveTelemetry := *obs.Telemetry != ""
	instrument := serveTelemetry || rt.Tracing()

	levels, err := parseInts(*levelsFlag)
	if err != nil {
		fatal(err)
	}
	algos := splitList(*algosFlag)
	files := corpus.Silesia(*seed, *size)
	if *filesFlag != "" {
		want := map[string]bool{}
		for _, f := range splitList(*filesFlag) {
			want[f] = true
		}
		kept := files[:0]
		for _, f := range files {
			if want[f.Name] {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	if len(files) == 0 {
		fatal(fmt.Errorf("no corpus members selected"))
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "file\tkind\tcodec\tlevel\tratio\tcomp MB/s\tdecomp MB/s")
	sweep := func() {
		for _, f := range files {
			for _, algo := range algos {
				c, ok := codec.Lookup(algo)
				if !ok {
					fatal(fmt.Errorf("unknown codec %q", algo))
				}
				min, max, _ := c.Levels()
				for _, level := range levels {
					if level < min || level > max {
						continue
					}
					eng, err := c.New(codec.Options{Level: level})
					if err != nil {
						fatal(err)
					}
					var ie *telemetry.Instrumented
					if instrument {
						ie = telemetry.Instrument(eng, telemetry.InstrumentOptions{Codec: algo, Level: level})
						eng = ie
					}
					var m codec.Metrics
					pprof.Do(context.Background(), pprof.Labels("level", strconv.Itoa(level)), func(context.Context) {
						m, err = codec.Measure(eng, [][]byte{f.Data}, 0, *repeats)
					})
					if err != nil {
						fatal(fmt.Errorf("%s %s L%d: %w", f.Name, algo, level, err))
					}
					if rt.Tracing() && ie != nil {
						// One traced compression per cell: the flight recorder
						// retains the slowest cells.
						ctx, root := rt.Tracer.StartRoot(context.Background(), "compbench.measure")
						root.SetStr("file", f.Name).SetStr("codec", algo).SetInt("level", int64(level))
						_, _ = ie.CompressCtx(ctx, nil, f.Data)
						root.End()
					}
					fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%.2f\t%.1f\t%.1f\n",
						f.Name, f.Kind, algo, level, m.Ratio(), m.CompressMBps(), m.DecompressMBps())
				}
			}
		}
	}
	var cycles *telemetry.CycleProfile
	if serveTelemetry {
		if cycles, err = telemetry.ProfileCPU(sweep); err != nil {
			fatal(err)
		}
	} else {
		sweep()
	}
	w.Flush()

	if serveTelemetry {
		fmt.Println()
		fmt.Println("--- telemetry snapshot (/metrics) ---")
		telemetry.WritePrometheus(os.Stdout, telemetry.Default)
		if shares := cycles.StageShares(); len(shares) > 0 {
			fmt.Println()
			fmt.Printf("--- cycle shares of the sweep (%d CPU samples) ---\n", cycles.Total())
			fmt.Print(telemetry.FormatStageShares(shares))
		}
		if *hold && rt.Server != nil {
			fmt.Fprintf(os.Stderr, "compbench: holding telemetry endpoint on http://%s; Ctrl-C to exit\n", rt.Server.Addr)
			select {}
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad level %q", part)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compbench:", err)
	os.Exit(1)
}
