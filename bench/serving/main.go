// Command serving is the repository's serving-path benchmark: it drives an
// in-process three-node, RF=3 internal/cluster with the default node
// configuration from one process with two client goroutines, checks every
// result against a model, and reports end-to-end metrics (untraced) or
// per-layer metrics (traced, measured from outside the layers' public
// functions). bench/README.md has the modes, the metric glossary and the
// reasons for each workload; BENCHMARK.json names every metric and fixes
// the regression bounds.
//
//	go run ./bench/serving -seed 1                        # four workloads, end to end
//	go run ./bench/serving -seed 1 -trace 1               # four workloads, per layer
//	go run ./bench/serving -seed 1 -repeat 3 -out a.json  # interleaved repeats, medians and quartiles
//	go run ./bench/serving -agree a.json b.json           # compare two result sets against the bounds
//	go run ./bench/serving --workload put-2k --seed 1 --seconds 15 --trace 0   # one run, JSON last line
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics a run emits, untraced and traced.
// BENCHMARK.json lists the same names and units (a test checks the two
// against each other) and adds the bounds.
var endToEnd = []metricDef{
	{"wire_bytes_per_op", "B"},
	{"written_bytes_per_user_byte", "B/B"},
	{"space_bytes_per_user_byte", "B/B"},
	{"coded_bytes_per_user_byte", "B/B"},
	{"alloc_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// speed is measured and printed by every run, but only the traced run's
// result carries it, in the per-layer set, which has no bounds: this
// sandbox's timing noise (bench/README.md, Noise) is wider than a third of
// the widest bound the contract allows.
var speed = []metricDef{
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"op_p50_us", "us"},
}

var perLayer = append(append([]metricDef{{"failed_frac", "frac"}}, speed...), []metricDef{
	{"get_p50_us", "us"}, {"get_p99_us", "us"}, {"put_p50_us", "us"}, {"put_p99_us", "us"},
	{"cluster.put_ns", "ns"}, {"cluster.get_ns", "ns"}, {"cluster.owners_ns", "ns"},
	{"cluster.self_ns_per_op", "ns"}, {"cluster.read_repairs_per_kop", "1/kop"},
	{"cluster.replica_errors_per_kop", "1/kop"}, {"cluster.quorum_failures", "count"},
	{"rpc.exchange_ns", "ns"}, {"rpc.call_echo_ns", "ns"}, {"rpc.encode_frame_ns", "ns"},
	{"rpc.parse_frame_ns", "ns"}, {"rpc.calls_per_op", "count"}, {"rpc.compress_ns_per_op", "ns"},
	{"rpc.decompress_ns_per_op", "ns"}, {"rpc.raw_bytes_per_op", "B"}, {"rpc.wire_bytes_per_op", "B"},
	{"rpc.saved_frac", "frac"}, {"xxhash.sum64_ns_per_kib", "ns/KiB"},
	{"codec.lz4_compress_ns", "ns"}, {"codec.lz4_decompress_ns", "ns"},
	{"codec.zstd_block_compress_ns", "ns"}, {"codec.zstd_block_decompress_ns", "ns"},
	{"codec.value_ratio", "x"}, {"codec.block_ratio", "x"},
	{"codec.busy_frac", "frac"}, {"codec.wal_est_frac", "frac"},
	{"container.append_record_ns", "ns"}, {"container.decode_record_ns", "ns"},
	{"container.decode_block_ns", "ns"}, {"container.blocks_decoded_per_get", "count"},
	{"kvstore.put_ns", "ns"}, {"kvstore.get_ns", "ns"}, {"kvstore.put_max_us", "us"},
	{"kvstore.put_dir_syncalways_ns", "ns"}, {"kvstore.put_dir_synccheckpoint_ns", "ns"},
	{"kvstore.wal_bytes_per_user_byte", "B/B"}, {"kvstore.write_amp", "x"}, {"kvstore.flushes", "count"},
	{"kvstore.compactions", "count"}, {"kvstore.snapshots", "count"}, {"kvstore.compress_ns_per_put", "ns"},
	{"kvstore.decompress_ns_per_get", "ns"}, {"kvstore.blocks_read_per_get", "count"},
	{"kvstore.bytes_decompressed_per_get", "B"}, {"kvstore.block_cache_hit_frac", "frac"},
	{"process.allocs_per_op", "count"},
	{"process.gc_pause_ms", "ms"}, {"process.peak_rss_mb", "MB"},
	{"loadgen.late_p99_us", "us"}, {"loadgen.achieved_rate_frac", "frac"}, {"loadgen.backlog_max", "count"},
	{"loadgen.op_sequence_xxh64", "hash"}, {"trace.overhead_frac", "frac"},
	{"ledger.explained_frac", "frac"}, {"ledger.unexplained_ns_per_op", "ns"},
}...)

// metricSet is what a run's result line carries.
func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printedSet is what a run prints: the untraced run shows speed as well.
func printedSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), speed...)
}

// environment is recorded in every result file.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	GOGC         string  `json:"gogc"`
	OpenLoopRate float64 `json:"open_loop_rate_ops_s"`
	Clients      int     `json:"clients"`
}

func currentEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", GOGC: os.Getenv("GOGC"), OpenLoopRate: openLoopRate, Clients: clients,
	}
	if env.GOGC == "" {
		env.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultSet is what -repeat writes and -agree reads.
type resultSet struct {
	Env     environment                   `json:"env"`
	Seed    int64                         `json:"seed"`
	Trace   bool                          `json:"trace"`
	Seconds float64                       `json:"seconds"`
	Runs    []*result                     `json:"runs"`
	Summary map[string]map[string]spreadT `json:"summary"` // workload → metric → spread
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  attempted=%d failed=%d failed_frac=%g\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, d := range printedSet(res.Trace) {
		line := fmt.Sprintf("%-36s %16.4f %s", d.name, res.Metrics[d.name], d.unit)
		if n, ok := res.Samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
}

// driverLine is the contract's last line of output for a single run.
func driverLine(res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range metricSet(res.Trace) {
		out.Metrics[d.name] = mv{res.Metrics[d.name], d.unit}
	}
	return json.Marshal(out)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run is main with its streams as parameters. tamper, nil outside tests,
// rewrites every Get result before it is checked.
func run(args []string, stdout, stderr io.Writer, tamper func([]byte) []byte) int {
	fs := flag.NewFlagSet("serving", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := fs.Float64("seconds", 15, "size of the measured phase: this many seconds' worth of ops at the workload's frozen nominal rate")
	ops := fs.Int("ops", 0, "smoke run: measure this many ops instead, with the key population cut to match")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 1, "run the workloads this many times, interleaved, and report median and quartiles")
	out := fs.String("out", "", "write the result set here (default <outdir>/results-seed<N>.json)")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for span files, result sets and temp dirs")
	agree := fs.Bool("agree", false, "compare two result sets (args: a.json b.json) against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "serving: -agree takes two result files")
			return 2
		}
		return agreeFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "serving: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "serving:", err)
		return 1
	}

	set := resultSet{Env: currentEnvironment(), Seed: *seed, Trace: *trace != 0, Seconds: *seconds}
	status := 0
	for k := 0; k < *repeat; k++ {
		for _, w := range selected {
			cfg := runConfig{
				w: w.scaled(*ops), seed: *seed, ops: *ops, smoke: *ops > 0, trace: *trace != 0,
				outDir: *outDir, stderr: stderr, tamper: tamper,
			}
			if !cfg.smoke {
				cfg.ops = int(w.opsPerSec * *seconds)
			}
			if cfg.ops < 10*clients {
				fmt.Fprintf(stderr, "serving: %s: %d ops is too short a measured phase\n", w.name, cfg.ops)
				return 2
			}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				fmt.Fprintf(stderr, "serving: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, res)
			if !res.correct() {
				status = 1
			}
			set.Runs = append(set.Runs, res)
			runtime.GC()
			debug.FreeOSMemory()
		}
	}

	if len(set.Runs) == 1 {
		line, err := driverLine(set.Runs[0])
		if err != nil {
			fmt.Fprintln(stderr, "serving:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return status
	}

	set.Summary = summarize(set.Runs)
	printSummary(stdout, &set)
	path := *out
	if path == "" {
		path = filepath.Join(*outDir, fmt.Sprintf("results-seed%d.json", *seed))
	}
	if err := writeJSON(path, &set); err != nil {
		fmt.Fprintln(stderr, "serving:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return status
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
