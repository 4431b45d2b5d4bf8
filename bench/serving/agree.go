package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/datacomp/datacomp/internal/stats"
)

// spreadT is the noise model of one metric over a set of runs: median and
// quartiles as Python's statistics.quantiles(values, n=4) gives them — the
// same rule the driver applies to its own ten runs.
type spreadT struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quartiles needs at least two values; one value is its own quartiles.
func quartiles(values []float64) spreadT {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	s := spreadT{N: len(x), Median: stats.Percentile(x, 50)}
	if len(x) < 2 {
		if len(x) == 1 {
			s.Q1, s.Q3 = x[0], x[0]
		}
		return s
	}
	q := func(i int) float64 {
		m := len(x) + 1
		j := min(max(i*m/4, 1), len(x)-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// relSpread is the interquartile distance as a share of the median.
func (s spreadT) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func summarize(runs []*result) map[string]map[string]spreadT {
	values := map[string]map[string][]float64{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v)
		}
	}
	out := map[string]map[string]spreadT{}
	for w, ms := range values {
		out[w] = map[string]spreadT{}
		for name, vs := range ms {
			out[w][name] = quartiles(vs)
		}
	}
	return out
}

func printSummary(w io.Writer, set *resultSet) {
	fmt.Fprintf(w, "== summary  seed=%d trace=%v  nproc=%d GOMAXPROCS=%d %s commit=%s GOGC=%s open-loop rate=%g/s\n",
		set.Seed, set.Trace, set.Env.NProc, set.Env.GOMAXPROCS, set.Env.GoVersion, set.Env.Commit, set.Env.GOGC, set.Env.OpenLoopRate)
	for _, wl := range workloads {
		ms, ok := set.Summary[wl.name]
		if !ok {
			continue
		}
		for _, d := range printedSet(set.Trace) {
			s := ms[d.name]
			fmt.Fprintf(w, "%-12s %-36s median %14.4f  q1 %14.4f  q3 %14.4f %-6s spread %.4f (n=%d)\n",
				wl.name, d.name, s.Median, s.Q1, s.Q3, d.unit, s.relSpread(), s.N)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles checks two end-to-end result sets of the same code against
// the benchmark's bounds: each set's interquartile spread stays within the
// metric's bound (setup_s excepted, as in the driver), and the second
// median is not worse than the first by more than the bound. The speed
// metrics have no bound; they are printed beside the others so a reader
// sees how far they moved and how wide their spread was.
func agreeFiles(benchPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var bench benchmarkFile
	var a, b resultSet
	for path, v := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "serving:", err)
			return 2
		}
	}
	breaches := 0
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			sa, okA := a.Summary[wl.Name][m.Name]
			sb, okB := b.Summary[wl.Name][m.Name]
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-12s %-30s MISSING from a result set\n", wl.Name, m.Name)
				breaches++
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "BREACH: second median worse than the bound"
				breaches++
			} else if m.Name != "setup_s" && max(sa.relSpread(), sb.relSpread()) > m.Bound {
				verdict = "BREACH: spread wider than the bound"
				breaches++
			}
			fmt.Fprintf(stdout, "%-12s %-30s a %12.4f (spread %.4f)  b %12.4f (spread %.4f)  worse by %+.4f  bound %.2f  %s\n",
				wl.Name, m.Name, sa.Median, sa.relSpread(), sb.Median, sb.relSpread(), worse, m.Bound, verdict)
		}
		for _, d := range speed {
			sa, sb := a.Summary[wl.Name][d.name], b.Summary[wl.Name][d.name]
			fmt.Fprintf(stdout, "%-12s %-30s a %12.4f (spread %.4f)  b %12.4f (spread %.4f)  b/a %.4f  no bound: resolve by paired runs\n",
				wl.Name, d.name, sa.Median, sa.relSpread(), sb.Median, sb.relSpread(), ratio(sb.Median, sa.Median))
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "the two sets agree within the benchmark's bounds")
	return 0
}
