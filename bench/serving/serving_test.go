package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const benchmarkJSON = "../../BENCHMARK.json"

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(benchmarkJSON, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// driverOutput is the contract's last line.
type driverOutput struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runSmoke(t *testing.T, workload, trace string, tamper func([]byte) []byte) (int, driverOutput, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	status := run([]string{"--workload", workload, "--seed", "1", "--trace", trace, "-ops", "2000", "-outdir", t.TempDir()},
		&stdout, &stderr, tamper)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out driverOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, err, stdout.String(), stderr.String())
	}
	return status, out, stderr.String()
}

// TestSmokeSchema runs all four workloads untraced and traced and checks
// that exactly the metrics BENCHMARK.json names are emitted, with its
// units: neither side may drift from the other.
func TestSmokeSchema(t *testing.T) {
	bench := loadBenchmark(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, bench.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		for trace, named := range map[string][]benchMetric{"0": bench.EndToEnd, "1": bench.PerLayer} {
			status, out, stderr := runSmoke(t, w.name, trace, nil)
			if status != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 2000 {
				t.Errorf("%s trace=%s: status %d, %+v\n%s", w.name, trace, status, out, stderr)
			}
			want := map[string]string{}
			for _, m := range named {
				want[m.Name] = m.Unit
			}
			for name, m := range out.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%s: emitted %q, which BENCHMARK.json does not name", w.name, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%s: %q has unit %q, BENCHMARK.json says %q", w.name, trace, name, m.Unit, unit)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%s: BENCHMARK.json names %q, which was not emitted", w.name, trace, name)
			}
			if trace == "0" {
				for name, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %q is %v; it must never be 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if status := run([]string{"--workload", "get-128-hot", "--trace", "1", "-ops", "400", "-outdir", dir}, &stdout, &stderr, nil); status != 0 {
		t.Fatalf("status %d: %s", status, stderr.String())
	}
	b, err := os.ReadFile(filepath.Join(dir, "spans-get-128-hot-seed1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ops, exchanges int
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s struct {
			ID, Parent, Op int
			Name           string
			Start, End     int64
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.End < s.Start || s.ID == 0 || s.Op == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		switch s.Name {
		case "cluster.get":
			ops++
		case "rpc.exchange":
			exchanges++
			if s.Parent == 0 {
				t.Fatalf("exchange without a parent op: %+v", s)
			}
		}
	}
	// Every Get calls each of the three replicas once.
	if ops == 0 || exchanges < 2*ops {
		t.Fatalf("%d op spans, %d exchange spans", ops, exchanges)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := newOpGen(w, 7).sequenceHash(), newOpGen(w, 7).sequenceHash()
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x and %x", w.name, a, b)
		}
		if c := newOpGen(w, 8).sequenceHash(); c == a {
			t.Errorf("%s: seeds 7 and 8 hash the same", w.name)
		}
	}
}

// TestOpenLoopTimesFromDue stalls one op and checks that the next op's
// latency, timed from its due time, includes the stall.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		rate    = 1000.0
		stalled = 5
		stall   = 60 * time.Millisecond
	)
	var mu sync.Mutex
	lat := map[uint64]time.Duration{}
	backlogMax := runOpenLoop(rate, 0, 12, 1, func(_ int, i uint64, due time.Time) {
		if i == stalled {
			time.Sleep(stall)
		}
		mu.Lock()
		lat[i] = time.Since(due)
		mu.Unlock()
	})
	if lat[stalled+1] < stall-2*time.Millisecond {
		t.Errorf("op after the stall reports %v; from its due time it waited at least %v", lat[stalled+1], stall-time.Millisecond)
	}
	if lat[stalled-1] > stall/2 {
		t.Errorf("op before the stall reports %v", lat[stalled-1])
	}
	if backlogMax < 10 {
		t.Errorf("backlog_max %d after a %v stall at %v ops/s", backlogMax, stall, rate)
	}
}

// TestWrongValueFails flips a byte in every Get result: the run must count
// failures and exit non-zero.
func TestWrongValueFails(t *testing.T) {
	tamper := func(v []byte) []byte {
		if len(v) > 0 {
			v[len(v)-1] ^= 0xff
		}
		return v
	}
	status, out, stderr := runSmoke(t, "get-128-hot", "0", tamper)
	if status == 0 || out.Correct || out.Failed == 0 {
		t.Fatalf("tampered run: status %d, %+v", status, out)
	}
	if !strings.Contains(stderr, "get_wrong_value") {
		t.Errorf("stderr does not name the error class:\n%s", stderr)
	}
}

func TestModelAcceptsAckedOrLater(t *testing.T) {
	pool := newValuePool("records", 1, 64)
	m := newModel(1, pool)
	var scratch []byte
	value := func(s uint64) []byte { return pool.appendValue(nil, s) }
	if from := m.floorAt(0); from != -1 || m.check(0, from, nil, false, &scratch) != nil {
		t.Errorf("a missing value failed for a key never written (floor %d)", from)
	}
	for _, s := range []uint64{1, 2} {
		m.beginPut(0, s)
		m.endPut(0, nil)
	}
	m.beginPut(0, 3)
	m.endPut(0, errors.New("indeterminate"))
	// 4 and 5 overlap: the cluster may version them in either order, so
	// once 5 is acknowledged 4 is still a legal read, and 3 no longer is.
	expect := func(want map[uint64]bool) {
		t.Helper()
		from := m.floorAt(0)
		for s, ok := range want {
			if err := m.check(0, from, value(s), true, &scratch); (err == nil) != ok {
				t.Errorf("stamp %d: check says %v, want ok=%v", s, err, ok)
			}
		}
		if err := m.check(0, from, nil, false, &scratch); err == nil {
			t.Error("a missing value passed for a key with an acknowledged write")
		}
	}
	expect(map[uint64]bool{1: false, 2: true, 3: true, 4: false})
	m.beginPut(0, 4)
	m.beginPut(0, 5)
	m.endPut(0, nil)
	expect(map[uint64]bool{2: false, 3: false, 4: true, 5: true, 6: false})
	m.endPut(0, nil)
	expect(map[uint64]bool{3: false, 4: true, 5: true})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if s := quartiles([]float64{3, 1, 2}); s.Q1 != 1 || s.Q3 != 3 {
		t.Errorf("got %+v", s)
	}
}

func TestAgree(t *testing.T) {
	bench := loadBenchmark(t)
	set := func(scale float64) string {
		rs := resultSet{Summary: map[string]map[string]spreadT{}}
		for _, w := range bench.Workloads {
			rs.Summary[w.Name] = map[string]spreadT{}
			for _, m := range bench.EndToEnd {
				v := 100.0
				if m.Name == "alloc_bytes_per_op" {
					v *= scale
				}
				rs.Summary[w.Name][m.Name] = spreadT{N: 3, Median: v, Q1: v, Q3: v}
			}
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := writeJSON(path, &rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if status := agreeFiles(benchmarkJSON, set(1), set(1.03), &out, &out); status != 0 {
		t.Errorf("3%% more alloc_bytes_per_op breached:\n%s", out.String())
	}
	out.Reset()
	if status := agreeFiles(benchmarkJSON, set(1), set(1.5), &out, &out); status == 0 {
		t.Errorf("50%% more alloc_bytes_per_op passed:\n%s", out.String())
	}
}
