package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/trace"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests").Add(5)
	r.Gauge("depth", "queue depth").Set(-2)
	h := r.Histogram("lat_ns", "latency", "ns")
	h.Observe(3)
	h.Observe(100)
	labelled := r.Counter(Label("ops_total", "codec", "zstd"), "ops")
	labelled.Add(7)

	var b strings.Builder
	WritePrometheus(&b, r)
	out := b.String()

	for _, want := range []string{
		"# HELP reqs_total requests",
		"# TYPE reqs_total counter",
		"reqs_total 5",
		"# TYPE depth gauge",
		"depth -2",
		"# TYPE lat_ns histogram",
		"lat_ns_sum 103",
		"lat_ns_count 2",
		`lat_ns_bucket{le="+Inf"} 2`,
		`ops_total{codec="zstd"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}

	// Cumulative bucket counts must be non-decreasing.
	cum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_ns_bucket") {
			continue
		}
		var c int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &c); err != nil {
			t.Fatalf("unparsable bucket line %q", line)
		}
		if c < cum {
			t.Fatalf("bucket counts not cumulative:\n%s", out)
		}
		cum = c
	}
}

func TestWritePrometheusLabelledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label("lat_ns", "codec", "zstd", "level", "3"), "latency", "ns")
	h.Observe(50)
	var b strings.Builder
	WritePrometheus(&b, r)
	out := b.String()
	// The le label must merge into the existing label set.
	if !strings.Contains(out, `lat_ns_bucket{codec="zstd",level="3",le="+Inf"} 1`) {
		t.Fatalf("labelled histogram buckets malformed:\n%s", out)
	}
	if !strings.Contains(out, `lat_ns_sum{codec="zstd",level="3"} 50`) {
		t.Fatalf("labelled histogram sum malformed:\n%s", out)
	}
}

func TestVars(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(3)
	h := r.Histogram("h", "", "ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	vars := Vars(r)
	if vars["c"] != int64(3) {
		t.Fatalf("counter var = %v", vars["c"])
	}
	hv, ok := vars["h"].(map[string]interface{})
	if !ok {
		t.Fatalf("histogram var type %T", vars["h"])
	}
	if hv["count"] != int64(100) || hv["unit"] != "ns" {
		t.Fatalf("histogram summary = %v", hv)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(9)

	rec := trace.NewRecorder(4, 4)
	tracer := trace.New(trace.Config{SampleEvery: 1, Recorder: rec})
	_, span := tracer.StartRoot(context.Background(), "req")
	span.Child("codec.compress").End()
	span.End()

	srv, err := Serve(":0", r, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "served_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	varsOut := get("/vars")
	var decoded map[string]interface{}
	if err := json.Unmarshal([]byte(varsOut), &decoded); err != nil {
		t.Fatalf("/vars is not valid JSON: %v\n%s", err, varsOut)
	}
	if decoded["served_total"] != float64(9) {
		t.Fatalf("/vars counter = %v", decoded["served_total"])
	}
	// /profile samples the whole process for profileWindow: a zstd loop
	// running meanwhile shows up in its shares.
	skipIfProfilerBusy(t)
	stop := make(chan struct{})
	looped := make(chan struct{})
	go func() {
		defer close(looped)
		eng, _ := codec.NewEngine("zstd", codec.WithLevel(3))
		data := corpus.LogLines(1, 128<<10)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = eng.Compress(nil, data)
			}
		}
	}()
	out := func() string {
		defer func() { close(stop); <-looped }()
		return get("/profile")
	}()
	if !strings.Contains(out, "samples:") || !strings.Contains(out, "zstd") {
		t.Fatalf("/profile missing samples:\n%s", out)
	}
	// One CPU profile at a time: /profile refuses while another runs.
	release, started, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		ProfileCPU(func() { close(started); <-release })
	}()
	<-started
	busy, err := http.Get("http://" + srv.Addr + "/profile")
	close(release)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	busy.Body.Close()
	if busy.StatusCode != http.StatusConflict {
		t.Fatalf("/profile during another profile: status %d, want 409", busy.StatusCode)
	}
	if out := get("/"); !strings.Contains(out, "/metrics") {
		t.Fatalf("index missing endpoint list:\n%s", out)
	}
	if out := get("/debug/traces"); !strings.Contains(out, "req") || !strings.Contains(out, "codec.compress") {
		t.Fatalf("/debug/traces missing recorded trace:\n%s", out)
	}
	jsonOut := get("/debug/traces?format=json")
	if _, err := trace.ParseChromeTrace([]byte(jsonOut)); err != nil {
		t.Fatalf("/debug/traces?format=json not loadable: %v\n%s", err, jsonOut)
	}

	resp, err := http.Get("http://" + srv.Addr + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", resp.StatusCode)
	}
}
