package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms emit cumulative _bucket series with
// `le` labels over the occupied log-linear bucket upper bounds, plus _sum
// and _count.
func WritePrometheus(w io.Writer, r *Registry) {
	helped := map[string]bool{}
	r.Each(func(name, help, unit string, m interface{}) {
		base, labels := splitLabels(name)
		switch v := m.(type) {
		case *Counter:
			writeHeader(w, helped, base, help, "counter")
			fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *Gauge:
			writeHeader(w, helped, base, help, "gauge")
			fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *Histogram:
			writeHeader(w, helped, base, help, "histogram")
			s := v.Snapshot()
			cum := int64(0)
			for _, b := range s.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", base, labelPrefix(labels), b.Upper, cum)
			}
			fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labelPrefix(labels), s.Count)
			fmt.Fprintf(w, "%s_sum%s %d\n", base, labelSuffix(labels), s.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", base, labelSuffix(labels), s.Count)
		}
	})
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func labelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func writeHeader(w io.Writer, helped map[string]bool, base, help, typ string) {
	if helped[base] {
		return
	}
	helped[base] = true
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", base, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
}

// Vars renders the registry as an expvar-style JSON object: counters and
// gauges as numbers, histograms as summary objects with quantiles.
func Vars(r *Registry) map[string]interface{} {
	out := map[string]interface{}{}
	r.Each(func(name, help, unit string, m interface{}) {
		switch v := m.(type) {
		case *Counter:
			out[name] = v.Value()
		case *Gauge:
			out[name] = v.Value()
		case *Histogram:
			s := v.Snapshot()
			out[name] = map[string]interface{}{
				"count":  s.Count,
				"sum":    s.Sum,
				"min":    s.Min,
				"max":    s.Max,
				"mean":   s.Mean,
				"stddev": s.Stddev,
				"p50":    s.Quantile(0.50),
				"p90":    s.Quantile(0.90),
				"p99":    s.Quantile(0.99),
				"unit":   unit,
			}
		}
	})
	return out
}

// profileWindow is how long one /profile request samples the process.
const profileWindow = time.Second

// Handler serves the registry, on-demand cycle profiles and, when rec is
// set, a trace flight recorder:
//
//	/metrics       Prometheus text format
//	/vars          expvar-style JSON
//	/profile       one ProfileCPU over profileWindow: strobelight-style
//	               (stage × codec × level) cycle shares; 409 while another
//	               CPU profile runs
//	/debug/traces  flight-recorded traces: text trees by default,
//	               ?format=json for Chrome trace-event JSON (Perfetto),
//	               ?n=N to bound the count, ?order=recent for newest-first
//	               (default is slowest-first)
func Handler(r *Registry, rec *trace.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, r)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		vars := Vars(r)
		keys := make([]string, 0, len(vars))
		for k := range vars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// Stable key order for scrape diffing.
		var b strings.Builder
		b.WriteString("{\n")
		for i, k := range keys {
			kj, _ := json.Marshal(k)
			vj, _ := json.Marshal(vars[k])
			fmt.Fprintf(&b, "  %s: %s", kj, vj)
			if i < len(keys)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("}\n")
		io.WriteString(w, b.String())
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, req *http.Request) {
		p, err := ProfileCPU(func() { time.Sleep(profileWindow) })
		if errors.Is(err, ErrProfilerBusy) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "samples: %d over %v\n\n", p.Total(), profileWindow)
		io.WriteString(w, FormatStageShares(p.StageShares()))
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		if rec == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		n := 0
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		var traces []trace.TraceData
		if req.URL.Query().Get("order") == "recent" {
			traces = rec.Recent(n)
		} else {
			traces = rec.Slowest(n)
		}
		// Halves of one distributed trace retained together render as one
		// stitched tree.
		traces = trace.Stitch(traces)
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			trace.WriteChromeTrace(w, traces)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d retained traces (?format=json for Perfetto, ?order=recent, ?n=N)\n\n", len(traces))
		for _, td := range traces {
			trace.WriteTree(w, td)
			fmt.Fprintln(w)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "datacomp telemetry: /metrics (Prometheus), /vars (JSON), /profile (stage shares), /debug/traces (flight recorder)")
	})
	return mux
}

// Server is a running telemetry exposition endpoint.
type Server struct {
	Addr string // bound address, usable even when the request was ":0"
	srv  *http.Server
	ln   net.Listener
}

// Serve starts an HTTP exposition server on addr (":0" picks a free port).
// rec may be nil (no /debug/traces).
func Serve(addr string, r *Registry, rec *trace.Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(r, rec)}
	go srv.Serve(ln)
	return &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
