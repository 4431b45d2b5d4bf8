// Package telemetry is the repository's observability subsystem: a
// concurrent metrics registry (counters, gauges, log-linear histograms), a
// codec instrumentation wrapper that attributes time to compressor stages,
// a strobelight-style sampling profiler over in-flight operations, and
// Prometheus-text/expvar exposition over HTTP.
//
// The paper's entire measurement substrate is a fleet-wide sampled profiler
// attributing cycles to codec functions (§III); this package is that layer
// for the reproduction. Hot paths are lock-free: counters and histogram
// buckets are atomics, and registration is get-or-create so call sites can
// keep metric pointers.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. Safe for concurrent
// use; Add is a single atomic operation.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric is the registry's view of one named instrument.
type metric interface {
	kind() string
}

func (c *Counter) kind() string   { return "counter" }
func (g *Gauge) kind() string     { return "gauge" }
func (h *Histogram) kind() string { return "histogram" }

type entry struct {
	name string
	help string
	unit string
	m    metric
}

// Registry is a concurrent collection of named metrics. Metric names may
// carry a Prometheus-style label suffix (see Label); two registrations of
// the same name return the same instrument, and the first one's help, so a
// reader can look a metric up by name.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide shared registry the subsystems publish into.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if absent.
// It panics if name is already registered as a different metric kind —
// that is a programming error, like a duplicate flag.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.getOrCreate(name, help, "", func() metric { return &Counter{} })
	c, ok := e.m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q registered as %s, requested counter", name, e.m.kind()))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.getOrCreate(name, help, "", func() metric { return &Gauge{} })
	g, ok := e.m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q registered as %s, requested gauge", name, e.m.kind()))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// absent. unit documents the observed value's unit ("ns", "bytes").
func (r *Registry) Histogram(name, help, unit string) *Histogram {
	e := r.getOrCreate(name, help, unit, func() metric { return newHistogram() })
	h, ok := e.m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q registered as %s, requested histogram", name, e.m.kind()))
	}
	return h
}

func (r *Registry) getOrCreate(name, help, unit string, mk func() metric) *entry {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e
	}
	e = &entry{name: name, help: help, unit: unit, m: mk()}
	r.entries[name] = e
	return e
}

// Each calls fn for every registered metric in sorted name order.
func (r *Registry) Each(fn func(name, help, unit string, m interface{})) {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	entries := make([]*entry, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		entries = append(entries, r.entries[n])
	}
	r.mu.RUnlock()
	for _, e := range entries {
		fn(e.name, e.help, e.unit, e.m)
	}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Label appends a Prometheus-style label set to a metric name:
// Label("rpc_calls_total", "side", "client") → `rpc_calls_total{side="client"}`.
// Values are escaped per the exposition format.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("telemetry: Label requires key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitLabels separates a metric name from its optional label suffix.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}
