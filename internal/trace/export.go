package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// ChromeEvent is one Chrome trace-event ("X" complete event), the format
// Perfetto and chrome://tracing load directly. Timestamps and durations are
// microseconds; Args carries span identity and attributes.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON object format ({"traceEvents": [...]}), which both
// viewers accept and which leaves room for metadata.
type chromeFile struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders traces as Chrome trace-event JSON. Each trace
// becomes one "process" (pid = low bits of the trace ID) so stitched
// client+server halves share a track group; ts is absolute wall time so
// concurrently recorded traces align.
func WriteChromeTrace(w io.Writer, traces []TraceData) error {
	var f chromeFile
	f.TraceEvents = []ChromeEvent{} // encode [] rather than null when empty
	for _, td := range traces {
		pid := int64(uint32(td.ID) & 0x7fffffff)
		for _, sp := range td.Spans {
			ev := ChromeEvent{
				Name:  sp.Name,
				Cat:   "trace",
				Phase: "X",
				TS:    float64(td.Start.Add(sp.Start).UnixNano()) / 1e3,
				Dur:   float64(sp.Dur.Nanoseconds()) / 1e3,
				PID:   pid,
				TID:   1, // one lane: spans nest by time
				Args: map[string]any{
					"trace": strconv.FormatUint(uint64(td.ID), 16),
					"span":  strconv.FormatUint(uint64(sp.ID), 16),
				},
			}
			if sp.Parent != 0 {
				ev.Args["parent"] = strconv.FormatUint(uint64(sp.Parent), 16)
			}
			for _, a := range sp.Attrs {
				if a.IsStr {
					ev.Args[a.Key] = a.Str
				} else {
					ev.Args[a.Key] = a.Int
				}
			}
			f.TraceEvents = append(f.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ParseChromeTrace decodes WriteChromeTrace output — the round-trip check
// the export path is tested against, and a guard that the emitted JSON
// stays loadable.
func ParseChromeTrace(data []byte) ([]ChromeEvent, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: chrome trace decode: %w", err)
	}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" || ev.Phase != "X" {
			return nil, fmt.Errorf("trace: chrome trace event %d malformed (name=%q ph=%q)", i, ev.Name, ev.Phase)
		}
	}
	return f.TraceEvents, nil
}

// WriteTree renders one trace as an indented text tree ordered by start
// time — the quick no-tooling view /debug/traces serves.
func WriteTree(w io.Writer, td TraceData) {
	children := make(map[SpanID][]int, len(td.Spans))
	present := make(map[SpanID]bool, len(td.Spans))
	for i := range td.Spans {
		present[td.Spans[i].ID] = true
	}
	var roots []int
	for i := range td.Spans {
		p := td.Spans[i].Parent
		if p == 0 || !present[p] {
			roots = append(roots, i)
		} else {
			children[p] = append(children[p], i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return td.Spans[idx[a]].Start < td.Spans[idx[b]].Start })
	}
	byStart(roots)
	fmt.Fprintf(w, "trace %016x  start %s  root %s  spans %d",
		uint64(td.ID), td.Start.Format(time.RFC3339Nano), rootDurData(td), len(td.Spans))
	if td.Dropped > 0 {
		fmt.Fprintf(w, "  (%d spans dropped)", td.Dropped)
	}
	fmt.Fprintln(w)
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		sp := &td.Spans[idx]
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
		fmt.Fprintf(w, "%s  +%s %s", sp.Name, sp.Start.Round(time.Microsecond), sp.Dur.Round(time.Microsecond))
		for _, a := range sp.Attrs {
			if a.IsStr {
				fmt.Fprintf(w, " %s=%s", a.Key, a.Str)
			} else {
				fmt.Fprintf(w, " %s=%d", a.Key, a.Int)
			}
		}
		fmt.Fprintln(w)
		kids := children[sp.ID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 1)
	}
}
