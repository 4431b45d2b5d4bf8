// Package boot is the shared observability bootstrap for the cmd/ tools:
// one flag set (-telemetry, -trace, -trace-sample) and one
// setup/teardown path instead of a divergent copy per command. A command
// registers the flags, calls Start after flag.Parse, and defers Close:
//
//	obs := boot.Register(flag.CommandLine)
//	flag.Parse()
//	rt, err := obs.Start("mytool")
//	defer rt.Close()
//
// The runtime hands back the pieces commands thread into their work: the
// Tracer for context roots and the Recorder behind /debug/traces. The
// server's /profile takes a CPU profile on request (telemetry.ProfileCPU).
package boot

import (
	"flag"
	"fmt"
	"os"

	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
)

// Flags holds the registered flag values until Start reads them.
type Flags struct {
	Telemetry   *string
	Trace       *string
	TraceSample *int
}

// Register installs the shared observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		Telemetry: fs.String("telemetry", "",
			"serve telemetry on this address (e.g. :8080 or :0): /metrics /vars /profile /debug/traces"),
		Trace: fs.String("trace", "",
			"enable request tracing and write retained traces as Chrome trace-event JSON to this file at exit (use - for none; view in Perfetto)"),
		TraceSample: fs.Int("trace-sample", 1,
			"with -trace, sample one request in N (1 = every request)"),
	}
}

// Runtime is the started observability stack. Zero-valued fields mean the
// corresponding flag was off; every field is safe to use regardless (a nil
// tracer is inert).
type Runtime struct {
	Tracer   *trace.Tracer
	Recorder *trace.Recorder
	Server   *telemetry.Server

	name      string
	tracePath string
}

// Start brings up whatever the flags asked for. name prefixes diagnostics.
func (f *Flags) Start(name string) (*Runtime, error) {
	rt := &Runtime{name: name}
	if *f.Trace != "" {
		rt.Recorder = trace.NewRecorder(0, 0)
		rt.Tracer = trace.New(trace.Config{SampleEvery: *f.TraceSample, Recorder: rt.Recorder})
		if *f.Trace != "-" {
			rt.tracePath = *f.Trace
		}
	}
	if *f.Telemetry != "" {
		srv, err := telemetry.Serve(*f.Telemetry, telemetry.Default, rt.Recorder)
		if err != nil {
			return nil, fmt.Errorf("%s: telemetry: %w", name, err)
		}
		rt.Server = srv
		fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s (/metrics /vars /profile /debug/traces)\n", name, srv.Addr)
	}
	return rt, nil
}

// Tracing reports whether request tracing is on.
func (rt *Runtime) Tracing() bool { return rt.Tracer.Enabled() }

// Close stops the server and, when -trace named a file, dumps
// the flight recorder's retained traces (stitched, slowest first) as Chrome
// trace-event JSON.
func (rt *Runtime) Close() error {
	if rt.Server != nil {
		rt.Server.Close()
	}
	if rt.tracePath == "" || rt.Recorder == nil {
		return nil
	}
	f, err := os.Create(rt.tracePath)
	if err != nil {
		return fmt.Errorf("%s: trace dump: %w", rt.name, err)
	}
	defer f.Close()
	traces := trace.Stitch(rt.Recorder.Slowest(0))
	if err := trace.WriteChromeTrace(f, traces); err != nil {
		return fmt.Errorf("%s: trace dump: %w", rt.name, err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %d traces to %s (load in Perfetto: ui.perfetto.dev)\n",
		rt.name, len(traces), rt.tracePath)
	return nil
}
