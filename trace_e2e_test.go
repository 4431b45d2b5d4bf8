package datacomp_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/rpc"
	"github.com/datacomp/datacomp/internal/telemetry"
	"github.com/datacomp/datacomp/internal/trace"
)

// TestTraceEndToEnd drives one traced request through the full spine:
// a client Call whose span context crosses the RPC frame header, a server
// handler, and transport compression on both directions. It then asserts
// the pieces the tracing work promises: one stitched trace holding client
// and server halves with rpc spans; a latency histogram exemplar naming
// that trace; the flight recorder retaining it among the slowest; and a
// Chrome trace-event export that survives its own decoder.
func TestTraceEndToEnd(t *testing.T) {
	rec := trace.NewRecorder(8, 16)
	tracer := trace.New(trace.Config{SampleEvery: 1, Recorder: rec})

	comp := rpc.Compression{Codec: "zstd", Level: 1}
	server := rpc.NewServer(comp, rpc.WithServerTracer(tracer))
	server.Register("store", rpc.Func(func(req []byte) ([]byte, error) { return req[:1024], nil }))

	cc, sc := net.Pipe()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = server.ServeConn(context.Background(), sc)
	}()
	client, err := rpc.NewClient(cc, comp, rpc.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}

	// Large, compressible payload: well past the transport's MinSize, so
	// both directions exercise the codec.
	payload := corpus.LogLines(99, 96<<10)
	if _, err := client.Call(context.Background(), "store", payload); err != nil {
		t.Fatal(err)
	}
	client.Close()
	cc.Close()
	<-serveDone

	// Both halves land in the recorder asynchronously with respect to the
	// client's return; wait for the stitched view to hold the server side.
	var td trace.TraceData
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found bool
		for _, cand := range trace.Stitch(rec.Snapshot()) {
			if cand.Find("rpc.call") != nil && cand.Find("rpc.serve") != nil {
				td, found = cand, true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stitched client+server trace; snapshot: %+v", rec.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stitched tree must carry every layer's spans.
	for _, name := range []string{
		"rpc.call",     // client root
		"rpc.serve",    // server half, parented on the wire context
		"rpc.compress", // transport codec work
	} {
		if td.Find(name) == nil {
			t.Errorf("stitched trace missing %q span", name)
		}
	}
	if t.Failed() {
		var b bytes.Buffer
		trace.WriteTree(&b, td)
		t.Fatalf("trace tree:\n%s", b.String())
	}
	if root := td.Root(); root == nil || root.Name != "rpc.call" {
		t.Fatalf("stitched root = %+v, want rpc.call", td.Root())
	}

	// The call-latency histogram's exemplar resolves back to this trace.
	callNS := telemetry.Default.Histogram("rpc_call_ns", "client call latency end to end", "ns")
	exemplars := map[uint64]bool{}
	for _, b := range callNS.Snapshot().Buckets {
		exemplars[b.Exemplar] = true
	}
	if !exemplars[uint64(td.ID)] {
		t.Fatalf("no rpc_call_ns bucket carries exemplar %d; saw %v", td.ID, exemplars)
	}

	// The flight recorder retains the trace in its slowest set.
	if !rec.Contains(td.ID) {
		t.Fatal("flight recorder no longer contains the trace")
	}
	var inSlowest bool
	for _, s := range rec.Slowest(0) {
		if s.ID == td.ID {
			inSlowest = true
		}
	}
	if !inSlowest {
		t.Fatal("trace absent from the slowest-N set")
	}

	// The Chrome export of the stitched trace round-trips through its own
	// decoder with every span represented.
	var out bytes.Buffer
	if err := trace.WriteChromeTrace(&out, []trace.TraceData{td}); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(out.Bytes())
	if err != nil {
		t.Fatalf("chrome export does not decode: %v\n%s", err, out.String())
	}
	if len(events) != len(td.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(events), len(td.Spans))
	}
}

// TestTraceUnsampledRPCStaysUntraced covers the version-gating contract
// from the other side: with tracing disabled (nil tracer) the client must
// emit frames without the trace flag, which an old-format parser accepts
// unchanged.
func TestTraceUnsampledRPCStaysUntraced(t *testing.T) {
	comp := rpc.Compression{Codec: "", Level: 0}
	server := rpc.NewServer(comp)
	server.Register("echo", rpc.Func(func(req []byte) ([]byte, error) { return req, nil }))
	cc, sc := net.Pipe()
	go func() { _ = server.ServeConn(context.Background(), sc) }()
	defer cc.Close()

	client, err := rpc.NewClient(cc, comp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(context.Background(), "echo", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	client.Close()
}
