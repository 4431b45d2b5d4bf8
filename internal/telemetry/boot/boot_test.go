package boot

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/trace"
)

func TestStartDisabledIsInert(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	rt, err := f.Start("x")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tracing() || rt.Tracer != nil || rt.Recorder != nil || rt.Server != nil {
		t.Fatalf("flags off but runtime not inert: %+v", rt)
	}
	// Nil tracer must still be usable at call sites.
	if _, h := rt.Tracer.StartRoot(context.Background(), "op"); h.Valid() {
		t.Fatal("disabled runtime produced a live span")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStartTraceAndTelemetry(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "traces.json")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-trace", dump, "-telemetry", ":0"}); err != nil {
		t.Fatal(err)
	}
	rt, err := f.Start("boottest")
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Tracing() || rt.Recorder == nil || rt.Server == nil {
		t.Fatalf("expected tracing+server up: %+v", rt)
	}
	_, span := rt.Tracer.StartRoot(context.Background(), "boot.op")
	span.Child("work").End()
	span.End()

	resp, err := http.Get("http://" + rt.Server.Addr + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "boot.op") {
		t.Fatalf("/debug/traces missing recorded trace:\n%s", body)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(raw)
	if err != nil {
		t.Fatalf("dump does not decode: %v\n%s", err, raw)
	}
	if len(events) != 2 {
		t.Fatalf("dump has %d events, want 2", len(events))
	}
}
