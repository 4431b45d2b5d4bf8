package trace

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestNilAndDisabledTracer(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	ctx, h := nilT.StartRoot(context.Background(), "root")
	if h.Valid() {
		t.Fatal("nil tracer produced a valid handle")
	}
	if ctx != context.Background() {
		t.Fatal("nil tracer modified the context")
	}

	off := New(Config{SampleEvery: 0})
	if off.Enabled() {
		t.Fatal("SampleEvery=0 tracer reports enabled")
	}
	if _, h := off.StartRoot(context.Background(), "root"); h.Valid() {
		t.Fatal("disabled tracer sampled a trace")
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var h SpanHandle
	// None of these may panic or allocate.
	h2 := h.Child("c").SetInt("k", 1).SetStr("s", "v")
	h2.End()
	if h2.Valid() || h2.TraceID() != 0 || h2.Context().Valid() {
		t.Fatal("zero handle produced live state")
	}
	if got := testing.AllocsPerRun(100, func() {
		h.Child("c").SetInt("k", 1).End()
	}); got != 0 {
		t.Fatalf("zero-handle ops allocated %v/op", got)
	}
}

func TestUnsampledStartRootAllocs(t *testing.T) {
	tr := New(Config{SampleEvery: 1 << 30})
	ctx := context.Background()
	if got := testing.AllocsPerRun(100, func() {
		c, h := tr.StartRoot(ctx, "root")
		if h.Valid() {
			t.Fatal("unexpected sample")
		}
		_ = c
		h.End()
	}); got != 0 {
		t.Fatalf("unsampled StartRoot allocated %v/op", got)
	}
}

func TestSampleEvery(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 400; i++ {
		_, h := tr.StartRoot(context.Background(), "r")
		if h.Valid() {
			sampled++
			h.End()
		}
	}
	if sampled != 100 {
		t.Fatalf("1-in-4 sampling hit %d/400", sampled)
	}
}

func TestSpanTreeAndAttributes(t *testing.T) {
	rec := NewRecorder(4, 4)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	ctx, root := tr.StartRoot(context.Background(), "root")
	if !root.Valid() {
		t.Fatal("always-sample tracer did not sample")
	}
	id := root.TraceID()
	if id == 0 {
		t.Fatal("zero trace ID")
	}
	if sc := root.Context(); !sc.Valid() || sc.TraceID != id {
		t.Fatalf("bad span context %+v", sc)
	}

	c := root.Child("child").SetInt("block", 3).SetStr("codec", "zstd")
	// Start from context builds a child of the active span.
	_, c2 := Start(ctx, "ctxchild")
	c2.End()
	c.End()
	time.Sleep(time.Millisecond)
	root.End()

	snaps := rec.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(snaps))
	}
	td := snaps[0]
	if td.ID != id {
		t.Fatalf("trace ID %x, want %x", td.ID, id)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.Spans))
	}
	if r := td.Root(); r == nil || r.Name != "root" || r.Dur <= 0 {
		t.Fatalf("bad root %+v", r)
	}
	child := td.Find("child")
	if child == nil || child.Parent != td.Root().ID {
		t.Fatalf("bad child %+v", child)
	}
	attrs := child.Attrs
	if len(attrs) != 2 || attrs[0].Key != "block" || attrs[0].Int != 3 ||
		attrs[1].Key != "codec" || attrs[1].Str != "zstd" || !attrs[1].IsStr {
		t.Fatalf("bad attrs %+v", attrs)
	}
	if cc := td.Find("ctxchild"); cc == nil || cc.Parent != td.Root().ID {
		t.Fatalf("bad context child %+v", cc)
	}
}

func TestMaxSpansDrop(t *testing.T) {
	rec := NewRecorder(1, 1)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	_, root := tr.StartRoot(context.Background(), "root")
	for i := 0; i < MaxSpans+10; i++ {
		root.Child("c").End()
	}
	root.End()
	td := rec.Snapshot()[0]
	if len(td.Spans) != MaxSpans {
		t.Fatalf("got %d spans, want cap %d", len(td.Spans), MaxSpans)
	}
	if td.Dropped != 11 {
		t.Fatalf("dropped %d, want 11", td.Dropped)
	}
}

func TestHandlesInertAfterRecycle(t *testing.T) {
	tr := New(Config{SampleEvery: 1}) // no recorder: End recycles immediately
	_, root := tr.StartRoot(context.Background(), "root")
	c := root.Child("child")
	root.End()
	// The buffer is back in the pool; stale handles must not corrupt the
	// next trace that reuses it.
	c.SetInt("late", 1)
	c.End()
	rec := NewRecorder(1, 1)
	tr2 := New(Config{SampleEvery: 1, Recorder: rec})
	_ = tr2
	_, root2 := tr.StartRoot(context.Background(), "root2")
	c.SetStr("later", "x") // still stale, different generation
	root2.End()
}

func TestUnfinishedSpanClampedToRootEnd(t *testing.T) {
	rec := NewRecorder(1, 1)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	_, root := tr.StartRoot(context.Background(), "root")
	straggler := root.Child("straggler")
	_ = straggler // never ended
	time.Sleep(time.Millisecond)
	root.End()
	td := rec.Snapshot()[0]
	sp := td.Find("straggler")
	if sp == nil || sp.Dur < 0 {
		t.Fatalf("straggler not clamped: %+v", sp)
	}
	rootSp := td.Root()
	if sp.Start+sp.Dur > rootSp.Start+rootSp.Dur {
		t.Fatalf("straggler extends past root end")
	}
}

func TestRecorderSlowestPromotion(t *testing.T) {
	rec := NewRecorder(2, 2)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	// Record traces with increasing durations; with a 2-slot ring and
	// 2-slot slow set, the slowest must survive arbitrary churn.
	var slowID TraceID
	for i := 0; i < 10; i++ {
		_, root := tr.StartRoot(context.Background(), "r")
		d := time.Duration(i%5) * time.Millisecond
		if i == 3 {
			d = 50 * time.Millisecond
			slowID = root.TraceID()
		}
		time.Sleep(d)
		root.End()
	}
	if !rec.Contains(slowID) {
		t.Fatal("slowest trace evicted from recorder")
	}
	slowest := rec.Slowest(1)
	if len(slowest) != 1 || slowest[0].ID != slowID {
		t.Fatalf("Slowest(1) = %+v, want trace %x", slowest, slowID)
	}
	if n := rec.Admits(); n != 10 {
		t.Fatalf("admits %d, want 10", n)
	}
}

func TestRecorderJustCompletedSlowVisible(t *testing.T) {
	rec := NewRecorder(2, 8)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	_, root := tr.StartRoot(context.Background(), "slow")
	id := root.TraceID()
	time.Sleep(5 * time.Millisecond)
	root.End()
	// Still in the recent ring, not yet promoted — Slowest must see it.
	slowest := rec.Slowest(1)
	if len(slowest) != 1 || slowest[0].ID != id {
		t.Fatalf("just-completed slow trace not visible in Slowest")
	}
}

func TestRecorderSteadyStateAllocs(t *testing.T) {
	rec := NewRecorder(4, 4)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	// Warm: fill the ring, slow set, and buffer pool.
	for i := 0; i < 64; i++ {
		_, root := tr.StartRoot(context.Background(), "warm")
		root.Child("c").SetInt("k", int64(i)).End()
		root.End()
	}
	got := testing.AllocsPerRun(200, func() {
		_, root := tr.StartRoot(context.Background(), "steady")
		root.Child("c").SetInt("k", 1).End()
		root.End()
	})
	// context.WithValue allocates for the sampled path (2 allocs: value
	// wrapper + interface box); the trace machinery itself must add none.
	if got > 3 {
		t.Fatalf("sampled steady state allocated %v/op, want <= 3", got)
	}
}

func TestStartRemoteAndStitch(t *testing.T) {
	recC := NewRecorder(4, 4)
	recS := NewRecorder(4, 4)
	client := New(Config{SampleEvery: 1, Recorder: recC})
	server := New(Config{SampleEvery: 1, Recorder: recS})

	ctx, croot := client.StartRoot(context.Background(), "rpc.call")
	callSC := croot.Context()

	_, sroot := server.StartRemote(context.Background(), "rpc.serve", callSC)
	if !sroot.Valid() {
		t.Fatal("StartRemote rejected a valid context")
	}
	if sroot.TraceID() != croot.TraceID() {
		t.Fatal("server half has a different trace ID")
	}
	sroot.Child("handler").End()
	sroot.End()
	_ = ctx
	croot.End()

	// StartRemote with an invalid context must no-op.
	if _, h := server.StartRemote(context.Background(), "x", SpanContext{}); h.Valid() {
		t.Fatal("StartRemote sampled an invalid context")
	}

	all := append(recC.Snapshot(), recS.Snapshot()...)
	stitched := Stitch(all)
	if len(stitched) != 1 {
		t.Fatalf("stitched %d traces, want 1", len(stitched))
	}
	td := stitched[0]
	if len(td.Spans) != 3 {
		t.Fatalf("stitched %d spans, want 3", len(td.Spans))
	}
	if r := td.Root(); r == nil || r.Name != "rpc.call" {
		t.Fatalf("stitched root %+v, want rpc.call", r)
	}
	serve := td.Find("rpc.serve")
	if serve == nil || serve.Parent != td.Root().ID {
		t.Fatalf("rpc.serve not parented under rpc.call: %+v", serve)
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	rec := NewRecorder(2, 2)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	_, root := tr.StartRoot(context.Background(), "root")
	root.Child("block").SetInt("block", 7).End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	var blockEv *ChromeEvent
	for i := range events {
		if events[i].Name == "block" {
			blockEv = &events[i]
		}
	}
	if blockEv == nil {
		t.Fatal("block event missing")
	}
	if blockEv.TID != 1 {
		t.Fatalf("event on tid %d, want 1: every span shares one lane", blockEv.TID)
	}
	if blockEv.Args["block"] != float64(7) {
		t.Fatalf("attrs lost: %+v", blockEv.Args)
	}
	if blockEv.Args["parent"] == nil {
		t.Fatal("parent link lost")
	}

	// Empty export must still be decodable ([]), not null.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("empty export does not round-trip: %v", err)
	}
	if !strings.Contains(buf.String(), "[]") {
		t.Fatalf("empty export emitted %q, want []", buf.String())
	}
}

func TestWriteTree(t *testing.T) {
	rec := NewRecorder(1, 1)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	_, root := tr.StartRoot(context.Background(), "root")
	root.Child("child").SetStr("codec", "zstd").End()
	root.End()
	var buf bytes.Buffer
	WriteTree(&buf, rec.Snapshot()[0])
	out := buf.String()
	for _, want := range []string{"root", "  child", "codec=zstd", "spans 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 0xdeadbeefcafe, SpanID: 0x1234, Sampled: true}
	b := AppendWire(nil, sc)
	if len(b) != WireLen {
		t.Fatalf("encoded %d bytes, want %d", len(b), WireLen)
	}
	got, n, err := ParseWire(b)
	if err != nil || n != WireLen || got != sc {
		t.Fatalf("round trip: %+v n=%d err=%v", got, n, err)
	}
	// Invalid contexts encode to nothing.
	if b := AppendWire(nil, SpanContext{}); len(b) != 0 {
		t.Fatalf("invalid context encoded %d bytes", len(b))
	}
	if b := AppendWire(nil, SpanContext{TraceID: 1, SpanID: 1}); len(b) != 0 {
		t.Fatal("unsampled context encoded")
	}
}

func TestWireHostileInputs(t *testing.T) {
	valid := AppendWire(nil, SpanContext{TraceID: 1, SpanID: 2, Sampled: true})
	cases := map[string][]byte{
		"empty":        {},
		"short":        valid[:WireLen-1],
		"bad version":  append([]byte{99}, valid[1:]...),
		"bad flags":    {1, 0x82, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		"zero trace":   {1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		"zero span":    {1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"flag cleared": {1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range cases {
		sc, n, err := ParseWire(b)
		if err == nil {
			t.Errorf("%s: accepted %+v", name, sc)
		}
		if n != 0 || sc.Valid() {
			t.Errorf("%s: leaked state sc=%+v n=%d", name, sc, n)
		}
	}
	// Trailing bytes after a valid field are the caller's problem; the
	// parser must consume exactly WireLen.
	padded := append(append([]byte{}, valid...), 0xff, 0xff)
	if _, n, err := ParseWire(padded); err != nil || n != WireLen {
		t.Fatalf("padded parse n=%d err=%v", n, err)
	}
}
