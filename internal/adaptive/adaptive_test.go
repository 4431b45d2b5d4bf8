package adaptive

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/core"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/dict"
	"github.com/datacomp/datacomp/internal/trace"
)

// raceEnabled is set by raceflag_test.go under the race detector.
var raceEnabled bool

// testController builds a controller and applies each tune to its fixed
// parameters before any class is made.
func testController(t *testing.T, cfg Config, tune ...func(*tuning)) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(&c.tuning)
	}
	t.Cleanup(c.Close)
	return c
}

func TestFrameRoundtrip(t *testing.T) {
	hdr := appendHeader(nil, 42, codecLZ4, 7)
	payload := []byte("the payload")
	frame := append(hdr, payload...)
	gen, id, dict, rest, err := ParseFrame(frame)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if gen != 42 || id != codecLZ4 || dict != 7 || !bytes.Equal(rest, payload) {
		t.Fatalf("parse got gen=%d id=%d dict=%d rest=%q", gen, id, dict, rest)
	}
	// Only 0xAD opens a frame; 0xAC is rejected like any other magic.
	for _, bad := range [][]byte{nil, {0x00}, {0xAC, 0, 'x'}, {magicAdaptive}, {magicAdaptive, 1}, {magicAdaptive, 1, 0xEE, 0}} {
		if _, _, _, _, err := ParseFrame(bad); !errors.Is(err, ErrFrame) {
			t.Fatalf("malformed frame %x: err=%v, want ErrFrame", bad, err)
		}
	}
}

func TestHandleRoundtripAcrossSwaps(t *testing.T) {
	c := testController(t, Config{SampleEvery: 1})
	h, err := c.Handle("test")
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		corpus.LogLines(1, 8<<10),
		corpus.Records(2, 8<<10),
		corpus.SourceCode(3, 8<<10),
	}
	configs := []core.Config{
		{Algorithm: "lz4", Level: 1},
		{Algorithm: "zstd", Level: 9},
		{Algorithm: "zlib", Level: 1},
		{Algorithm: "zstd", Level: 1, WindowLog: 16},
	}
	type frame struct {
		gen  uint64
		data []byte
		want []byte
	}
	var frames []frame
	for i, cfg := range configs {
		src := payloads[i%len(payloads)]
		out, err := h.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{gen: h.Generation(), data: out, want: src})
		if err := h.Adopt(cfg); err != nil {
			t.Fatal(err)
		}
		if h.Generation() != uint64(i+2) {
			t.Fatalf("generation %d after %d swaps", h.Generation(), i+1)
		}
	}
	// Every frame — including ones whose encoder generation was retired —
	// must decode, and its header must name the generation that wrote it.
	for i, f := range frames {
		gen, _, _, _, err := ParseFrame(f.data)
		if err != nil {
			t.Fatalf("frame %d: parse: %v", i, err)
		}
		if gen != f.gen {
			t.Fatalf("frame %d: header generation %d, encoded under %d", i, gen, f.gen)
		}
		out, err := h.Decompress(nil, f.data)
		if err != nil {
			t.Fatalf("frame %d (gen %d): %v", i, f.gen, err)
		}
		if !bytes.Equal(out, f.want) {
			t.Fatalf("frame %d (gen %d): content mismatch", i, f.gen)
		}
	}
	if h.decodeOld.Load() == 0 {
		t.Fatal("expected retired-generation decodes")
	}
}

func TestDictGenerationsStayDecodable(t *testing.T) {
	c := testController(t, Config{SampleEvery: 1})
	h, err := c.Handle("dict")
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]byte, 32)
	for i := range samples {
		samples[i] = corpus.Records(int64(i), 4<<10)
	}
	// Train two successive dictionaries, encoding one frame under each —
	// the managed-dict discipline: retrain must not orphan old frames.
	var frames [][]byte
	src := corpus.Records(99, 4<<10)
	for round := 0; round < 2; round++ {
		d, err := dict.Train(samples[round*8:], dict.DefaultParams(2<<10))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Adopt(core.Config{Algorithm: "zstd", Level: 3, Dict: d}); err != nil {
			t.Fatal(err)
		}
		out, err := h.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, out)
	}
	for i, f := range frames {
		_, _, dictID, _, err := ParseFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if dictID == 0 {
			t.Fatalf("frame %d carries no dictionary id", i)
		}
		out, err := h.Decompress(nil, f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("frame %d: content mismatch", i)
		}
	}
}

func TestSwapsKeepSharedPoolsBounded(t *testing.T) {
	c := testController(t, Config{SampleEvery: 1}, func(s *tuning) { s.retain = 2 })
	h, err := c.Handle("bounded")
	if err != nil {
		t.Fatal(err)
	}
	base := codec.SharedPoolCount()
	src := corpus.LogLines(5, 4<<10)
	var frames [][]byte
	for lvl := 1; lvl <= 12; lvl++ {
		out, err := h.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, out)
		if err := h.Adopt(core.Config{Algorithm: "zstd", Level: lvl}); err != nil {
			t.Fatal(err)
		}
		// Current + retained retired generations may hold registry slots;
		// everything older must have been released.
		if got := codec.SharedPoolCount(); got > base+3 {
			t.Fatalf("shared registry grew to %d pools after %d swaps (base %d)", got, lvl, base)
		}
	}
	// Frames from evicted generations still decode via private pools.
	for i, f := range frames {
		out, err := h.Decompress(nil, f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("frame %d: content mismatch", i)
		}
	}
}

func TestControllerConverges(t *testing.T) {
	// Records compress well with zstd; the default is hobbled to zlib-1 so
	// a cheaper challenger must displace it within a few rounds. Compute is
	// priced at zero so the verdict rides on measured ratio alone —
	// measured speed varies wildly under -race and slow CI.
	c := testController(t, Config{
		Default:  core.Config{Algorithm: "zlib", Level: 1},
		Interval: 5 * time.Millisecond,
		// Keep trials cheap and eager for the test.
		MinSamples: 4, SampleEvery: 1,
	}, func(s *tuning) {
		s.params.AlphaCompute = 0
		s.budget = 0.5
		s.reservoirSize = 8
		s.perRound = 5
	})
	h, err := c.Handle("records")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// A round records its decision after its swap: wait for both.
	var d Decision
	recorded := false
	deadline := time.Now().Add(10 * time.Second)
	for !(recorded && h.swaps.Load() > 0) && time.Now().Before(deadline) {
		src := corpus.Records(time.Now().UnixNano()%1000, 8<<10)
		if _, err := h.Compress(nil, src); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		d, recorded = h.Report()
	}
	if h.swaps.Load() == 0 {
		t.Fatal("controller never swapped off the hobbled default")
	}
	if st := c.Status()[0]; st.Config == "(zlib, 1)" {
		t.Fatal("still serving the default after a recorded swap")
	}
	if !recorded {
		t.Fatal("no decision recorded")
	}
	if d.DefaultCost <= 0 || d.IncumbentCost <= 0 {
		t.Fatalf("decision costs not populated: %+v", d)
	}
}

func TestReservoirSamples(t *testing.T) {
	c := testController(t, Config{SampleEvery: 1}, func(s *tuning) {
		s.reservoirSize = 8
		s.sampleBytes = 128
	})
	h, err := c.Handle("res")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		src := bytes.Repeat([]byte{byte(i)}, 1024)
		if _, err := h.Compress(nil, src); err != nil {
			t.Fatal(err)
		}
	}
	samples := h.snapshotSamples()
	if len(samples) != 8 {
		t.Fatalf("reservoir holds %d samples, want 8", len(samples))
	}
	for _, s := range samples {
		if len(s) != 128 {
			t.Fatalf("sample length %d, want capped 128", len(s))
		}
	}
	// The copies are the controller's: a later write to a slot must not
	// reach a snapshot already taken.
	want := bytes.Clone(samples[0])
	h.resMu.Lock()
	for _, s := range h.slots {
		clear(s)
	}
	h.resMu.Unlock()
	if !bytes.Equal(samples[0], want) {
		t.Fatal("a slot write changed the snapshot taken before it")
	}
	// Each slot's copy buffer is kept across rounds.
	if n := testing.AllocsPerRun(10, func() { h.snapshotSamples() }); n != 0 {
		t.Fatalf("warmed snapshot: %v allocs, want 0", n)
	}
}

// TestControllerMarginRule drives trial rounds by hand over a two-point
// space, zstd-9 and lz4-1. Compute is priced at zero, as in
// TestControllerConverges, so every verdict rides on measured ratio alone:
// a class serving zstd-9 on live traffic never swaps, and a class forced
// onto lz4-1 returns to zstd-9 within the rotation bound, recording the
// swap in an adaptive.swap span.
func TestControllerMarginRule(t *testing.T) {
	heavy := core.Config{Algorithm: "zstd", Level: 9}
	light := core.Config{Algorithm: "lz4", Level: 1}
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = corpus.Records(int64(i), 8<<10)
	}
	rec := trace.NewRecorder(8, 16)
	c := testController(t, Config{
		Default:     heavy,
		MinSamples:  len(payloads),
		SampleEvery: 1,
		Tracer:      trace.New(trace.Config{SampleEvery: 1, Recorder: rec}),
	}, func(s *tuning) {
		s.candidates = []core.Config{heavy, light}
		s.params.AlphaCompute = 0
		s.reservoirSize = len(payloads)
		s.perRound = 1
	})
	bound := (len(c.candidates)+c.perRound-1)/c.perRound + 1
	// serve runs one round of live traffic through h.
	var dst []byte
	serve := func(h *Handle) {
		for _, p := range payloads {
			var err error
			if dst, err = h.Compress(dst[:0], p); err != nil {
				t.Fatal(err)
			}
		}
	}
	handle := func(class string) *Handle {
		h, err := c.Handle(class)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	steady := handle("steady")
	for round := 0; round < 20; round++ {
		serve(steady)
		c.trial(steady)
		if d, ok := steady.Report(); !ok || d.Swapped {
			t.Fatalf("steady class in round %d: decision %+v (recorded %v), want one without a swap", round, d, ok)
		}
	}

	h := handle("forced")
	if err := h.Adopt(light); err != nil {
		t.Fatal(err)
	}
	var d Decision
	for round := 1; h.swaps.Load() == 1; round++ {
		if round > bound {
			t.Fatalf("no swap back within %d rounds; last decision %+v", bound, d)
		}
		serve(h)
		c.trial(h)
		d, _ = h.Report()
	}
	if !configEqual(h.Config(), heavy) || !d.Swapped || d.From != light.String() {
		t.Fatalf("swapped to %s, decision %+v; want %s from %s", h.Config(), d, heavy, light)
	}
	var swaps []*trace.SpanData
	for _, td := range rec.Snapshot() {
		if s := td.Find("adaptive.swap"); s != nil {
			swaps = append(swaps, s)
		}
	}
	if len(swaps) != 1 {
		t.Fatalf("%d adaptive.swap spans recorded, want 1 (the controller's; Adopt traces none)", len(swaps))
	}
	if attrStr(swaps[0].Attrs, "from") != light.String() || attrStr(swaps[0].Attrs, "to") != heavy.String() {
		t.Fatalf("adaptive.swap attrs %+v; want from %s, to %s", swaps[0].Attrs, light, heavy)
	}
}

func attrStr(attrs []trace.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

// TestHandleCompressAllocs pins the hot path with every op sampled: the
// reservoir copy lands in a recycled slot.
func TestHandleCompressAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	c := testController(t, Config{SampleEvery: 1})
	h, err := c.Handle("allocs")
	if err != nil {
		t.Fatal(err)
	}
	src := corpus.Records(7, 4<<10)
	dst := make([]byte, 0, 8<<10)
	op := func() {
		if _, err := h.Compress(dst[:0], src); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*c.reservoirSize; i++ {
		op()
	}
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Fatalf("warmed Handle.Compress: %v allocs/op, want 0", n)
	}
}

func BenchmarkHandleCompress(b *testing.B) {
	c, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	h, err := c.Handle("bench")
	if err != nil {
		b.Fatal(err)
	}
	src := corpus.Records(7, 4<<10)
	dst := make([]byte, 0, 8<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.Compress(dst[:0], src)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}
