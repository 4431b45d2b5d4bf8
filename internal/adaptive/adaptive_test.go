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

func testController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
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
		if err := h.adopt(core.Result{Config: cfg, Feasible: true}); err != nil {
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
		if err := h.adopt(core.Result{Config: core.Config{Algorithm: "zstd", Level: 3, Dict: d}, Feasible: true}); err != nil {
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
	c := testController(t, Config{RetainGenerations: 2, SampleEvery: 1})
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
		if err := h.adopt(core.Result{Config: core.Config{Algorithm: "zstd", Level: lvl}, Feasible: true}); err != nil {
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

func TestControllerConvergesUnderSLO(t *testing.T) {
	// Records compress well with zstd; the default is hobbled to zlib-1 so
	// a cheaper feasible challenger must displace it within a few rounds.
	// Compute is priced at zero so the verdict rides on measured ratio
	// alone — measured speed varies wildly under -race and slow CI.
	params := core.DefaultCostParams()
	params.AlphaCompute = 0
	c := testController(t, Config{
		Default:  core.Config{Algorithm: "zlib", Level: 1},
		Params:   params,
		Interval: 5 * time.Millisecond,
		Budget:   0.5,
		// Keep trials cheap and eager for the test.
		MinSamples: 4, SampleEvery: 1, ReservoirSize: 8,
		ChallengersPerRound: 5,
		Constraints:         core.Constraints{MinCompressMBps: 1},
	})
	h, err := c.Handle("records")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		src := corpus.Records(time.Now().UnixNano()%1000, 8<<10)
		if _, err := h.Compress(nil, src); err != nil {
			t.Fatal(err)
		}
		if h.swaps.Load() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if h.swaps.Load() == 0 {
		t.Fatal("controller never swapped off the hobbled default")
	}
	st := c.Status()[0]
	if !st.Feasible {
		t.Fatalf("adopted config %s was not SLO-feasible", st.Config)
	}
	if st.Config == "(zlib, 1)" {
		t.Fatal("still serving the default after a recorded swap")
	}
	d, ok := h.Report()
	if !ok {
		t.Fatal("no decision recorded")
	}
	if d.DefaultCost <= 0 || d.IncumbentCost <= 0 {
		t.Fatalf("decision costs not populated: %+v", d)
	}
}

func TestControllerNeverAdoptsInfeasible(t *testing.T) {
	// An impossible SLO: nothing compresses at 1 TB/s, so the controller
	// must keep the incumbent and report infeasibility rather than swap.
	c := testController(t, Config{
		Interval:   5 * time.Millisecond,
		Budget:     0.5,
		MinSamples: 4, SampleEvery: 1, ReservoirSize: 8,
		ChallengersPerRound: 5,
		Constraints:         core.Constraints{MinCompressMBps: 1e6},
	})
	h, err := c.Handle("impossible")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 50; i++ {
		if _, err := h.Compress(nil, corpus.LogLines(int64(i), 8<<10)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// Give the worker time for several rounds.
	time.Sleep(100 * time.Millisecond)
	if got := h.swaps.Load(); got != 0 {
		t.Fatalf("controller swapped %d times with no feasible candidate", got)
	}
	if d, ok := h.Report(); ok && d.Feasible {
		t.Fatal("decision claims feasibility under an impossible SLO")
	}
}

func TestReservoirSamples(t *testing.T) {
	c := testController(t, Config{SampleEvery: 1, ReservoirSize: 8, SampleBytes: 128})
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

// TestControllerPressure drives trial rounds by hand against a speed SLO of
// a quarter of the ratio-heavy default's measured speed. A serving path
// timed 8× slower than the shadow tightens the SLO to twice the default's
// speed, so the default turns infeasible and lz4 (2.5–4.6× faster than
// zstd-9 on these payloads, the low end under -race) takes over; a quarter
// rather than half leaves lz4 that headroom. Once the live path keeps up again
// the margin rule moves back; and live traffic alone never moves a fresh
// class. Compute is priced at zero, as in TestControllerConvergesUnderSLO,
// so every verdict but feasibility rides on measured ratio.
func TestControllerPressure(t *testing.T) {
	params := core.DefaultCostParams()
	params.AlphaCompute = 0
	heavy := core.Config{Algorithm: "zstd", Level: 9}
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = corpus.Records(int64(i), 8<<10)
	}
	// Measured the way a trial round measures: warm engine, one pass.
	probe := &core.CompEngine{Samples: payloads, Params: params}
	if _, err := probe.Evaluate(heavy); err != nil {
		t.Fatal(err)
	}
	r, err := probe.Evaluate(heavy)
	if err != nil {
		t.Fatal(err)
	}
	speed := r.Metrics.CompressMBps()
	rec := trace.NewRecorder(8, 16)
	cfg := Config{
		Default:             heavy,
		Candidates:          []core.Config{heavy, {Algorithm: "lz4", Level: 1}},
		Params:              params,
		Constraints:         core.Constraints{MinCompressMBps: speed / 4},
		MinSamples:          len(payloads),
		SampleEvery:         1,
		ReservoirSize:       len(payloads),
		ChallengersPerRound: 1,
		Tracer:              trace.New(trace.Config{SampleEvery: 1, Recorder: rec}),
	}
	bound := (len(cfg.Candidates)+cfg.ChallengersPerRound-1)/cfg.ChallengersPerRound + 1
	c := testController(t, cfg)
	// serve runs one round of live traffic through h. warm runs the first
	// round of a class, which builds its engines, and drains its timings
	// untried; it also warms the shadow's engine for the default, so no
	// round prices a cold first measurement.
	var dst []byte
	serve := func(h *Handle) {
		for _, p := range payloads {
			var err error
			if dst, err = h.Compress(dst[:0], p); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm := func(class string) *Handle {
		h, err := c.Handle(class)
		if err != nil {
			t.Fatal(err)
		}
		serve(h)
		h.cur.Load().pressure(0, 0)
		h.shadow.Samples = payloads
		if _, err := h.shadow.Evaluate(heavy); err != nil {
			t.Fatal(err)
		}
		return h
	}

	steady := warm("steady")
	for round := 0; round < 20; round++ {
		serve(steady)
		c.trial(steady)
		if d, _ := steady.Report(); d.Swapped {
			t.Fatalf("unpressured class swapped in round %d: %+v", round, d)
		}
	}

	h := warm("pressed")
	slow := time.Duration(float64(8<<10) * 1e3 / (speed / 8)) // 8 KiB at speed/8
	var d Decision
	for round := 1; h.swaps.Load() == 0; round++ {
		if round > bound {
			t.Fatalf("no swap within %d pressured rounds; last decision %+v", bound, d)
		}
		for range payloads {
			h.cur.Load().record(8<<10, slow)
		}
		c.trial(h)
		d, _ = h.Report()
	}
	if h.Config().Algorithm != "lz4" || d.Pressure < 4 || !d.Swapped {
		t.Fatalf("pressured swap: serving %s, decision %+v; want lz4 at pressure ≥ 4", h.Config(), d)
	}
	var swap *trace.SpanData
	for _, td := range rec.Snapshot() {
		if s := td.Find("adaptive.swap"); s != nil {
			swap = s
		}
	}
	if swap == nil {
		t.Fatal("no adaptive.swap span recorded")
	}
	if attrStr(swap.Attrs, "from") != heavy.String() || attrStr(swap.Attrs, "to") != h.Config().String() ||
		attrInt(swap.Attrs, "pressure_milli") < 4000 {
		t.Fatalf("adaptive.swap attrs %+v; want from %s, to %s, pressure_milli ≥ 4000", swap.Attrs, heavy, h.Config())
	}

	for round := 1; h.swaps.Load() == 1; round++ {
		if round > bound {
			t.Fatalf("no swap back within %d live rounds; last decision %+v", bound, d)
		}
		serve(h)
		c.trial(h)
		d, _ = h.Report()
	}
	if !configEqual(h.Config(), heavy) {
		t.Fatalf("swapped back to %s, want %s; decision %+v", h.Config(), heavy, d)
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

func attrInt(attrs []trace.Attr, key string) int64 {
	for _, a := range attrs {
		if a.Key == key {
			return a.Int
		}
	}
	return -1
}

// TestHandleCompressAllocs pins the hot path with every op sampled: the
// reservoir copy lands in a recycled slot and the live timing in atomics.
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
	for i := 0; i < 2*c.cfg.ReservoirSize; i++ {
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
