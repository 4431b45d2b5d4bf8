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
)

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
