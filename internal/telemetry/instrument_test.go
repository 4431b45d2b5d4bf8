package telemetry

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/trace"
)

func testPayload(t *testing.T) []byte {
	t.Helper()
	return corpus.LogLines(42, 256<<10)
}

func TestInstrumentedRoundtrip(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"zstd", "lz4", "zlib"} {
		t.Run(name, func(t *testing.T) {
			ie, err := InstrumentedEngine(name, codec.Options{}, InstrumentOptions{Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			data := testPayload(t)
			comp, err := ie.Compress(nil, data)
			if err != nil {
				t.Fatal(err)
			}
			out, err := ie.Decompress(nil, comp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("roundtrip mismatch through instrumented engine")
			}
			if ie.Unwrap() == nil {
				t.Fatal("Unwrap returned nil")
			}
		})
	}
}

func TestInstrumentedMetrics(t *testing.T) {
	reg := NewRegistry()
	ie, err := InstrumentedEngine("zstd", codec.Options{Level: 3}, InstrumentOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(t)
	comp, err := ie.Compress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ie.Decompress(nil, comp); err != nil {
		t.Fatal(err)
	}

	lbl := func(name string, extra ...string) string {
		kv := append([]string{"codec", "zstd", "level", "3"}, extra...)
		return Label(name, kv...)
	}
	if got := reg.Counter(lbl("codec_compress_ops_total"), "").Value(); got != 1 {
		t.Fatalf("compress ops = %d", got)
	}
	if got := reg.Counter(lbl("codec_decompress_ops_total"), "").Value(); got != 1 {
		t.Fatalf("decompress ops = %d", got)
	}
	if got := reg.Counter(lbl("codec_compress_raw_bytes_total"), "").Value(); got != int64(len(data)) {
		t.Fatalf("raw bytes = %d, want %d", got, len(data))
	}
	if got := reg.Counter(lbl("codec_compress_compressed_bytes_total"), "").Value(); got != int64(len(comp)) {
		t.Fatalf("compressed bytes = %d, want %d", got, len(comp))
	}
	if reg.Histogram(lbl("codec_compress_ns"), "", "ns").Count() != 1 {
		t.Fatal("latency histogram not observed")
	}
	if reg.Histogram(lbl("codec_compress_input_bytes"), "", "bytes").Count() != 1 {
		t.Fatal("input size histogram not observed")
	}
}

func TestInstrumentedStageAttribution(t *testing.T) {
	// The wrapper keeps zstd's stage functions on the stack: a profile of
	// instrumented compressions splits them into match finding and entropy
	// coding.
	ie, err := InstrumentedEngine("zstd", codec.Options{Level: 3}, InstrumentOptions{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(t)
	mf := SampleKey{Codec: "zstd", Dir: DirCompress, Stage: StageMatchFind}
	ent := SampleKey{Codec: "zstd", Dir: DirCompress, Stage: StageEntropy}
	profileUntil(t, func(p *CycleProfile) bool {
		s := p.Samples()
		return s[mf] > 0 && s[ent] > 0
	}, func() { _, _ = ie.Compress(nil, data) })
}
func TestInstrumentedDefaultLevelLabel(t *testing.T) {
	// Level 0 resolves to the codec's default so metrics are labelled with
	// the real level, not 0.
	reg := NewRegistry()
	if _, err := InstrumentedEngine("zstd", codec.Options{}, InstrumentOptions{Registry: reg}); err != nil {
		t.Fatal(err)
	}
	found := false
	reg.Each(func(name, help, unit string, m interface{}) {
		if strings.Contains(name, `level="0"`) {
			t.Fatalf("metric labelled with level 0: %s", name)
		}
		if strings.Contains(name, "codec_compress_ops_total") {
			found = true
		}
	})
	if !found {
		t.Fatal("no metrics registered")
	}
}

func TestInstrumentedEngineUnknownCodec(t *testing.T) {
	if _, err := InstrumentedEngine("nope", codec.Options{}, InstrumentOptions{}); err == nil {
		t.Fatal("expected error for unknown codec")
	}
}

func TestInstrumentWithProfiler(t *testing.T) {
	// Samples inside an instrumented engine carry its codec and direction
	// and the level label of the goroutine that drives it.
	ie, err := InstrumentedEngine("zstd", codec.Options{Level: 9}, InstrumentOptions{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	data := corpus.LogLines(7, 1<<20)
	p := profileUntil(t, func(p *CycleProfile) bool {
		for k := range p.Samples() {
			if k.Codec != "" {
				return true
			}
		}
		return false
	}, func() {
		pprof.Do(context.Background(), pprof.Labels("level", "9"), func(context.Context) {
			_, _ = ie.Compress(nil, data)
		})
	})
	for k := range p.Samples() {
		if k.Codec != "" && (k.Codec != "zstd" || k.Level != 9 || k.Dir != DirCompress) {
			t.Fatalf("unexpected sample attribution: %+v", k)
		}
	}
}

// TestInstrumentedSteadyStateAllocs asserts the instrumented hot path stays
// allocation-free once warmed — including the context-taking paths when
// tracing is enabled but the request is unsampled, which is the always-on
// production configuration. Scratch reuse must propagate through the
// telemetry wrapper; any alloc here is a regression in the wrapper, the
// histogram observe path, or the unsampled tracing fast path.
func TestInstrumentedSteadyStateAllocs(t *testing.T) {
	reg := NewRegistry()
	ie, err := InstrumentedEngine("zstd", codec.Options{Level: 3}, InstrumentOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	data := corpus.LogLines(42, 64<<10)
	out := make([]byte, 0, 2*len(data))
	comp, err := ie.Compress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	dec := make([]byte, 0, 2*len(data))

	// Plain Engine interface path, warmed.
	if allocs := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = ie.Compress(out[:0], data); err != nil {
			t.Fatal(err)
		}
		if dec, err = ie.Decompress(dec[:0], comp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("instrumented Compress/Decompress: %v allocs/op, want 0", allocs)
	}

	// Ctx path with tracing enabled but this request unsampled: the root
	// start loses sampling, FromContext finds no span, and the whole
	// operation must take the exact untraced path.
	tracer := trace.New(trace.Config{SampleEvery: 1 << 30})
	bg := context.Background()
	if allocs := testing.AllocsPerRun(20, func() {
		ctx, root := tracer.StartRoot(bg, "req")
		var err error
		if out, err = ie.CompressCtx(ctx, out[:0], data); err != nil {
			t.Fatal(err)
		}
		if dec, err = ie.DecompressCtx(ctx, dec[:0], comp); err != nil {
			t.Fatal(err)
		}
		root.End()
	}); allocs != 0 {
		t.Fatalf("enabled-but-unsampled CompressCtx/DecompressCtx: %v allocs/op, want 0", allocs)
	}
}
