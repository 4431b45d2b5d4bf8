package telemetry

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/trace"
)

// InstrumentOptions configure Instrument.
type InstrumentOptions struct {
	// Codec and Level label the metrics (e.g. codec="zstd", level=3).
	Codec string
	Level int
	// Registry receives the metrics (nil = Default).
	Registry *Registry
}

// Instrumented wraps a codec.Engine and publishes per-operation telemetry:
// operation counters, raw/compressed byte counters, and latency and
// input-size histograms. Per-stage attribution (match finding vs entropy
// coding) is ProfileCPU's, read from the runtime's own sampler. Like all
// engines, an Instrumented is not safe for concurrent use.
type Instrumented struct {
	eng codec.Engine

	compressOps   *Counter
	decompressOps *Counter
	errors        *Counter
	rawBytes      *Counter
	compBytes     *Counter
	compressNS    *Histogram
	decompressNS  *Histogram
	inputSize     *Histogram

	// opSpan is the active CompressCtx/DecompressCtx operation's span (zero
	// when untraced), named by the latency histograms' exemplars.
	opSpan trace.SpanHandle
}

// Instrument wraps eng with telemetry. The wrapper registers its metrics
// once, labelled {codec, level}; instrumenting several engines with the
// same labels aggregates into the same metrics.
func Instrument(eng codec.Engine, opts InstrumentOptions) *Instrumented {
	reg := opts.Registry
	if reg == nil {
		reg = Default
	}
	lbl := func(name string) string {
		return Label(name, "codec", opts.Codec, "level", strconv.Itoa(opts.Level))
	}
	ie := &Instrumented{
		eng:           eng,
		compressOps:   reg.Counter(lbl("codec_compress_ops_total"), "compression operations"),
		decompressOps: reg.Counter(lbl("codec_decompress_ops_total"), "decompression operations"),
		errors:        reg.Counter(lbl("codec_errors_total"), "failed codec operations"),
		rawBytes:      reg.Counter(lbl("codec_compress_raw_bytes_total"), "bytes entering compression"),
		compBytes:     reg.Counter(lbl("codec_compress_compressed_bytes_total"), "bytes leaving compression"),
		compressNS:    reg.Histogram(lbl("codec_compress_ns"), "compression latency", "ns"),
		decompressNS:  reg.Histogram(lbl("codec_decompress_ns"), "decompression latency", "ns"),
		inputSize:     reg.Histogram(lbl("codec_compress_input_bytes"), "compression input size", "bytes"),
	}
	// Latency histograms carry exemplars so a tail bucket names the trace
	// that landed there.
	ie.compressNS.EnableExemplars()
	ie.decompressNS.EnableExemplars()
	return ie
}

// Unwrap returns the underlying engine.
func (ie *Instrumented) Unwrap() codec.Engine { return ie.eng }

// Compress implements codec.Engine.
func (ie *Instrumented) Compress(dst, src []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := ie.eng.Compress(dst, src)
	dur := time.Since(t0)
	if err != nil {
		ie.errors.Inc()
		return out, err
	}
	ie.compressOps.Inc()
	ie.rawBytes.Add(int64(len(src)))
	ie.compBytes.Add(int64(len(out) - len(dst)))
	ie.compressNS.ObserveTraced(dur.Nanoseconds(), uint64(ie.opSpan.TraceID()))
	ie.inputSize.Observe(int64(len(src)))
	return out, nil
}

// Decompress implements codec.Engine.
func (ie *Instrumented) Decompress(dst, src []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := ie.eng.Decompress(dst, src)
	dur := time.Since(t0)
	if err != nil {
		ie.errors.Inc()
		return out, err
	}
	ie.decompressOps.Inc()
	ie.decompressNS.ObserveTraced(dur.Nanoseconds(), uint64(ie.opSpan.TraceID()))
	return out, nil
}

// CompressCtx is Compress under a traced request: the operation gets a
// "codec.compress" span, and the latency histogram's exemplar names the
// trace. An untraced context — including tracing enabled but this request
// unsampled — takes the exact Compress path with zero allocations.
func (ie *Instrumented) CompressCtx(ctx context.Context, dst, src []byte) ([]byte, error) {
	h := trace.FromContext(ctx)
	if !h.Valid() {
		return ie.Compress(dst, src)
	}
	sp := h.Child("codec.compress")
	ie.opSpan = sp
	out, err := ie.Compress(dst, src)
	ie.opSpan = trace.SpanHandle{}
	if err != nil {
		sp.End()
		return out, err
	}
	sp.SetInt("raw", int64(len(src))).SetInt("comp", int64(len(out)-len(dst))).End()
	return out, nil
}

// DecompressCtx is Decompress under a traced request, as CompressCtx.
func (ie *Instrumented) DecompressCtx(ctx context.Context, dst, src []byte) ([]byte, error) {
	h := trace.FromContext(ctx)
	if !h.Valid() {
		return ie.Decompress(dst, src)
	}
	sp := h.Child("codec.decompress")
	ie.opSpan = sp
	out, err := ie.Decompress(dst, src)
	ie.opSpan = trace.SpanHandle{}
	if err != nil {
		sp.End()
		return out, err
	}
	sp.SetInt("comp", int64(len(src))).SetInt("raw", int64(len(out)-len(dst))).End()
	return out, nil
}

// InstrumentedEngine builds an engine via the registry and instruments it
// in one step — the convenience the cmd/ tools use.
func InstrumentedEngine(name string, opts codec.Options, iopts InstrumentOptions) (*Instrumented, error) {
	c, ok := codec.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown codec %q", name)
	}
	if opts.Level == 0 {
		_, _, opts.Level = c.Levels()
	}
	eng, err := c.New(opts)
	if err != nil {
		return nil, err
	}
	iopts.Codec = name
	iopts.Level = opts.Level
	return Instrument(eng, iopts), nil
}
