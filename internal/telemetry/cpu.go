package telemetry

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Stages a codec sample is attributed to (SampleKey.Stage).
const (
	StageMatchFind = "matchfind"
	StageEntropy   = "entropy"
	StageSerialize = "serialize" // LZ4's token emission: LZ4 has no entropy stage
	StageOther     = "other"     // inside a codec call, in none of the above
)

const pkg = "github.com/datacomp/datacomp/internal/"

// stageSymbols maps the codec functions that do one stage's work to the
// stage, as the paper filters sampled stacks by function name. A symbol
// matches every name it prefixes (a package path ending in "." covers the
// package). A decode-only symbol counts under a Decompress frame only: the
// encoders reach fse, huffman and bits from encodeBlockPayload and
// encodeDynamic.
var stageSymbols = []struct {
	sym, stage string
	decodeOnly bool
}{
	{pkg + "zstd.(*Encoder).parse", StageMatchFind, false},
	{pkg + "zstd.(*Encoder).encodeBlockPayload", StageEntropy, false},
	{pkg + "lz.(*Matcher).Parse", StageMatchFind, false}, // lz4's and zlibx's parse
	{pkg + "lz4.emitBlock", StageSerialize, false},
	{pkg + "zlibx.(*Encoder).encodeDynamic", StageEntropy, false},
	{pkg + "fse.", StageEntropy, true},
	{pkg + "huffman.", StageEntropy, true},
	{pkg + "bits.", StageEntropy, true},
}

// codecSymbols are the codec package's engine entry points: the frame a
// sample's codec and direction come from.
var codecSymbols = []struct {
	sym, codec string
	dir        Direction
}{
	{pkg + "codec.(*zstdEngine).Compress", "zstd", DirCompress},
	{pkg + "codec.(*zstdEngine).Decompress", "zstd", DirDecompress},
	{pkg + "codec.(*lz4Engine).Compress", "lz4", DirCompress},
	{pkg + "codec.(*lz4Engine).Decompress", "lz4", DirDecompress},
	{pkg + "codec.(*zlibEngine).Compress", "zlib", DirCompress},
	{pkg + "codec.(*zlibEngine).Decompress", "zlib", DirDecompress},
}

// ErrProfilerBusy is ProfileCPU's error when the runtime's CPU profiler is
// already running: another ProfileCPU, or a -cpuprofile test binary.
var ErrProfilerBusy = errors.New("telemetry: CPU profiler already running")

// ProfileCPU runs f under the runtime's CPU profiler and returns its
// samples classified by codec, level, direction and stage: the whole
// process's, f's and any other goroutine's. When the profiler is busy it
// returns ErrProfilerBusy without running f.
func ProfileCPU(f func()) (*CycleProfile, error) {
	var buf bytes.Buffer
	if pprof.StartCPUProfile(&buf) != nil { // it fails only when profiling is on
		return nil, ErrProfilerBusy
	}
	func() {
		defer pprof.StopCPUProfile()
		f()
	}()
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return p.Cycles(), nil
}

// Cycles classifies p's samples into a CycleProfile, weighting each by its
// sample count (a CPU profile's first value). A stack is read leaf to root
// up to the codec package's Compress or Decompress frame, which names codec
// and direction; the first stageSymbols match below it names the stage. A
// stack with no codec frame is application code (Codec ""). The "service"
// and "level" pprof labels, set by whoever drives the work, fill the rest.
func (p *Profile) Cycles() *CycleProfile {
	cp := NewCycleProfile()
	for i := range p.Sample {
		if s := &p.Sample[i]; len(s.Value) > 0 {
			cp.Add(classify(s), s.Value[0])
		}
	}
	return cp
}

func classify(s *Sample) SampleKey {
	var k SampleKey
	for _, kv := range s.Label {
		switch kv[0] {
		case "service":
			k.Service = kv[1]
		case "level":
			k.Level, _ = strconv.Atoi(kv[1])
		}
	}
	var enc, dec string // first encode-path and first decode-only stage match
	for _, loc := range s.Location {
		for _, fn := range loc.Line {
			for _, c := range codecSymbols {
				if fn == c.sym {
					k.Codec, k.Dir, k.Stage = c.codec, c.dir, enc
					if c.dir == DirDecompress {
						k.Stage = dec
					}
					if k.Stage == "" {
						k.Stage = StageOther
					}
					return k
				}
			}
			for _, st := range stageSymbols {
				if !strings.HasPrefix(fn, st.sym) {
					continue
				}
				if st.decodeOnly && dec == "" {
					dec = st.stage
				} else if !st.decodeOnly && enc == "" {
					enc = st.stage
				}
			}
		}
	}
	return k // application code
}
