// Package codec unifies the repository's compressors behind one interface
// and provides the measurement harness that turns (algorithm, level, block
// size) configurations into the paper's three compression metrics:
// compression ratio, compression speed, and decompression speed.
//
// The three registered codecs — "lz4", "zstd", "zlib" — are the algorithms
// the paper reports as covering >99% of compression cycles in the fleet.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/datacomp/datacomp/internal/lz4"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zlibx"
	"github.com/datacomp/datacomp/internal/zstd"
)

// ErrCorrupt reports that a payload failed integrity verification or could
// not be decoded. Every decode failure surfaced by this package wraps it,
// so callers on the serving path branch on one sentinel:
//
//	if errors.Is(err, codec.ErrCorrupt) { ... }
var ErrCorrupt = errors.New("codec: corrupt payload")

// corruptError marks a decode failure as corruption while preserving the
// codec's own diagnosis in the error chain.
type corruptError struct{ err error }

func (e *corruptError) Error() string   { return e.err.Error() }
func (e *corruptError) Unwrap() []error { return []error{ErrCorrupt, e.err} }

// corrupt wraps a decode error with ErrCorrupt (idempotently).
func corrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return &corruptError{err: err}
}

// Options configure an Engine instance.
type Options struct {
	// Level is the codec-specific compression level.
	Level int
	// WindowLog overrides the match window (zstd only; 0 = level default).
	WindowLog uint
	// Dict is a shared dictionary (zstd only): content, or content with
	// entropy tables (zstd.TrainTables).
	Dict []byte
	// Checksum frames every payload with an XXH64 content checksum,
	// verified on decompression (see NewEngine; applied by the engine
	// construction layer, uniformly across codecs).
	Checksum bool
}

// Option is a functional setting for NewEngine. Options compose left to
// right; later options override earlier ones.
type Option func(*Options)

// WithLevel sets the codec-specific compression level (0 = codec default).
func WithLevel(level int) Option { return func(o *Options) { o.Level = level } }

// WithWindowLog overrides the match window (zstd only).
func WithWindowLog(w uint) Option { return func(o *Options) { o.WindowLog = w } }

// WithDict sets a shared content-prefix dictionary (zstd only).
func WithDict(dict []byte) Option { return func(o *Options) { o.Dict = dict } }

// WithChecksum toggles the XXH64 content checksum frame.
func WithChecksum(on bool) Option { return func(o *Options) { o.Checksum = on } }

// BuildOptions folds functional options into an Options struct, for the
// APIs that still accept the struct form (Codec.New, NewPool, SharedPool).
func BuildOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Engine is a configured compressor/decompressor pair. Engines are not safe
// for concurrent use; create one per goroutine.
type Engine interface {
	// Compress appends a self-describing compressed payload to dst.
	Compress(dst, src []byte) ([]byte, error)
	// Decompress appends the decoded content to dst.
	Decompress(dst, src []byte) ([]byte, error)
}

// Codec is a compression algorithm family selectable by name and level.
type Codec interface {
	// Name is the registry key ("zstd", "lz4", "zlib").
	Name() string
	// Levels returns the valid level range and the conventional default.
	Levels() (min, max, def int)
	// SupportsWindow reports whether Options.WindowLog is honoured.
	SupportsWindow() bool
	// New builds an engine for the given options.
	New(opts Options) (Engine, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Codec{}
)

// Register adds a codec to the global registry, replacing any codec with
// the same name.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[c.Name()] = c
}

// Lookup finds a registered codec by name.
func Lookup(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[name]
	return c, ok
}

// Names lists registered codecs in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// zstdCodec adapts internal/zstd.
type zstdCodec struct{}

func (zstdCodec) Name() string                { return "zstd" }
func (zstdCodec) Levels() (min, max, def int) { return zstd.MinLevel, zstd.MaxLevel, zstd.DefaultLevel }
func (zstdCodec) SupportsWindow() bool        { return true }

type zstdEngine struct {
	enc *zstd.Encoder
	dec *zstd.Decoder
}

func (zstdCodec) New(opts Options) (Engine, error) {
	enc, err := zstd.NewEncoder(zstd.Options{Level: opts.Level, WindowLog: opts.WindowLog, Dict: opts.Dict})
	if err != nil {
		return nil, err
	}
	dec, err := zstd.NewDecoder(opts.Dict)
	if err != nil {
		return nil, err
	}
	return &zstdEngine{enc: enc, dec: dec}, nil
}

func (e *zstdEngine) Compress(dst, src []byte) ([]byte, error) { return e.enc.Compress(dst, src) }
func (e *zstdEngine) Decompress(dst, src []byte) ([]byte, error) {
	out, err := e.dec.Decompress(dst, src)
	if err != nil {
		return nil, corrupt(err)
	}
	return out, nil
}

// lz4Codec adapts internal/lz4.
type lz4Codec struct{}

func (lz4Codec) Name() string                { return "lz4" }
func (lz4Codec) Levels() (min, max, def int) { return lz4.MinLevel, lz4.MaxLevel, 1 }
func (lz4Codec) SupportsWindow() bool        { return false }

type lz4Engine struct {
	enc *lz4.Encoder
	dec *lz4.Decoder
}

func (lz4Codec) New(opts Options) (Engine, error) {
	if len(opts.Dict) > 0 {
		return nil, errors.New("codec: lz4 does not support dictionaries")
	}
	if opts.WindowLog != 0 {
		return nil, errors.New("codec: lz4 does not support window override")
	}
	enc, err := lz4.NewEncoder(opts.Level)
	if err != nil {
		return nil, err
	}
	return &lz4Engine{enc: enc, dec: lz4.NewDecoder()}, nil
}

func (e *lz4Engine) Compress(dst, src []byte) ([]byte, error) { return e.enc.Compress(dst, src) }
func (e *lz4Engine) Decompress(dst, src []byte) ([]byte, error) {
	out, err := e.dec.Decompress(dst, src)
	if err != nil {
		return nil, corrupt(err)
	}
	return out, nil
}

// zlibCodec adapts internal/zlibx.
type zlibCodec struct{}

func (zlibCodec) Name() string                { return "zlib" }
func (zlibCodec) Levels() (min, max, def int) { return zlibx.MinLevel, zlibx.MaxLevel, 6 }
func (zlibCodec) SupportsWindow() bool        { return false }

type zlibEngine struct {
	enc *zlibx.Encoder
	dec *zlibx.Decoder
}

func (zlibCodec) New(opts Options) (Engine, error) {
	if len(opts.Dict) > 0 {
		return nil, errors.New("codec: zlib does not support dictionaries")
	}
	if opts.WindowLog != 0 {
		return nil, errors.New("codec: zlib does not support window override")
	}
	enc, err := zlibx.NewEncoder(opts.Level)
	if err != nil {
		return nil, err
	}
	return &zlibEngine{enc: enc, dec: zlibx.NewDecoder()}, nil
}

func (e *zlibEngine) Compress(dst, src []byte) ([]byte, error) { return e.enc.Compress(dst, src) }
func (e *zlibEngine) Decompress(dst, src []byte) ([]byte, error) {
	out, err := e.dec.Decompress(dst, src)
	if err != nil {
		return nil, corrupt(err)
	}
	return out, nil
}

func init() {
	Register(zstdCodec{})
	Register(lz4Codec{})
	Register(zlibCodec{})
}

// Checksum frame layout: one magic byte, then the little-endian XXH64 of
// the uncompressed content, then the inner codec payload. The checksum
// covers the content (not the compressed bytes) so verification also
// catches a decoder that silently produced wrong output.
const (
	checksumMagic     = 0xC1
	checksumHeaderLen = 9
)

// Static corrupt errors so the verification path allocates nothing new.
var (
	errChecksumHeader   = &corruptError{err: errors.New("codec: missing or malformed checksum header")}
	errChecksumMismatch = &corruptError{err: errors.New("codec: content checksum mismatch")}
)

// checksummed frames an inner engine's payloads with an XXH64 content
// checksum and verifies it on decompression. Steady-state cost is one hash
// pass per direction and zero allocations.
type checksummed struct{ eng Engine }

func (c *checksummed) Compress(dst, src []byte) ([]byte, error) {
	var hdr [checksumHeaderLen]byte
	hdr[0] = checksumMagic
	binary.LittleEndian.PutUint64(hdr[1:], xxhash.Sum64(src))
	dst = append(dst, hdr[:]...)
	return c.eng.Compress(dst, src)
}

func (c *checksummed) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) < checksumHeaderLen || src[0] != checksumMagic {
		return nil, errChecksumHeader
	}
	want := binary.LittleEndian.Uint64(src[1:checksumHeaderLen])
	base := len(dst)
	out, err := c.eng.Decompress(dst, src[checksumHeaderLen:])
	if err != nil {
		return nil, corrupt(err)
	}
	if xxhash.Sum64(out[base:]) != want {
		return nil, errChecksumMismatch
	}
	return out, nil
}

// Unwrap returns the engine beneath the checksum frame.
func (c *checksummed) Unwrap() Engine { return c.eng }

// StripChecksum returns the inner codec payload of a frame an engine built
// with Checksum coded: what the same engine without it codes for the same
// content. It neither checks the header nor verifies the checksum, so it is
// for frames a Decompress already accepted.
func StripChecksum(frame []byte) []byte { return frame[checksumHeaderLen:] }

// ChecksumPayload returns the inner codec payload of a frame an engine built
// with Checksum coded, checking only that the frame carries the checksum
// header: for reading the inner frame's own header (the dictionary it names,
// say) before Decompress verifies the content.
func ChecksumPayload(frame []byte) ([]byte, error) {
	if len(frame) < checksumHeaderLen || frame[0] != checksumMagic {
		return nil, errChecksumHeader
	}
	return frame[checksumHeaderLen:], nil
}

// NewEngine looks up a codec by name and builds an engine from functional
// options — the construction surface for everything outside this package:
//
//	eng, err := codec.NewEngine("zstd", codec.WithLevel(3), codec.WithChecksum(true))
func NewEngine(name string, opts ...Option) (Engine, error) {
	c, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q", name)
	}
	return buildEngine(c, BuildOptions(opts...))
}

// buildEngine constructs an engine from resolved options, layering the
// checksum frame on top when requested. Codec implementations never see
// Options.Checksum — integrity framing is uniform across codecs.
func buildEngine(c Codec, o Options) (Engine, error) {
	raw := o
	raw.Checksum = false
	e, err := c.New(raw)
	if err != nil {
		return nil, err
	}
	if o.Checksum {
		e = &checksummed{eng: e}
	}
	return e, nil
}

// SplitBlocks cuts data into independently compressible blocks of at most
// blockSize bytes (the paper's §III-F: random access requires block-granular
// compression). blockSize ≤ 0 yields a single block.
func SplitBlocks(data []byte, blockSize int) [][]byte {
	if blockSize <= 0 || blockSize >= len(data) {
		if len(data) == 0 {
			return nil
		}
		return [][]byte{data}
	}
	blocks := make([][]byte, 0, (len(data)+blockSize-1)/blockSize)
	for start := 0; start < len(data); start += blockSize {
		end := start + blockSize
		if end > len(data) {
			end = len(data)
		}
		blocks = append(blocks, data[start:end])
	}
	return blocks
}

// Metrics aggregates a measurement run into the paper's three compression
// metrics plus block accounting for per-block decompression latency.
type Metrics struct {
	InputBytes      int64
	CompressedBytes int64
	Blocks          int64
	CompressTime    time.Duration
	DecompressTime  time.Duration
}

// Ratio is original size / compressed size (higher is better).
func (m Metrics) Ratio() float64 {
	if m.CompressedBytes == 0 {
		return 0
	}
	return float64(m.InputBytes) / float64(m.CompressedBytes)
}

// CompressMBps is compression throughput over the original bytes.
func (m Metrics) CompressMBps() float64 {
	if m.CompressTime <= 0 {
		return 0
	}
	return float64(m.InputBytes) / m.CompressTime.Seconds() / 1e6
}

// DecompressMBps is decompression throughput over the original bytes.
func (m Metrics) DecompressMBps() float64 {
	if m.DecompressTime <= 0 {
		return 0
	}
	return float64(m.InputBytes) / m.DecompressTime.Seconds() / 1e6
}

// DecompressPerBlock is the mean wall time to decompress one block, the
// quantity KVSTORE1's read-latency SLO constrains (Fig 13).
func (m Metrics) DecompressPerBlock() time.Duration {
	if m.Blocks == 0 {
		return 0
	}
	return m.DecompressTime / time.Duration(m.Blocks)
}

// Add merges another measurement into m.
func (m *Metrics) Add(o Metrics) {
	m.InputBytes += o.InputBytes
	m.CompressedBytes += o.CompressedBytes
	m.Blocks += o.Blocks
	m.CompressTime += o.CompressTime
	m.DecompressTime += o.DecompressTime
}

// Measure compresses and decompresses every sample (split into blockSize
// blocks; ≤0 means whole-sample), verifying roundtrips and accumulating
// metrics. repeats > 1 re-runs the work to stabilize timings; sizes are
// counted once.
func Measure(eng Engine, samples [][]byte, blockSize, repeats int) (Metrics, error) {
	if repeats < 1 {
		repeats = 1
	}
	var m Metrics
	var comp, decomp []byte
	for _, sample := range samples {
		blocks := SplitBlocks(sample, blockSize)
		for _, b := range blocks {
			var err error
			t0 := time.Now()
			comp, err = eng.Compress(comp[:0], b)
			tc := time.Since(t0)
			if err != nil {
				return Metrics{}, err
			}
			t1 := time.Now()
			decomp, err = eng.Decompress(decomp[:0], comp)
			td := time.Since(t1)
			if err != nil {
				return Metrics{}, err
			}
			if !bytes.Equal(decomp, b) {
				return Metrics{}, errors.New("codec: roundtrip verification failed")
			}
			for r := 1; r < repeats; r++ {
				t0 = time.Now()
				comp, err = eng.Compress(comp[:0], b)
				tc += time.Since(t0)
				if err != nil {
					return Metrics{}, err
				}
				t1 = time.Now()
				decomp, err = eng.Decompress(decomp[:0], comp)
				td += time.Since(t1)
				if err != nil {
					return Metrics{}, err
				}
			}
			m.InputBytes += int64(len(b))
			m.CompressedBytes += int64(len(comp))
			m.Blocks++
			m.CompressTime += tc / time.Duration(repeats)
			m.DecompressTime += td / time.Duration(repeats)
		}
	}
	return m, nil
}
