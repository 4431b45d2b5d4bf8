package container

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// readerConfig collects NewReaderAt's options.
type readerConfig struct {
	eng codec.Engine
}

// ReaderOption configures NewReaderAt.
type ReaderOption func(*readerConfig)

// WithEngine supplies the decode engine instead of constructing one from
// the header's codec name — required when the payloads were compressed
// with a dictionary, and what the kvstore uses to share its warmed engine.
func WithEngine(eng codec.Engine) ReaderOption {
	return func(c *readerConfig) { c.eng = eng }
}

// ReaderAt serves random-access reads over a complete container: the
// footer index is parsed once, after which DecodeBlock decompresses exactly
// one block and ReadAt touches only the blocks covering the requested
// range — the selective-decode property the paper's block-size study says
// datacenter stores compress in blocks to obtain. Safe for concurrent use
// (an internal mutex serializes the single decode engine); steady-state
// DecodeBlock and ReadAt calls allocate nothing once scratch buffers are
// warm.
type ReaderAt struct {
	r         io.ReaderAt
	eng       codec.Engine
	codecName string
	blockSize int
	blocks    []BlockInfo
	rawOff    []int64 // cumulative raw offsets, len(blocks)+1
	size      int64

	mu           sync.Mutex
	comp         []byte // compressed payload scratch
	scratch      []byte // decoded block scratch for ReadAt
	scratchBlock int    // block index held in scratch, -1 when none
}

// NewReaderAt opens a container of the given total size, reading the
// trailer, footer index, and header. Every declared length and offset is
// validated before use, so hostile footers fail with codec.ErrCorrupt
// rather than oversized allocations or panics.
func NewReaderAt(r io.ReaderAt, size int64, opts ...ReaderOption) (*ReaderAt, error) {
	var cfg readerConfig
	for _, o := range opts {
		o(&cfg)
	}
	tm()
	minHeader := int64(len(headerMagic)) + 1 + 2 // magic, version, 1-byte name, block size
	if size < minHeader+1+trailerLen {           // + terminator
		return nil, errBadTrailer
	}

	var trailer [trailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, errBadTrailer
	}
	if [4]byte(trailer[8:]) != trailerMagic {
		return nil, errBadTrailer
	}
	footerLen := int64(uint64(trailer[0]) | uint64(trailer[1])<<8 | uint64(trailer[2])<<16 |
		uint64(trailer[3])<<24 | uint64(trailer[4])<<32 | uint64(trailer[5])<<40 |
		uint64(trailer[6])<<48 | uint64(trailer[7])<<56)
	if footerLen < 1 || footerLen > size-trailerLen-minHeader-1 {
		return nil, errBadTrailer
	}

	hdrLen := minHeader + int64(maxCodecName) + 18 // generous upper bound
	if hdrLen > size {
		hdrLen = size
	}
	hdrBuf := make([]byte, hdrLen)
	if _, err := r.ReadAt(hdrBuf, 0); err != nil && err != io.EOF {
		return nil, errBadMagic
	}
	name, blockSize, headerSize, err := parseHeader(hdrBuf)
	if err != nil {
		return nil, err
	}

	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, size-trailerLen-footerLen); err != nil {
		return nil, errBadFooter
	}
	dataEnd := size - trailerLen - footerLen - 1 // terminator byte precedes the footer
	blocks, err := parseFooter(footer, int64(headerSize), dataEnd)
	if err != nil {
		return nil, err
	}

	rawOff := make([]int64, len(blocks)+1)
	for i, b := range blocks {
		rawOff[i+1] = rawOff[i] + int64(b.RawLen)
	}

	eng := cfg.eng
	if eng == nil {
		if eng, err = codec.NewEngine(name, codec.WithLevel(defaultedLevel(name, 0))); err != nil {
			return nil, fmt.Errorf("container: %w", err)
		}
	}
	return &ReaderAt{
		r:            r,
		eng:          eng,
		codecName:    name,
		blockSize:    blockSize,
		blocks:       blocks,
		rawOff:       rawOff,
		size:         rawOff[len(blocks)],
		scratchBlock: -1,
	}, nil
}

// NumBlocks reports the number of independent blocks.
func (r *ReaderAt) NumBlocks() int { return len(r.blocks) }

// Size reports the total uncompressed content size.
func (r *ReaderAt) Size() int64 { return r.size }

// CodecName reports the codec recorded in the header.
func (r *ReaderAt) CodecName() string { return r.codecName }

// BlockSize reports the writer's nominal block size (0 = caller-delimited).
func (r *ReaderAt) BlockSize() int { return r.blockSize }

// Block returns the index entry for block i.
func (r *ReaderAt) Block(i int) BlockInfo { return r.blocks[i] }

// DecodeBlock appends the decoded content of block i to dst, reading and
// decompressing exactly that block. The payload checksum is verified
// before decoding.
func (r *ReaderAt) DecodeBlock(dst []byte, i int) ([]byte, error) {
	if i < 0 || i >= len(r.blocks) {
		return nil, fmt.Errorf("container: block %d out of range [0,%d)", i, len(r.blocks))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decodeLocked(dst, i)
}

// ReadFrame appends block i's compressed payload — the engine frame, not
// decoded — to dst once its checksum verifies, and returns it with the
// block's index entry: what Builder.AppendFrame needs to carry the block
// into another container of the same codec unread.
func (r *ReaderAt) ReadFrame(dst []byte, i int) ([]byte, BlockInfo, error) {
	if i < 0 || i >= len(r.blocks) {
		return nil, BlockInfo{}, fmt.Errorf("container: block %d out of range [0,%d)", i, len(r.blocks))
	}
	b := r.blocks[i]
	base := len(dst)
	dst = slices.Grow(dst, b.CompLen)[:base+b.CompLen]
	if _, err := r.r.ReadAt(dst[base:], b.Off); err != nil {
		return nil, b, errTruncated
	}
	if xxhash.Sum64(dst[base:]) != b.Sum {
		return nil, b, errChecksum
	}
	return dst, b, nil
}

func (r *ReaderAt) decodeLocked(dst []byte, i int) ([]byte, error) {
	b := r.blocks[i]
	if cap(r.comp) < b.CompLen {
		r.comp = make([]byte, b.CompLen)
	}
	comp := r.comp[:b.CompLen]
	if _, err := r.r.ReadAt(comp, b.Off); err != nil {
		return nil, errTruncated
	}
	if xxhash.Sum64(comp) != b.Sum {
		return nil, errChecksum
	}
	base := len(dst)
	out, err := r.eng.Decompress(dst, comp)
	if err != nil {
		return nil, err
	}
	if len(out)-base != b.RawLen {
		return nil, errRawLen
	}
	tmBlocksDec.Inc()
	return out, nil
}

// ReadAt implements io.ReaderAt over the uncompressed content, decoding
// only the blocks that cover [off, off+len(p)). Sequential calls that stay
// within one block reuse the previously decoded block without another
// decompression.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("container: negative offset %d", off)
	}
	tmRandomReads.Inc()
	if off >= r.size {
		return 0, io.EOF
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// First block whose end is past off.
	i := sort.Search(len(r.blocks), func(i int) bool { return r.rawOff[i+1] > off })
	n := 0
	for n < len(p) && i < len(r.blocks) {
		if r.scratchBlock != i {
			out, err := r.decodeLocked(r.scratch[:0], i)
			if err != nil {
				r.scratchBlock = -1
				return n, err
			}
			r.scratch = out
			r.scratchBlock = i
		}
		k := copy(p[n:], r.scratch[off-r.rawOff[i]:])
		n += k
		off += int64(k)
		if off >= r.rawOff[i+1] {
			i++
		}
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
