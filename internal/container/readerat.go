package container

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// readerConfig collects Open's options.
type readerConfig struct {
	eng codec.Engine
}

// ReaderOption configures Open.
type ReaderOption func(*readerConfig)

// WithEngine supplies the decode engine instead of constructing one from
// the header's codec name — required when the payloads were compressed
// with a dictionary, and what the kvstore uses to share its warmed engine.
func WithEngine(eng codec.Engine) ReaderOption {
	return func(c *readerConfig) { c.eng = eng }
}

// ReaderAt serves random-access reads over a complete container held in
// memory: the footer index is parsed once, after which DecodeBlock
// decompresses exactly one block — the selective-decode property the
// paper's block-size study says datacenter stores compress in blocks to
// obtain. Payloads are read where they lie in the container's memory, which
// the reader never writes. Safe for concurrent use (an internal mutex
// serializes the single decode engine); a steady-state DecodeBlock into a
// warm buffer allocates nothing.
type ReaderAt struct {
	data      []byte
	eng       codec.Engine
	codecName string
	blocks    []BlockInfo

	mu sync.Mutex
}

// Open opens the container data holds, parsing its trailer, footer index
// and header. The reader keeps and aliases data, which must not change
// while it is in use. Every declared length and offset is validated before
// use, so hostile footers fail with codec.ErrCorrupt rather than oversized
// allocations or panics.
func Open(data []byte, opts ...ReaderOption) (*ReaderAt, error) {
	var cfg readerConfig
	for _, o := range opts {
		o(&cfg)
	}
	size := len(data)
	minHeader := len(headerMagic) + 1 + 2 // magic, version, 1-byte name, block size
	if size < minHeader+1+trailerLen {    // + terminator
		return nil, errBadTrailer
	}
	trailer := data[size-trailerLen:]
	if [4]byte(trailer[8:]) != trailerMagic {
		return nil, errBadTrailer
	}
	footerLen := binary.LittleEndian.Uint64(trailer)
	if footerLen < 1 || footerLen > uint64(size-trailerLen-minHeader-1) {
		return nil, errBadTrailer
	}
	footerOff := size - trailerLen - int(footerLen)

	name, headerSize, err := parseHeader(data[:min(size, minHeader+maxCodecName+18)])
	if err != nil {
		return nil, err
	}
	dataEnd := footerOff - 1 // terminator byte precedes the footer
	blocks, err := parseFooter(data[footerOff:size-trailerLen], int64(headerSize), int64(dataEnd))
	if err != nil {
		return nil, err
	}

	eng := cfg.eng
	if eng == nil {
		if eng, err = codec.NewEngine(name, codec.WithLevel(defaultedLevel(name, 0))); err != nil {
			return nil, fmt.Errorf("container: %w", err)
		}
	}
	return &ReaderAt{data: data, eng: eng, codecName: name, blocks: blocks}, nil
}

// NewReaderAt reads a container of the given total size from r into memory
// and opens it. Use Open for a container already in memory.
func NewReaderAt(r io.ReaderAt, size int64, opts ...ReaderOption) (*ReaderAt, error) {
	if size < 0 || size > int64(^uint(0)>>1) {
		return nil, errBadTrailer
	}
	data := make([]byte, size)
	if n, _ := r.ReadAt(data, 0); n < len(data) {
		return nil, errTruncated
	}
	return Open(data, opts...)
}

// NumBlocks reports the number of independent blocks.
func (r *ReaderAt) NumBlocks() int { return len(r.blocks) }

// CodecName reports the codec recorded in the header.
func (r *ReaderAt) CodecName() string { return r.codecName }

// Block returns the index entry for block i.
func (r *ReaderAt) Block(i int) BlockInfo { return r.blocks[i] }

// DecodeBlock appends the decoded content of block i to dst, decompressing
// exactly that block from where it lies. The payload checksum is verified
// before decoding.
func (r *ReaderAt) DecodeBlock(dst []byte, i int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	comp, b, err := r.ReadFrame(i)
	if err != nil {
		return nil, err
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

// ReadFrame returns block i's compressed payload — the engine frame, not
// decoded — in place, once its checksum verifies, with the block's index
// entry: what Builder.AppendFrame needs to carry the block into another
// container of the same codec unread. The frame aliases the container's
// memory and has no spare capacity; callers must not write it.
func (r *ReaderAt) ReadFrame(i int) ([]byte, BlockInfo, error) {
	if i < 0 || i >= len(r.blocks) {
		return nil, BlockInfo{}, fmt.Errorf("container: block %d out of range [0,%d)", i, len(r.blocks))
	}
	b := r.blocks[i]
	end := b.Off + int64(b.CompLen) // the footer placed every payload inside the container
	p := r.data[b.Off:end:end]
	if xxhash.Sum64(p) != b.Sum {
		return nil, b, errChecksum
	}
	return p, b, nil
}
