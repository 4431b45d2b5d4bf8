package container

import (
	"errors"
	"fmt"
	"io"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// Builder writes a container one caller-delimited block at a time through a
// single engine — the producer the kvstore table writer and the warehouse
// stripe writer use, where block boundaries are semantic (key ranges,
// column chunks) rather than fixed-size. It is the only writer of the
// container's header, block headers and footer.
//
// A Builder is single-goroutine, like the engine it owns. After a warm-up
// append, AppendBlock performs no heap allocations beyond index growth;
// Reset keeps the index's capacity, so a Builder reused across containers
// of similar block counts appends at zero.
type Builder struct {
	w      io.Writer
	eng    codec.Engine
	comp   []byte // reused compressed-block scratch
	hdr    []byte // reused header scratch
	blocks []BlockInfo
	off    int64
	closed bool
}

// NewBuilder starts a container on w compressing with eng. codecName is
// recorded in the header so readers can construct a matching engine; it
// must name the engine's codec. eng == nil builds a default engine for
// codecName. blockSize is recorded as the writer's nominal block size
// (0 for caller-delimited blocks) and does not limit AppendBlock beyond
// MaxBlockSize. The header is written immediately.
func NewBuilder(w io.Writer, codecName string, eng codec.Engine, blockSize int) (*Builder, error) {
	if eng == nil {
		var err error
		eng, err = codec.NewEngine(codecName, codec.WithLevel(defaultedLevel(codecName, 0)))
		if err != nil {
			return nil, fmt.Errorf("container: %w", err)
		}
	}
	b := &Builder{eng: eng}
	if err := b.Reset(w, codecName, blockSize); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset starts another container on w with the builder's engine, as
// NewBuilder does, keeping its scratch and index capacity: one Builder
// serves every container a producer writes in turn.
func (b *Builder) Reset(w io.Writer, codecName string, blockSize int) error {
	hdr, err := appendHeader(b.hdr[:0], codecName, blockSize)
	if err != nil {
		return err
	}
	b.w, b.hdr, b.blocks, b.off, b.closed = w, hdr[:0], b.blocks[:0], int64(len(hdr)), false
	_, err = w.Write(hdr)
	return err
}

// AppendBlock compresses raw as the next independent block. Empty blocks
// are rejected: the footer parser refuses an index entry with a zero raw
// length, so a container holding one could not be opened.
func (b *Builder) AppendBlock(raw []byte) error {
	if b.closed {
		return errors.New("container: append on closed builder")
	}
	if len(raw) == 0 {
		return errors.New("container: empty block")
	}
	if len(raw) > MaxBlockSize {
		return fmt.Errorf("container: block of %d bytes exceeds MaxBlockSize", len(raw))
	}
	comp, err := b.eng.Compress(b.comp[:0], raw)
	if err != nil {
		return err
	}
	b.comp = comp
	if err := b.write(comp, len(raw), xxhash.Sum64(comp)); err != nil {
		return err
	}
	tmBlocksEnc.Inc()
	return nil
}

// AppendFrame appends an already-encoded block — a payload ReaderAt.ReadFrame
// returned from a container of this builder's codec, with its index entry —
// without running the engine. The payload and its checksum are written as
// they are; info.Off is ignored.
func (b *Builder) AppendFrame(frame []byte, info BlockInfo) error {
	if b.closed {
		return errors.New("container: append on closed builder")
	}
	if len(frame) == 0 || len(frame) != info.CompLen || info.RawLen <= 0 || info.RawLen > MaxBlockSize {
		return fmt.Errorf("container: frame of %d bytes does not match its index entry %+v", len(frame), info)
	}
	return b.write(frame, info.RawLen, info.Sum)
}

// write emits one block header and payload and records its index entry.
func (b *Builder) write(comp []byte, rawLen int, sum uint64) error {
	b.hdr = appendBlockHeader(b.hdr[:0], len(comp), rawLen, sum)
	if _, err := b.w.Write(b.hdr); err != nil {
		return err
	}
	if _, err := b.w.Write(comp); err != nil {
		return err
	}
	b.blocks = append(b.blocks, BlockInfo{
		Off:     b.off + int64(len(b.hdr)),
		CompLen: len(comp),
		RawLen:  rawLen,
		Sum:     sum,
	})
	b.off += int64(len(b.hdr)) + int64(len(comp))
	return nil
}

// Offset reports the container bytes written so far (before the footer).
func (b *Builder) Offset() int64 { return b.off }

// Close writes the terminator, footer index, and trailer. It does not
// close the underlying writer. Closing twice is a no-op.
func (b *Builder) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	tail := append(b.hdr[:0], 0) // zero-length terminator
	tail = appendFooter(tail, b.blocks)
	b.hdr = tail[:0]
	if _, err := b.w.Write(tail); err != nil {
		return err
	}
	b.off += int64(len(tail))
	return nil
}
