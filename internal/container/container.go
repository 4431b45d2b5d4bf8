// Package container implements the repository's one block format, the
// seekable block container (frame magic "ZSXS"): independently compressed
// caller-sized blocks followed by a footer index, so a reader decodes
// exactly the one block a point read needs. This is the structural
// enabler the paper's block-size study (§V, Fig 13) identifies: datacenter
// services compress in independent blocks precisely so a point read never
// pays for the rest of the object.
//
// Builder writes the framing, Open reads it where it lies in memory, and
// the record functions reuse its per-block header as a log framing, the
// kvstore write-ahead log's v1 records.
//
// Layout (DESIGN.md §8):
//
//	header    "ZSXS" | version(1) | uvarint len(codec) | codec name |
//	          uvarint blockSize (0 = caller-delimited blocks)
//	block[i]  uvarint compLen (>0) | uvarint rawLen |
//	          8B LE XXH64(payload) | payload (self-describing engine frame)
//	end       uvarint 0 (terminator)
//	footer    uvarint blockCount, then per block:
//	          uvarint payloadOff | uvarint compLen | uvarint rawLen |
//	          8B LE XXH64(payload)
//	trailer   8B LE footerLen | "ZSXI"
//
// Open needs only the 12-byte trailer plus the footer to locate any
// block. Checksums cover the compressed payload, so corruption is detected
// before any decode work.
package container

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Format constants.
const (
	version = 1

	// MaxBlockSize bounds a block's uncompressed size; declared lengths
	// beyond it are rejected before any allocation (mirrors the RPC frame
	// parser's varint hardening).
	MaxBlockSize = 64 << 20

	// maxCompBlock bounds a block's declared compressed size. A real engine
	// payload is never much larger than its input, so anything past
	// MaxBlockSize plus slack is corruption.
	maxCompBlock = MaxBlockSize + (MaxBlockSize >> 3) + 4096

	// maxBlocks bounds the footer's declared block count.
	maxBlocks = 1 << 28

	// maxCodecName bounds the header's codec-name field.
	maxCodecName = 64

	// trailerLen is the fixed-size tail: 8-byte footer length + magic.
	trailerLen = 12
)

var (
	headerMagic  = [4]byte{'Z', 'S', 'X', 'S'}
	trailerMagic = [4]byte{'Z', 'S', 'X', 'I'}
)

// Package telemetry on the shared registry, registered on first use.
var (
	tmOnce                   sync.Once
	tmBlocksEnc, tmBlocksDec *telemetry.Counter
)

func tm() {
	tmOnce.Do(func() {
		r := telemetry.Default
		tmBlocksEnc = r.Counter("container_blocks_encoded_total", "container blocks compressed")
		tmBlocksDec = r.Counter("container_blocks_decoded_total", "container blocks decompressed")
	})
}

// defaultedLevel resolves a zero compression level to the codec's declared
// default, since not every codec (lz4) accepts 0 as a level.
func defaultedLevel(name string, level int) int {
	if level != 0 {
		return level
	}
	if c, ok := codec.Lookup(name); ok {
		_, _, def := c.Levels()
		return def
	}
	return level
}

// corruptError marks container corruption while keeping codec.ErrCorrupt in
// the chain, so serving paths branch on one sentinel for every decode
// failure in the repository.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }
func (e *corruptError) Unwrap() error { return codec.ErrCorrupt }

// Static corruption errors: the verification hot path allocates nothing.
var (
	errBadMagic   = &corruptError{msg: "container: bad header magic"}
	errBadVersion = &corruptError{msg: "container: unsupported version"}
	errBadTrailer = &corruptError{msg: "container: bad or missing footer trailer"}
	errBadFooter  = &corruptError{msg: "container: corrupt footer index"}
	errChecksum   = &corruptError{msg: "container: block checksum mismatch"}
	errRawLen     = &corruptError{msg: "container: block decoded to wrong length"}
	errTruncated  = &corruptError{msg: "container: truncated payload"}
)

// BlockInfo locates and describes one compressed block.
type BlockInfo struct {
	// Off is the absolute offset of the compressed payload bytes.
	Off int64
	// CompLen and RawLen are the payload's compressed and uncompressed
	// sizes.
	CompLen int
	RawLen  int
	// Sum is the XXH64 of the compressed payload.
	Sum uint64
}

// appendHeader emits the container header.
func appendHeader(dst []byte, codecName string, blockSize int) ([]byte, error) {
	if len(codecName) == 0 || len(codecName) > maxCodecName {
		return nil, fmt.Errorf("container: invalid codec name %q", codecName)
	}
	if blockSize < 0 || blockSize > MaxBlockSize {
		return nil, fmt.Errorf("container: block size %d out of range", blockSize)
	}
	dst = append(dst, headerMagic[:]...)
	dst = append(dst, version)
	dst = binary.AppendUvarint(dst, uint64(len(codecName)))
	dst = append(dst, codecName...)
	dst = binary.AppendUvarint(dst, uint64(blockSize))
	return dst, nil
}

// parseHeader decodes the container header, returning the codec name and
// the header length. The writer's nominal block size is validated but not
// kept: every block's own length is in the footer index.
func parseHeader(b []byte) (codecName string, n int, err error) {
	if len(b) < len(headerMagic)+1 {
		return "", 0, errBadMagic
	}
	if [4]byte(b[:4]) != headerMagic {
		return "", 0, errBadMagic
	}
	if b[4] != version {
		return "", 0, errBadVersion
	}
	pos := 5
	nameLen, k := binary.Uvarint(b[pos:])
	if k <= 0 || nameLen == 0 || nameLen > maxCodecName {
		return "", 0, errBadMagic
	}
	pos += k
	if pos+int(nameLen) > len(b) {
		return "", 0, errBadMagic
	}
	codecName = string(b[pos : pos+int(nameLen)])
	pos += int(nameLen)
	bs, k := binary.Uvarint(b[pos:])
	if k <= 0 || bs > MaxBlockSize {
		return "", 0, errBadMagic
	}
	pos += k
	return codecName, pos, nil
}

// appendBlockHeader emits the per-block header a container block and a log
// record share.
func appendBlockHeader(dst []byte, compLen, rawLen int, sum uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(compLen))
	dst = binary.AppendUvarint(dst, uint64(rawLen))
	dst = binary.LittleEndian.AppendUint64(dst, sum)
	return dst
}

// appendFooter emits the footer index and trailer for the given blocks.
func appendFooter(dst []byte, blocks []BlockInfo) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.Off))
		dst = binary.AppendUvarint(dst, uint64(b.CompLen))
		dst = binary.AppendUvarint(dst, uint64(b.RawLen))
		dst = binary.LittleEndian.AppendUint64(dst, b.Sum)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(dst)-start))
	dst = append(dst, trailerMagic[:]...)
	return dst
}

// parseFooter decodes a footer index region (count + entries, no trailer),
// validating every declared length and that payload spans are monotonically
// increasing and confined to [minOff, maxOff).
func parseFooter(b []byte, minOff, maxOff int64) ([]BlockInfo, error) {
	count, k := binary.Uvarint(b)
	if k <= 0 || count > maxBlocks {
		return nil, errBadFooter
	}
	// Each entry is at least 3 one-byte varints + an 8-byte sum.
	if count > uint64(len(b)/11)+1 {
		return nil, errBadFooter
	}
	pos := k
	blocks := make([]BlockInfo, 0, count)
	prevEnd := minOff
	for i := uint64(0); i < count; i++ {
		off, k := binary.Uvarint(b[pos:])
		if k <= 0 {
			return nil, errBadFooter
		}
		pos += k
		compLen, k := binary.Uvarint(b[pos:])
		if k <= 0 || compLen == 0 || compLen > maxCompBlock {
			return nil, errBadFooter
		}
		pos += k
		rawLen, k := binary.Uvarint(b[pos:])
		if k <= 0 || rawLen == 0 || rawLen > MaxBlockSize {
			return nil, errBadFooter
		}
		pos += k
		if pos+8 > len(b) {
			return nil, errBadFooter
		}
		sum := binary.LittleEndian.Uint64(b[pos:])
		pos += 8
		if off > uint64(maxOff) || int64(off) < prevEnd || int64(off)+int64(compLen) > maxOff {
			return nil, errBadFooter
		}
		prevEnd = int64(off) + int64(compLen)
		blocks = append(blocks, BlockInfo{
			Off:     int64(off),
			CompLen: int(compLen),
			RawLen:  int(rawLen),
			Sum:     sum,
		})
	}
	if pos != len(b) {
		return nil, errBadFooter
	}
	return blocks, nil
}
