package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/xxhash"
)

// Standalone record framing: the container's per-block header (uvarint
// compLen | uvarint rawLen | 8-byte LE XXH64 over the compressed payload)
// reused as an append-only log framing. A write-ahead log cannot be a full
// container — a crash leaves no terminator or footer — so these functions
// frame and parse one record at a time against a byte stream whose tail may
// be torn mid-record. The kvstore WAL wrote its records with AppendRecord
// until its current format, which keeps the sequence number outside the
// coded bytes; it still replays those v1 records with RecordBounds and
// DecodeRecord (DESIGN.md §11).

// ErrTruncatedRecord marks a record cut short by the end of the stream —
// the header parses as plausible but the payload (or the header itself) is
// incomplete. This is the expected signature of a crash mid-append, so it
// wraps io.ErrUnexpectedEOF rather than ErrCorrupt: replay treats it as
// end-of-log, not as damage to acknowledged data.
var ErrTruncatedRecord = fmt.Errorf("container: truncated record: %w", io.ErrUnexpectedEOF)

var (
	errRecordHdr = &corruptError{msg: "container: corrupt record header"}
	errRecordSum = &corruptError{msg: "container: record checksum mismatch"}
)

// AppendRecord compresses raw with eng and appends one framed record to
// dst. comp is scratch for the compressed payload: pass the previous
// call's second return value to reuse its capacity across appends.
func AppendRecord(dst, comp []byte, eng codec.Engine, raw []byte) (out, compScratch []byte, err error) {
	if len(raw) == 0 {
		return dst, comp, errors.New("container: empty record")
	}
	if len(raw) > MaxBlockSize {
		return dst, comp, fmt.Errorf("container: record of %d bytes exceeds MaxBlockSize", len(raw))
	}
	c, err := eng.Compress(comp[:0], raw)
	if err != nil {
		return dst, comp, err
	}
	sum := xxhash.Sum64(c)
	dst = appendBlockHeader(dst, len(c), len(raw), sum)
	dst = append(dst, c...)
	return dst, c, nil
}

// RecordBounds parses the record header at the start of b and returns the
// total framed length (header plus payload) of the first record. io.EOF
// means b is empty (a clean end of log); ErrTruncatedRecord means b holds
// only a prefix of a plausible record (a torn tail); any other error wraps
// codec.ErrCorrupt (an implausible header — garbage, not a tail).
func RecordBounds(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, io.EOF
	}
	// A varint still unterminated after MaxVarintLen64 bytes has
	// overflowed: that is garbage, not a tail cut inside the header.
	compLen, k := binary.Uvarint(b)
	if k == 0 && len(b) < binary.MaxVarintLen64 {
		return 0, ErrTruncatedRecord
	}
	if k <= 0 || compLen == 0 || compLen > maxCompBlock {
		return 0, errRecordHdr
	}
	pos := k
	rawLen, k := binary.Uvarint(b[pos:])
	if k == 0 && len(b)-pos < binary.MaxVarintLen64 {
		return 0, ErrTruncatedRecord
	}
	if k <= 0 || rawLen == 0 || rawLen > MaxBlockSize {
		return 0, errRecordHdr
	}
	pos += k
	if pos+8 > len(b) {
		return 0, ErrTruncatedRecord
	}
	pos += 8
	total := pos + int(compLen)
	if total > len(b) {
		return 0, ErrTruncatedRecord
	}
	return total, nil
}

// DecodeRecord verifies and decompresses the first record of b, appending
// the raw bytes to dst. It returns the decoded bytes and the framed length
// consumed, so callers walk a log by advancing b[n:]. Errors follow
// RecordBounds, plus ErrCorrupt-wrapping failures for checksum mismatch,
// undecodable payloads, and raw-length disagreement.
func DecodeRecord(dst []byte, eng codec.Engine, b []byte) (raw []byte, n int, err error) {
	n, err = RecordBounds(b)
	if err != nil {
		return nil, 0, err
	}
	compLen, k1 := binary.Uvarint(b)
	pos := k1
	rawLen, k2 := binary.Uvarint(b[pos:])
	pos += k2
	sum := binary.LittleEndian.Uint64(b[pos:])
	pos += 8
	payload := b[pos : pos+int(compLen)]
	if xxhash.Sum64(payload) != sum {
		return nil, 0, errRecordSum
	}
	base := len(dst)
	out, err := eng.Decompress(dst, payload)
	if err != nil {
		return nil, 0, err
	}
	if len(out)-base != int(rawLen) {
		return nil, 0, errRawLen
	}
	return out, n, nil
}
