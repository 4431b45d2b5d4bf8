// Package lz4 implements the LZ4 block format: the byte-aligned,
// entropy-free LZ compressor the paper identifies as the fast-decompression
// end of the datacenter codec spectrum.
//
// The block encoding matches the published LZ4 specification — a token byte
// holding literal-run and match lengths (with 255-extension bytes), raw
// literals, and 2-byte little-endian offsets — so ratios are directly
// comparable to the real library. Levels 1-12 mirror lz4/lz4hc: 1-2 use the
// fast single-hash matcher, 3-12 use hash chains with geometrically growing
// search depth (HC).
//
// Compress/Decompress wrap blocks in a minimal container (a uvarint content
// length) so payloads are self-describing; CompressBlock/DecompressBlock
// expose the raw format.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/datacomp/datacomp/internal/lz"
	"github.com/datacomp/datacomp/internal/wildcopy"
)

// Level bounds for this codec. Positive levels 1-12 mirror lz4/lz4hc;
// negative levels are lz4's "acceleration" fast modes (level -N trades
// ratio for speed by skipping ~N positions per miss, like `lz4 --fast=N`).
// Level 0 is invalid.
const (
	MinLevel = -10
	MaxLevel = 12
)

const (
	minMatch   = 4
	mfLimit    = 12 // matches must start at least this far from the end
	lastLits   = 5  // the final bytes are always literals
	maxOffset  = 65535
	tokenMaxL  = 15
	tokenMaxM  = 15 // stored match length is length-4
	extByteMax = 255
)

// ErrCorrupt is returned for undecodable payloads.
var ErrCorrupt = errors.New("lz4: corrupt payload")

// params maps a level to match-finder parameters, mirroring lz4/lz4hc.
func params(level int) (lz.Params, error) {
	if level < MinLevel || level > MaxLevel || level == 0 {
		return lz.Params{}, fmt.Errorf("lz4: level %d out of range [%d,%d] (0 invalid)", level, MinLevel, MaxLevel)
	}
	p := lz.Params{
		WindowLog: 16, // format limit: 64 KiB offsets
		MinMatch:  minMatch,
		SkipStep:  1,
	}
	switch {
	case level < 0: // acceleration: skip positions on miss
		p.Strategy = lz.Fast
		p.HashLog = 13
		p.SkipStep = 1 - level // -1 → 2 ... -10 → 11
	case level == 1:
		p.Strategy = lz.Fast
		p.HashLog = 14
	case level == 2:
		p.Strategy = lz.Fast
		p.HashLog = 16
	default: // HC levels
		p.HashLog = 16
		p.ChainLog = 16
		p.Depth = 1 << uint(level-2) // 2 at L3 ... 1024 at L12
		switch {
		case level <= 5:
			p.Strategy = lz.Greedy
		case level <= 8:
			p.Strategy = lz.Lazy
		default:
			p.Strategy = lz.Lazy2
		}
	}
	return p, nil
}

// Encoder compresses buffers at a fixed level. Not safe for concurrent use.
type Encoder struct {
	level   int
	matcher *lz.Matcher
	seqs    []lz.Sequence
}

// NewEncoder returns an encoder for the given level.
func NewEncoder(level int) (*Encoder, error) {
	p, err := params(level)
	if err != nil {
		return nil, err
	}
	m, err := lz.NewMatcher(p)
	if err != nil {
		return nil, err
	}
	return &Encoder{level: level, matcher: m}, nil
}

// Level returns the encoder's compression level.
func (e *Encoder) Level() int { return e.level }

// CompressBound returns the maximum compressed size for an input of n bytes.
func CompressBound(n int) int { return n + n/255 + 16 }

// Compress appends a self-describing payload (uvarint content length + LZ4
// block) to dst.
func (e *Encoder) Compress(dst, src []byte) ([]byte, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	dst = append(dst, hdr[:n]...)
	return e.CompressBlock(dst, src)
}

// CompressBlock appends the raw LZ4 block encoding of src to dst.
func (e *Encoder) CompressBlock(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	e.seqs = e.matcher.Parse(e.seqs[:0], src, 0)
	return emitBlock(dst, src, e.seqs)
}

// emitBlock serializes sequences in LZ4 block format, enforcing the format's
// end-of-block rules (final 5 bytes literal, matches start ≥12 from end) by
// demoting offending matches to literals.
func emitBlock(dst, src []byte, seqs []lz.Sequence) ([]byte, error) {
	pos := 0
	pendingLits := 0
	// flushSeq emits pendingLits literals ending at litEnd, then a match.
	flushSeq := func(litEnd, matchLen, offset int) {
		lits := src[litEnd-pendingLits : litEnd]
		token := byte(0)
		ll := len(lits)
		if ll >= tokenMaxL {
			token = tokenMaxL << 4
		} else {
			token = byte(ll) << 4
		}
		if matchLen > 0 {
			m := matchLen - minMatch
			if m >= tokenMaxM {
				token |= tokenMaxM
			} else {
				token |= byte(m)
			}
		}
		dst = append(dst, token)
		if ll >= tokenMaxL {
			rem := ll - tokenMaxL
			for rem >= extByteMax {
				dst = append(dst, extByteMax)
				rem -= extByteMax
			}
			dst = append(dst, byte(rem))
		}
		dst = append(dst, lits...)
		if matchLen > 0 {
			dst = append(dst, byte(offset), byte(offset>>8))
			m := matchLen - minMatch
			if m >= tokenMaxM {
				rem := m - tokenMaxM
				for rem >= extByteMax {
					dst = append(dst, extByteMax)
					rem -= extByteMax
				}
				dst = append(dst, byte(rem))
			}
		}
	}

	for _, s := range seqs {
		pos += int(s.LitLen)
		pendingLits += int(s.LitLen)
		if s.MatchLen == 0 {
			continue
		}
		matchStart := pos
		matchLen := int(s.MatchLen)
		pos += matchLen
		// End-of-block rules: trim matches that run into the final literal
		// region, demote entirely when they start too late or the trimmed
		// remainder is too short.
		if over := matchStart + matchLen - (len(src) - lastLits); over > 0 {
			matchLen -= over
		}
		if matchStart > len(src)-mfLimit || matchLen < minMatch || s.Offset > maxOffset {
			pendingLits += int(s.MatchLen)
			continue
		}
		flushSeq(matchStart, matchLen, int(s.Offset))
		pendingLits = int(s.MatchLen) - matchLen // trimmed tail becomes literals
	}
	if pendingLits > 0 || len(seqs) == 0 {
		flushSeq(pos, 0, 0)
	}
	if pos != len(src) {
		return nil, fmt.Errorf("lz4: internal parse coverage error (%d != %d)", pos, len(src))
	}
	return dst, nil
}

// Decoder decompresses payloads produced by an Encoder. LZ4 decoding is
// stateless, so the type exists for constructor symmetry with the zstd and
// zlibx packages (NewEncoder/NewDecoder pairs) and as an anchor for future
// decoder-side state (streaming windows, dictionaries).
type Decoder struct{}

// NewDecoder returns a Decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Decompress decodes a payload produced by Compress, appending to dst.
func (d *Decoder) Decompress(dst, src []byte) ([]byte, error) { return Decompress(dst, src) }

// DecompressBlock decodes a raw LZ4 block of known decompressed size.
func (d *Decoder) DecompressBlock(dst, src []byte, size int) ([]byte, error) {
	return DecompressBlock(dst, src, size)
}

// Decompress decodes a payload produced by Compress, appending to dst.
func Decompress(dst, src []byte) ([]byte, error) {
	size, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	if size > 1<<31 {
		return nil, ErrCorrupt
	}
	return DecompressBlock(dst, src[n:], int(size))
}

// DecompressBlock decodes a raw LZ4 block of known decompressed size,
// appending exactly size bytes to dst.
func DecompressBlock(dst, src []byte, size int) ([]byte, error) {
	if size == 0 {
		if len(src) != 0 {
			return nil, ErrCorrupt
		}
		return dst, nil
	}
	base := len(dst)
	// The content size is known up front, so one reservation covers the
	// whole block plus wildcopy slack: every match below can run the
	// unconditional 16-byte chunk path.
	out := wildcopy.Reserve(dst, size+16)
	i := 0
	for {
		if i >= len(src) {
			return nil, ErrCorrupt
		}
		token := src[i]
		i++
		// Literal run.
		ll := int(token >> 4)
		if ll == tokenMaxL {
			for {
				if i >= len(src) {
					return nil, ErrCorrupt
				}
				b := src[i]
				i++
				ll += int(b)
				if b != extByteMax {
					break
				}
			}
		}
		if i+ll > len(src) || len(out)-base+ll > size {
			return nil, ErrCorrupt
		}
		out = append(out, src[i:i+ll]...)
		i += ll
		if i == len(src) {
			break // final literal-only sequence
		}
		// Match.
		if i+2 > len(src) {
			return nil, ErrCorrupt
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(out)-base {
			return nil, ErrCorrupt
		}
		ml := int(token&0xf) + minMatch
		if token&0xf == tokenMaxM {
			for {
				if i >= len(src) {
					return nil, ErrCorrupt
				}
				b := src[i]
				i++
				ml += int(b)
				if b != extByteMax {
					break
				}
			}
		}
		if len(out)-base+ml > size {
			return nil, ErrCorrupt
		}
		if offset >= 16 {
			out = wildcopy.MatchSlack(out, offset, ml)
		} else {
			out = wildcopy.Match(out, offset, ml)
		}
	}
	if len(out)-base != size {
		return nil, ErrCorrupt
	}
	return out, nil
}
