package zstd

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/datacomp/datacomp/internal/bits"
	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/wildcopy"
)

// ErrCorrupt is returned for undecodable frames.
var ErrCorrupt = errors.New("zstd: corrupt frame")

// ErrDictMismatch is returned when a frame requires a dictionary that was
// not supplied or does not match the recorded dictionary ID.
var ErrDictMismatch = errors.New("zstd: dictionary missing or mismatched")

// frameHeader is the parsed fixed part of a frame.
type frameHeader struct {
	contentSize uint64
	dictID      uint32
	version     int
	hasDict     bool
	hasChecksum bool
	headerLen   int
}

func parseHeader(src []byte) (frameHeader, error) {
	var h frameHeader
	if len(src) < 6 {
		return h, ErrCorrupt
	}
	if src[0] != frameMagicV1[0] || src[1] != frameMagicV1[1] || src[2] != frameMagicV1[2] {
		return h, ErrCorrupt
	}
	switch src[3] {
	case frameMagicV1[3]:
		h.version = 1
	case frameMagicV2[3]:
		h.version = 2
	case frameMagicV3[3]:
		h.version = 3
	default:
		return h, ErrCorrupt
	}
	flags := src[4]
	if flags&^(flagDict|flagChecksum) != 0 {
		return h, ErrCorrupt
	}
	h.hasDict = flags&flagDict != 0
	h.hasChecksum = flags&flagChecksum != 0
	size, n := binary.Uvarint(src[5:])
	if n <= 0 {
		return h, ErrCorrupt
	}
	pos := 5 + n
	if h.hasDict {
		if len(src) < pos+4 {
			return h, ErrCorrupt
		}
		h.dictID = binary.LittleEndian.Uint32(src[pos:])
		pos += 4
	}
	h.contentSize = size
	h.headerLen = pos
	return h, nil
}

// FrameDictID reports the dictionary ID recorded in a frame header and
// whether the frame requires a dictionary at all. Managed-compression
// services use it to resolve the right dictionary version before
// decompressing.
func FrameDictID(src []byte) (id uint32, required bool, err error) {
	h, err := parseHeader(src)
	if err != nil {
		return 0, false, err
	}
	return h.dictID, h.hasDict, nil
}

// DecompressedSize reports the content size recorded in a frame header.
func DecompressedSize(src []byte) (int, error) {
	h, err := parseHeader(src)
	if err != nil {
		return 0, err
	}
	if h.contentSize > 1<<31 {
		return 0, ErrCorrupt
	}
	return int(h.contentSize), nil
}

// Decoder decompresses frames produced with a fixed dictionary, reusing its
// history buffer and entropy-table scratch across frames so a warmed Decoder
// performs zero heap allocations per frame. Not safe for concurrent use.
type Decoder struct {
	hasDict bool
	dictID  uint32 // DictID(dict), hashed once: a frame only compares it
	content []byte // the dictionary's content
	buf     []byte // history: dictionary content + decoded content
	bd      blockDecoder
}

// NewDecoder returns a Decoder for frames compressed with dict (nil for
// dictionary-less frames). A dictionary that carries entropy tables has
// them parsed and built here, once; one whose tables do not parse is
// ErrCorrupt.
func NewDecoder(dict []byte) (*Decoder, error) {
	dec := new(Decoder)
	if err := dec.init(dict); err != nil {
		return nil, err
	}
	return dec, nil
}

func (dec *Decoder) init(dict []byte) error {
	content, tables, err := parseDict(dict)
	if err != nil {
		return err
	}
	dec.hasDict, dec.dictID, dec.content = len(dict) > 0, DictID(dict), content
	if tables != nil {
		dec.bd.dictLits = tables.lits
		for i := range dec.bd.dictSeq {
			if err := dec.bd.dictSeq[i].Init(tables.norm[i], tables.log[i]); err != nil {
				return fmt.Errorf("%w: dictionary sequence table %d: %v", ErrCorrupt, i, err)
			}
		}
	}
	return nil
}

// Decompress decodes a frame, appending the content to dst. dict must be
// the same dictionary used at compression time (nil when the frame was
// compressed without one).
func Decompress(dst, src []byte, dict []byte) ([]byte, error) {
	var d Decoder
	if err := d.init(dict); err != nil {
		return nil, err
	}
	return d.Decompress(dst, src)
}

// Decompress decodes a frame, appending the content to dst.
func (dec *Decoder) Decompress(dst, src []byte) ([]byte, error) {
	dict := dec.content
	h, err := parseHeader(src)
	if err != nil {
		return nil, err
	}
	if h.contentSize > 1<<31 {
		return nil, ErrCorrupt
	}
	if h.hasDict {
		if !dec.hasDict || dec.dictID != h.dictID {
			return nil, ErrDictMismatch
		}
	} else if dec.hasDict {
		return nil, ErrDictMismatch
	}
	pos := h.headerLen

	// Decode into a history buffer seeded with the dictionary so match
	// offsets can reach into it. The header's content size is untrusted:
	// cap the preallocation and let verified blocks grow the buffer.
	capHint := int(h.contentSize)
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	if need := len(dict) + capHint; cap(dec.buf) < need {
		dec.buf = make([]byte, 0, need)
	}
	buf := append(dec.buf[:0], dict...)
	base := len(buf)

	d := &dec.bd
	d.version = h.version
	for {
		if pos+3 > len(src) {
			return nil, ErrCorrupt
		}
		v := uint32(src[pos]) | uint32(src[pos+1])<<8 | uint32(src[pos+2])<<16
		pos += 3
		last := v&1 != 0
		typ := int(v >> 1 & 3)
		size := int(v >> 3)
		switch typ {
		case blockRaw:
			if pos+size > len(src) {
				return nil, ErrCorrupt
			}
			buf = append(buf, src[pos:pos+size]...)
			pos += size
		case blockRLE:
			if pos >= len(src) {
				return nil, ErrCorrupt
			}
			b := src[pos]
			pos++
			for i := 0; i < size; i++ {
				buf = append(buf, b)
			}
		case blockCompressed:
			if pos+size > len(src) {
				return nil, ErrCorrupt
			}
			buf, err = d.decode(buf, src[pos:pos+size])
			if err != nil {
				return nil, err
			}
			pos += size
		default:
			return nil, ErrCorrupt
		}
		if len(buf)-base > int(h.contentSize) {
			return nil, ErrCorrupt
		}
		if last {
			break
		}
	}
	if len(buf)-base != int(h.contentSize) {
		return nil, ErrCorrupt
	}
	dec.buf = buf // keep grown history capacity for the next frame
	if h.hasChecksum {
		if pos+8 > len(src) {
			return nil, ErrCorrupt
		}
		want := binary.LittleEndian.Uint64(src[pos:])
		if fnv64a(buf[base:]) != want {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		pos += 8
	}
	if pos != len(src) {
		return nil, ErrCorrupt
	}
	return append(dst, buf[base:]...), nil
}

// blockDecoder holds reusable scratch for compressed-block decoding: the
// section buffers plus the Huffman and FSE table scratch, so repeated blocks
// rebuild entropy tables in place, and the dictionary's tables, built once.
type blockDecoder struct {
	lits     []byte
	llc      []byte
	ofc      []byte
	mlc      []byte
	huff     huffman.Scratch
	fseSc    fse.Scratch
	version  int            // the frame's: ≥2 allows multi-stream modes, 3 dictionary-table modes
	dictLits *huffman.Table // nil: the dictionary carries no tables
	dictSeq  [3]fse.DecTable
}

// tablesAllowed reports whether the frame may code a section with the
// dictionary's tables: it is version 3 and the dictionary has them.
func (d *blockDecoder) tablesAllowed() bool { return d.version >= 3 && d.dictLits != nil }

// decodeStream reads one sequence-code stream; an FSE-coded one with dict,
// when it is not nil, and no header.
func (d *blockDecoder) decodeStream(dst []byte, mode byte, src []byte, pos, n int, dict *fse.DecTable) ([]byte, int, error) {
	switch mode {
	case seqRLE:
		if pos >= len(src) {
			return nil, 0, ErrCorrupt
		}
		b := src[pos]
		pos++
		for i := 0; i < n; i++ {
			dst = append(dst, b)
		}
		return dst, pos, nil
	case seqRaw:
		if pos+n > len(src) {
			return nil, 0, ErrCorrupt
		}
		dst = append(dst, src[pos:pos+n]...)
		return dst, pos + n, nil
	case seqFSE, seqFSE2:
		if mode == seqFSE2 && d.version < 2 {
			return nil, 0, ErrCorrupt
		}
		length, k := binary.Uvarint(src[pos:])
		if k <= 0 || length > uint64(len(src)) || pos+k+int(length) > len(src) {
			return nil, 0, ErrCorrupt
		}
		pos += k
		stream := src[pos : pos+int(length)]
		var err error
		switch {
		case dict != nil:
			dst, err = d.fseSc.DecompressWith(dst, stream, n, dict, mode == seqFSE2)
		case mode == seqFSE2:
			dst, err = d.fseSc.Decompress2(dst, stream, n)
		default:
			dst, err = d.fseSc.Decompress(dst, stream, n)
		}
		if err != nil {
			return nil, 0, err
		}
		return dst, pos + int(length), nil
	default:
		return nil, 0, ErrCorrupt
	}
}

// decode expands one compressed block into buf (which carries all prior
// history for match resolution).
func (d *blockDecoder) decode(buf, src []byte) ([]byte, error) {
	pos := 0
	if len(src) < 2 {
		return nil, ErrCorrupt
	}
	litMode := src[pos]
	pos++
	litCount, n := binary.Uvarint(src[pos:])
	if n <= 0 || litCount > MaxBlockSize {
		return nil, ErrCorrupt
	}
	pos += n
	d.lits = d.lits[:0]
	switch litMode {
	case litsRaw:
		if pos+int(litCount) > len(src) {
			return nil, ErrCorrupt
		}
		d.lits = append(d.lits, src[pos:pos+int(litCount)]...)
		pos += int(litCount)
	case litsRLE:
		if pos >= len(src) {
			return nil, ErrCorrupt
		}
		b := src[pos]
		pos++
		for i := 0; i < int(litCount); i++ {
			d.lits = append(d.lits, b)
		}
	case litsHuff, litsHuff4, litsDict, litsDict4:
		if litMode == litsHuff4 && d.version < 2 || litMode >= litsDict && !d.tablesAllowed() {
			return nil, ErrCorrupt
		}
		compLen, k := binary.Uvarint(src[pos:])
		if k <= 0 || compLen > uint64(len(src)) || pos+k+int(compLen) > len(src) {
			return nil, ErrCorrupt
		}
		pos += k
		enc := src[pos : pos+int(compLen)]
		var err error
		switch litMode {
		case litsHuff:
			d.lits, err = d.huff.Decompress(d.lits, enc, int(litCount))
		case litsHuff4:
			d.lits, err = d.huff.Decompress4(d.lits, enc, int(litCount))
		case litsDict:
			d.lits, err = d.dictLits.Decode(d.lits, enc, int(litCount))
		case litsDict4:
			d.lits, err = d.dictLits.Decode4(d.lits, enc, int(litCount))
		}
		if err != nil {
			return nil, err
		}
		pos += int(compLen)
	default:
		return nil, ErrCorrupt
	}

	numSeqs64, n := binary.Uvarint(src[pos:])
	if n <= 0 || numSeqs64 > MaxBlockSize {
		return nil, ErrCorrupt
	}
	pos += n
	numSeqs := int(numSeqs64)
	if numSeqs == 0 {
		if pos != len(src) {
			return nil, ErrCorrupt
		}
		return append(buf, d.lits...), nil
	}

	if pos >= len(src) {
		return nil, ErrCorrupt
	}
	modeByte := src[pos]
	pos++
	if modeByte&0x80 != 0 || modeByte&seqDictBit != 0 && !d.tablesAllowed() {
		return nil, ErrCorrupt
	}
	modes := [3]byte{modeByte & 3, modeByte >> 2 & 3, modeByte >> 4 & 3}
	var tabs [3]*fse.DecTable
	if modeByte&seqDictBit != 0 {
		tabs = [3]*fse.DecTable{&d.dictSeq[0], &d.dictSeq[1], &d.dictSeq[2]}
	}
	var err error
	d.llc, pos, err = d.decodeStream(d.llc[:0], modes[0], src, pos, numSeqs, tabs[0])
	if err != nil {
		return nil, err
	}
	d.ofc, pos, err = d.decodeStream(d.ofc[:0], modes[1], src, pos, numSeqs, tabs[1])
	if err != nil {
		return nil, err
	}
	d.mlc, pos, err = d.decodeStream(d.mlc[:0], modes[2], src, pos, numSeqs, tabs[2])
	if err != nil {
		return nil, err
	}
	exLen, k := binary.Uvarint(src[pos:])
	if k <= 0 || pos+k+int(exLen) != len(src) {
		return nil, ErrCorrupt
	}
	pos += k
	var extras bits.Reader64
	extras.Init(src[pos : pos+int(exLen)])

	// 16 readable bytes past the literal buffer let the sequence loop copy
	// short literal runs in unconditional 16-byte chunks.
	litsLen := len(d.lits)
	if cap(d.lits)-litsLen < 16 {
		nl := make([]byte, litsLen, 2*cap(d.lits)+16)
		copy(nl, d.lits)
		d.lits = nl
	}
	litSrc := d.lits[:litsLen+16]
	litPos := 0
	reps := newRepState()
	for i := 0; i < numSeqs; i++ {
		lc, oc, mc := d.llc[i], d.ofc[i], d.mlc[i]
		if lc > maxLLCode || oc > maxOFCode || mc > maxMLCode {
			return nil, ErrCorrupt
		}
		// All three extras fields almost always fit one refill window
		// (≤56 bits); only huge-offset sequences (ll+of+ml extras up to
		// 63 bits) need the second refill. Reads past the end zero-extend
		// and are rejected by the Overrun check below.
		lb, mb := uint(llExtraBits[lc]), uint(mlExtraBits[mc])
		extras.Refill()
		llx := extras.ReadBits(lb)
		ofx := extras.ReadBits(uint(oc))
		if lb+uint(oc)+mb > 56 {
			extras.Refill()
		}
		mlx := extras.ReadBits(mb)
		litLen := int(llBaselines[lc]) + int(llx)
		ofValue := uint32(uint64(1)<<oc + ofx)
		offset := int(reps.decode(ofValue))
		matchLen := int(mlBaselines[mc]) + int(mlx)
		if offset == 0 {
			return nil, ErrCorrupt
		}
		if litPos+litLen > litsLen {
			return nil, ErrCorrupt
		}
		// Reserve room for the whole sequence plus slack up front so both
		// copies below can run in unconditional 16-byte chunks that spill
		// only into reserved capacity.
		buf = wildcopy.Reserve(buf, litLen+matchLen+32)
		n := len(buf)
		if litLen <= 16 {
			wildcopy.Copy16(buf[n:n+16:cap(buf)], litSrc[litPos:])
			buf = buf[:n+litLen]
		} else {
			buf = buf[:n+litLen]
			copy(buf[n:], litSrc[litPos:litPos+litLen])
		}
		litPos += litLen
		if offset > len(buf) {
			return nil, ErrCorrupt
		}
		if offset >= 16 {
			buf = wildcopy.MatchSlack(buf, offset, matchLen)
		} else {
			buf = wildcopy.Match(buf, offset, matchLen)
		}
	}
	if extras.Overrun() {
		return nil, ErrCorrupt
	}
	// Trailing literals not claimed by any sequence.
	buf = append(buf, d.lits[litPos:]...)
	return buf, nil
}
